"""Temporal-shift sequence classification toolkit.

Sequence classifiers usually buy cross-frame context with parameters
(attention, recurrence, wide kernels). The temporal shift buys it for
free: slide a fixed fraction of feature channels one frame along time
so that pointwise layers see a mix of present and adjacent-frame
features. The operation has no parameters and no multiplies, a fact the
accounting module proves exactly rather than asserts.

The package is organized around that claim:

* ``tensor_autograd``: minimal reverse-mode autodiff on numpy arrays.
* ``shift``: the shift itself plus its configuration and augmentation.
* ``blocks``: shift-enabled CNN / transformer / LSTM hosts, their
  unshifted baselines, and checkpointing.
* ``accounting``: exact integer parameter and FLOP reports.
* ``data``: a binary feature-sequence format and a synthetic task whose
  classes differ only in temporal order.
* ``train``: AdamW (``weight_decay: 0`` is plain Adam), cosine-warmup
  schedule, leave-one-group-out cross-validation, UA/WA metrics.
* ``verification``: finite-difference checks for every operation.
* ``cli``: the ``shiftseq`` command.
"""

from .accounting import CostEntry, CostReport, count_flops, count_params
from .blocks import (
    PRESETS,
    CheckpointError,
    ModelConfig,
    SequenceClassifier,
    build_from_checkpoint,
    build_model,
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    preset_config,
    save_checkpoint,
)
from .data import (
    FeatureSequence,
    FseqError,
    FseqFile,
    GenConfig,
    assign_folds,
    gen_synthetic,
    read_fseq,
    write_fseq,
)
from .errors import (
    ConfigError,
    DimensionError,
    EmptyInputError,
    TrainingDiverged,
    UsageError,
)
from .seeding import substream
from .shift import ShiftConfig, shift_augment, temporal_shift
from .tensor_autograd import Tensor, grad_check
from .train import (
    CrossValResult,
    FoldResult,
    Metrics,
    TrainConfig,
    compute_metrics,
    cosine_warmup_lr,
    cross_validate,
    evaluate,
    pair_recall_average,
    train_fold,
)
from .verification import run_grad_suite

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "CostEntry",
    "CostReport",
    "CrossValResult",
    "DimensionError",
    "EmptyInputError",
    "FeatureSequence",
    "FoldResult",
    "FseqError",
    "FseqFile",
    "GenConfig",
    "Metrics",
    "ModelConfig",
    "PRESETS",
    "SequenceClassifier",
    "ShiftConfig",
    "Tensor",
    "TrainConfig",
    "TrainingDiverged",
    "UsageError",
    "assign_folds",
    "build_from_checkpoint",
    "build_model",
    "compute_metrics",
    "config_from_dict",
    "config_to_dict",
    "cosine_warmup_lr",
    "count_flops",
    "count_params",
    "cross_validate",
    "evaluate",
    "gen_synthetic",
    "grad_check",
    "load_checkpoint",
    "pair_recall_average",
    "preset_config",
    "read_fseq",
    "run_grad_suite",
    "save_checkpoint",
    "shift_augment",
    "substream",
    "temporal_shift",
    "train_fold",
    "write_fseq",
    "__version__",
]
