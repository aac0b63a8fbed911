"""Command-line entry point.

Subcommands cover the full experiment loop: synthesize a dataset, train
with leave-one-group-out cross-validation, evaluate a checkpoint, run the
gradient verification suite, print cost reports, and apply the shift to a
feature file for inspection. Every run is deterministic given its flags:
all randomness flows from one seed through named substreams.

Configs are JSON with up to three sections, each strictly checked
(unknown keys are errors, never silently ignored):

    {"model": {...}, "train": {...}, "data": {...}}

The model section is either a full architecture description or
`{"preset": "shiftcnn", ...}` with optional width/num_classes/
num_input_layers overrides. For `train`, unspecified preset dimensions
are inferred from the data file, so presets scale down to small feature
sets without extra flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .accounting import count_flops
from .blocks import (
    MIXERS,
    PRESETS,
    CheckpointError,
    ModelConfig,
    build_from_checkpoint,
    build_model,
    config_from_dict,
    preset_config,
    save_checkpoint,
)
from .data import (
    FseqError,
    GenConfig,
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
    check_config_dict,
    decode_json,
)
from .shift import ShiftConfig, temporal_shift
from .tensor_autograd import Tensor
from .train import (
    TrainConfig,
    cross_validate,
    evaluate,
    format_curves,
    format_metrics,
    write_text,
)
from .verification import run_grad_suite

PLACEMENT_FLAGS = {"inplace": "in_place", "residual": "residual"}
DIRECTION_FLAGS = {"uni": "unidirectional", "bi": "bidirectional"}


def _load_config(path) -> dict:
    with open(path, "rb") as f:
        raw = decode_json(f.read(), ConfigError, f"config file {path}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - {"model", "train", "data"})
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(unknown)} "
                          f"(expected model, train, data)")
    return raw


@dataclasses.dataclass
class _PresetSection:
    """The keys a preset model section takes; absent sizes default per command."""
    preset: str
    width: int
    num_classes: int
    num_input_layers: int


def _model_config(args, sections: dict, command: str, **sizes) -> ModelConfig:
    """The model config of the config file's model section or of --preset (not
    both), with the shift flags folded in. A preset takes the sizes its section
    does not set from `sizes`, then from :func:`preset_config`'s defaults."""
    if ("model" in sections) == bool(args.preset):
        raise ConfigError(f"{command} needs exactly one of --preset or a config file with a model section")
    section = sections.get("model", {"preset": args.preset})
    if isinstance(section, dict) and "preset" in section:
        preset = {**sizes, **check_config_dict(section, _PresetSection, "preset model")}
        cfg = preset_config(preset.pop("preset"), **preset)
    else:
        cfg = config_from_dict(section)
    return _apply_shift_flags(cfg, args)


def _apply_shift_flags(cfg: ModelConfig, args) -> ModelConfig:
    """Fold --alpha/--placement/--direction/--mixer into a model config.

    Mixer and shift change in one step: a shift token mixer is only valid
    together with its shift, and a config is checked when it is built.
    """
    shift = cfg.shift
    if any(getattr(args, name) is not None for name in ("alpha", "placement", "direction")):
        base = shift if shift is not None else ShiftConfig()
        shift = ShiftConfig(
            alpha=args.alpha if args.alpha is not None else base.alpha,
            direction=DIRECTION_FLAGS[args.direction] if args.direction is not None
            else base.direction,
            placement=PLACEMENT_FLAGS[args.placement] if args.placement is not None
            else base.placement,
        )
    return dataclasses.replace(cfg, mixer=args.mixer or cfg.mixer, shift=shift)


def _strip_shift(cfg: ModelConfig) -> ModelConfig:
    """The no-shift baseline: a shift token mixer falls back to attention."""
    return dataclasses.replace(cfg, shift=None,
                               mixer="attention" if cfg.mixer == "shift" else cfg.mixer)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    sections = _load_config(args.config) if args.config else {}
    gcfg = GenConfig(**check_config_dict(sections.get("data", {}), GenConfig, "data"))
    out = gen_synthetic(gcfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "data.fseq")
    write_fseq(path, out.records, out.k_cls, gen_config=dataclasses.asdict(gcfg))
    groups = len({r.group for r in out.records})
    print(f"records={len(out.records)} k_cls={out.k_cls} groups={groups} path={path}")
    return 0


def _resolve_train_configs(args, fseq):
    if not fseq.records:
        raise EmptyInputError("dataset has no records to train on")
    layers, _, channels = fseq.records[0].data.shape
    sections = _load_config(args.config) if args.config else {}
    model_cfg = _model_config(args, sections, "training", width=channels,
                              num_classes=fseq.k_cls, num_input_layers=layers)
    if model_cfg.channels[0] != channels:
        raise ConfigError(f"model expects {model_cfg.channels[0]} channels, "
                          f"data has {channels}")
    if model_cfg.num_input_layers != layers:
        raise ConfigError(f"model expects {model_cfg.num_input_layers} input layers, "
                          f"data has {layers}")
    if model_cfg.num_classes != fseq.k_cls:
        raise ConfigError(f"model has {model_cfg.num_classes} classes, "
                          f"data declares {fseq.k_cls}")

    train_cfg = TrainConfig(**check_config_dict(sections.get("train", {}), TrainConfig, "train"))
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    if args.augment_prob is not None:
        train_cfg = dataclasses.replace(train_cfg, augment_prob=args.augment_prob)
    return model_cfg, train_cfg


def cmd_train(args) -> int:
    fseq = read_fseq(args.data)
    model_cfg, train_cfg = _resolve_train_configs(args, fseq)
    result = cross_validate(model_cfg, train_cfg, fseq.records)
    os.makedirs(args.out, exist_ok=True)
    text = format_metrics(result)
    write_text(os.path.join(args.out, "metrics.txt"), text)
    for fold_result in result.folds:
        save_checkpoint(
            os.path.join(args.out, f"fold{fold_result.fold}.ckpt"),
            fold_result.model,
            extra={"fold": fold_result.fold,
                   "ua": fold_result.metrics.ua,
                   "wa": fold_result.metrics.wa,
                   "train": dataclasses.asdict(train_cfg)})
    if args.curves:
        write_text(os.path.join(args.out, "curves.txt"), format_curves(result))
    print(text)
    return 0


def cmd_eval(args) -> int:
    model, _ = build_from_checkpoint(args.checkpoint)
    fseq = read_fseq(args.data)
    if not fseq.records:
        raise EmptyInputError("dataset has no records to evaluate")
    metrics = evaluate(model, fseq.records)
    print(f"ua={metrics.ua:.6f} wa={metrics.wa:.6f}")
    print("confusion (rows = true class):")
    for row in metrics.confusion:
        print("  " + " ".join(f"{int(v):6d}" for v in row))
    return 0


def cmd_gradcheck(args) -> int:
    report = run_grad_suite(num_seeds=args.seeds)
    print(report.format())
    return 0 if report.passed else 1


def cmd_count(args) -> int:
    sections = _load_config(args.config) if args.config else {}
    cfg = _model_config(args, sections, "count")
    model = build_model(cfg, seed=None)
    report = count_flops(model, args.frames)
    print(f"costs at {args.frames} frames:")
    print(report.format_table())
    baseline_cfg = _strip_shift(cfg)
    if baseline_cfg == cfg:
        print("model has no shift; no baseline to compare against")
        return 0
    baseline_model = build_model(baseline_cfg, seed=None)
    baseline = count_flops(baseline_model, args.frames)
    print(f"vs no-shift baseline ({baseline_cfg.family}):")
    print(f"  params {report.total_params} vs {baseline.total_params} "
          f"(delta {report.total_params - baseline.total_params})")
    print(f"  flops  {report.total_flops} vs {baseline.total_flops} "
          f"(delta {report.total_flops - baseline.total_flops})")
    print(f"  ew     {report.total_ew_flops} vs {baseline.total_ew_flops} "
          f"(delta {report.total_ew_flops - baseline.total_ew_flops})")
    differing = report.diff(baseline)
    print("  differing rows: " + (", ".join(differing) if differing else "none"))
    return 0


def cmd_shift_inspect(args) -> int:
    fseq = read_fseq(args.input)
    cfg = ShiftConfig(alpha=args.alpha,
                      direction=DIRECTION_FLAGS[args.direction])
    shifted = []
    for rec in fseq.records:
        moved = temporal_shift(Tensor(rec.data), cfg).data
        shifted.append(dataclasses.replace(rec, data=moved))
    write_fseq(args.output, shifted, fseq.k_cls)
    print(f"records={len(shifted)} alpha={args.alpha} "
          f"direction={DIRECTION_FLAGS[args.direction]} path={args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_shift_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None,
                   help="shift proportion of channels (0, 1]")
    p.add_argument("--placement", choices=sorted(PLACEMENT_FLAGS), default=None,
                   help="where the shift applies: trunk (inplace) or branch (residual)")
    p.add_argument("--direction", choices=sorted(DIRECTION_FLAGS), default=None,
                   help="shift direction: uni (past to present) or bi (split both ways)")
    p.add_argument("--mixer", choices=MIXERS, default=None,
                   help="transformer token mixer (none = pointwise MLP only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftseq",
        description="Temporal-shift sequence classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic order-task dataset")
    p.add_argument("--config", help="JSON config file (data section)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="cross-validated training on an FSEQ file")
    p.add_argument("data", help="FSEQ dataset path")
    p.add_argument("--config", help="JSON config file (model/train sections)")
    p.add_argument("--preset", choices=PRESETS,
                   help="architecture preset, sized to the data file")
    p.add_argument("--seed", type=int, default=None, help="training seed override")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--augment-prob", type=float, default=None,
                   help="probability of shift augmentation per training batch")
    p.add_argument("--curves", action="store_true",
                   help="also write per-step (lr, loss) curves")
    _add_shift_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an FSEQ file")
    p.add_argument("checkpoint", help="checkpoint path")
    p.add_argument("data", help="FSEQ dataset path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--seeds", type=int, default=10, help="seeds per check")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("count", help="parameter and FLOP report for a model")
    p.add_argument("--config", help="JSON config file (model section)")
    p.add_argument("--preset", choices=PRESETS, help="architecture preset")
    p.add_argument("--frames", type=int, default=100,
                   help="sequence length for the FLOP columns")
    _add_shift_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("shift-inspect",
                       help="apply the temporal shift to every record of a file")
    p.add_argument("input", help="input FSEQ path")
    p.add_argument("output", help="output FSEQ path")
    p.add_argument("--alpha", type=float, default=0.25, help="shift proportion")
    p.add_argument("--direction", choices=sorted(DIRECTION_FLAGS), default="uni",
                   help="shift direction")
    p.set_defaults(func=cmd_shift_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError, DimensionError, EmptyInputError,
            TrainingDiverged, FseqError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
