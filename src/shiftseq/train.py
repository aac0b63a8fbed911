"""AdamW (plain Adam at `weight_decay: 0`), LR schedule, metrics, and cross-validation.

Training is deterministic given (configs, records, seed): initialization,
per-epoch shuffling, and augmentation draw from independent named RNG
substreams, so two runs with the same inputs produce bit-identical
parameter trajectories and metrics files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import SequenceClassifier, build_model
from .data import assign_folds, batch_layout, write_atomic
from .errors import (ConfigError, DimensionError, EmptyInputError, TrainingDiverged, UsageError,
                     as_integer, check_field_types)
from .seeding import substream
from .tensor_autograd import backward


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, schedule and run settings for :func:`train_fold`.

    A config is checked when it is built, so every instance is valid: a bad
    field raises ConfigError from the constructor (and from
    ``dataclasses.replace``). It is frozen and cannot be changed afterwards.
    `optimizer` is only ever ``"adamw"``; plain Adam is `weight_decay` 0.
    """

    optimizer: str = "adamw"
    peak_lr: float = 5e-4
    weight_decay: float = 0.1
    batch_size: int = 32
    epochs: int = 100
    warmup_epochs: int = 5
    seed: int = 0
    min_lr_ratio: float = 0.0
    augment_prob: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if self.optimizer != "adamw":
            raise ConfigError(
                f"optimizer must be 'adamw', got {self.optimizer!r}; weight_decay: 0 gives plain Adam")
        # chained comparisons are false for NaN, so these reject it too
        if not 0 < self.peak_lr < math.inf:
            raise ConfigError(f"peak_lr must be positive and finite, got {self.peak_lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be non-negative, got {self.warmup_epochs}")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ConfigError(
                f"warmup_epochs ({self.warmup_epochs}) must be below epochs ({self.epochs})")
        if not 0.0 <= self.min_lr_ratio <= 1.0:
            raise ConfigError(f"min_lr_ratio must be in [0, 1], got {self.min_lr_ratio}")
        if not 0.0 <= self.augment_prob <= 1.0:
            raise ConfigError(f"augment_prob must be in [0, 1], got {self.augment_prob}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# elements per block of the update. At float32 the six arrays one block
# touches (p, m, v, g and two scratch) take 1.5 MiB, within a 2 MiB L2.
# At the paper shape 4K- and 256K-element blocks measured slower, 16K no faster
_CHUNK = 65536


def _adam_block(p, m, v, g, a, b, lr, c1, c2, decay) -> None:
    """One block of the AdamW update, in place; `a` and `b` are scratch.

    The ufuncs, and their float order, are those of the per-parameter
    formula `lr*(m/c1) / (sqrt(v/c2) + eps) + decay*p`, so every block
    rounds exactly as a whole-parameter update would. At `decay` 0 the last
    term is a signed zero, so no bit of a finite `p` differs from plain Adam.
    """
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=a)
    v *= BETA2
    gg = np.multiply(g, 1.0 - BETA2, out=a)
    gg *= g
    v += gg
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    a += np.multiply(p, decay, out=b)
    p -= a


class Optimizer:
    """AdamW over a model's parameters.

    Holds one first moment `m` and one second moment `v` per parameter and
    updates them and `p.data` in place. Decoupled decay subtracts lr*wd*theta
    alongside the moment step, both taken from the pre-step parameters. A
    parameter without a gradient steps with g = 0: its moments decay, so it
    can still move.

    The update walks each parameter in cache-sized blocks of `_CHUNK`
    elements through two scratch buffers per dtype, allocated once, and is
    bit-identical to the per-parameter formula. It writes through flat
    views, so :meth:`step` first checks that every parameter is C-contiguous
    and every gradient has its parameter's shape and dtype.

    :meth:`step` consumes the gradients: it sets each parameter's `.grad` to
    None as soon as that parameter is updated, so a model holds no gradient
    between its steps. A step the up-front check rejects changes nothing and
    keeps every gradient. :meth:`zero_grad` drops gradients that a backward
    left without a step.
    """

    def __init__(self, model: SequenceClassifier, cfg: TrainConfig):
        self.params = model.named_parameters()
        self.cfg = cfg
        # C order, so that their flat views write through
        self.m = {n: np.zeros(p.shape, p.dtype) for n, p in self.params.items()}
        self.v = {n: np.zeros(p.shape, p.dtype) for n, p in self.params.items()}
        self.t = 0
        sizes: dict = {}
        for p in self.params.values():
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), min(p.size, _CHUNK))
        # per dtype: scratch a, scratch b, and the zero gradient of a parameter without one
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt), np.zeros(n, dt))
                         for dt, n in sizes.items()}

    def step(self, lr: float) -> None:
        # checked up front so that a bad gradient leaves every parameter unstepped
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise DimensionError(f"parameter {name!r} is not C-contiguous")
            if p.grad is not None and (p.grad.shape, p.grad.dtype) != (p.data.shape, p.data.dtype):
                raise DimensionError(f"gradient for {name!r} is {p.grad.dtype.name} {p.grad.shape}, "
                                     f"parameter is {p.data.dtype.name} {p.data.shape}")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        decay = lr * self.cfg.weight_decay
        for name, p in self.params.items():
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            a, b, zero = self._scratch[m.dtype]
            flat = p.data.reshape(-1)
            g = None if p.grad is None else p.grad.reshape(-1)
            for i in range(0, flat.size, _CHUNK):
                j = min(i + _CHUNK, flat.size)
                n = j - i
                _adam_block(flat[i:j], m[i:j], v[i:j], zero[:n] if g is None else g[i:j],
                            a[:n], b[:n], lr, c1, c2, decay)
            p.grad = None  # consumed

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def cosine_warmup_lr(step: int, total_steps: int, warmup_steps: int,
                     peak: float, min_ratio: float = 0.0) -> float:
    """Linear 0 -> peak over warmup, then cosine decay to peak*min_ratio."""
    if total_steps < 1:
        raise UsageError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= warmup_steps < total_steps:
        raise UsageError(f"warmup_steps must be in [0, total_steps), got {warmup_steps}")
    if step < 0:
        raise UsageError(f"step must be non-negative, got {step}")
    if not 0.0 <= min_ratio <= 1.0:
        raise UsageError(f"min_ratio must be in [0, 1], got {min_ratio}")
    if step >= total_steps:
        return peak * min_ratio
    if step < warmup_steps:
        return peak * step / warmup_steps
    phase = math.pi * (step - warmup_steps) / (total_steps - warmup_steps)
    return peak * (min_ratio + (1.0 - min_ratio) * 0.5 * (1.0 + math.cos(phase)))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    confusion: np.ndarray  # rows = true class, cols = predicted
    ua: float              # mean per-class recall, zero-support classes excluded
    wa: float              # overall accuracy


def compute_metrics(confusion) -> Metrics:
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise DimensionError(f"confusion matrix must be square, got {confusion.shape}")
    if np.any(confusion < 0):
        raise ConfigError("confusion matrix counts must be non-negative")
    total = confusion.sum()
    if total == 0:
        return Metrics(confusion=confusion, ua=0.0, wa=0.0)
    support = confusion.sum(axis=1)
    recalls = [confusion[k, k] / support[k] for k in range(confusion.shape[0]) if support[k] > 0]
    # plain left-to-right sum: any faithful recomputation reproduces it bit for bit
    ua = float(sum(recalls) / len(recalls))
    wa = float(np.trace(confusion) / total)
    return Metrics(confusion=confusion, ua=ua, wa=wa)


def pair_recall_average(logits: np.ndarray, labels: np.ndarray, pair=(0, 1)) -> float:
    """Forced-choice recall average on one class pair.

    Restricts predictions to the pair's logit columns, so other classes
    never absorb probability mass; chance level is exactly 0.5.
    """
    logits, labels = np.asarray(logits), np.asarray(labels)
    a, b = pair
    mask = (labels == a) | (labels == b)
    if not np.any(mask):
        raise EmptyInputError(f"no samples with labels in {pair}")
    sub = logits[mask][:, [a, b]]
    predicted = np.where(sub[:, 0] >= sub[:, 1], a, b)
    truth = labels[mask]
    recalls = []
    for cls in pair:
        cls_mask = truth == cls
        if np.any(cls_mask):
            recalls.append(float(np.mean(predicted[cls_mask] == cls)))
    return float(np.mean(recalls))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def collate(records) -> tuple:
    """Pad records to the batch's longest sequence.

    Returns (features (B, L, Tmax, C) float32, lengths int64, labels int64).
    Padded frames are zero. The model reads such a batch with its `lengths`
    as the records' own views, so its outputs are those of the records
    themselves; training and evaluation pass the records and build no
    padded stack.
    """
    l0, c0 = batch_layout([rec.data for rec in records])
    t_max = max(rec.data.shape[1] for rec in records)
    feats = np.zeros((len(records), l0, t_max, c0), dtype=np.float32)
    lengths = np.empty(len(records), dtype=np.int64)
    labels = np.empty(len(records), dtype=np.int64)
    for i, rec in enumerate(records):
        t = rec.data.shape[1]
        feats[i, :, :t, :] = rec.data
        lengths[i] = t
        labels[i] = rec.label
    return feats, lengths, labels


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield range(start, min(start + batch_size, n))


def predict_logits(model: SequenceClassifier, records, batch_size: int = 32) -> tuple:
    """Eval-mode logits and labels for every record, in input order; records no graph.

    Records are batched in stable length order, so each batch pads little,
    and each batch goes through :meth:`SequenceClassifier.predict`. A
    record's logits do not depend on its batch-mates (see
    :meth:`SequenceClassifier.forward_features`). Equal-length records keep
    input order, and so the batches and bits of input-order batching. A
    `batch_size` that is not an integer of at least 1 raises UsageError.
    """
    if not records:
        raise EmptyInputError("cannot evaluate an empty record list")
    as_integer(batch_size, UsageError, "batch_size must be an integer of at least 1", 1)
    order = np.argsort([rec.data.shape[1] for rec in records], kind="stable")
    chunks = [model.predict([records[i] for i in order[idx]])
              for idx in _batches(len(records), batch_size)]
    restore = np.argsort(order)  # row i of the sorted output is record order[i]
    labels = np.array([rec.label for rec in records], dtype=np.int64)
    return np.concatenate(chunks, axis=0)[restore], labels


def _check_eval_records(records, num_classes: int) -> None:
    if not records:
        raise EmptyInputError("cannot evaluate an empty record list")
    bad = sorted({rec.label for rec in records if not 0 <= rec.label < num_classes})
    if bad:
        raise DimensionError(f"labels {bad} fall outside the model's {num_classes} classes")


def evaluate(model: SequenceClassifier, records, batch_size: int = 32) -> Metrics:
    k = model.cfg.num_classes
    _check_eval_records(records, k)
    logits, labels = predict_logits(model, records, batch_size)
    confusion = np.zeros((k, k), dtype=np.int64)
    predictions = np.argmax(logits, axis=1)
    for truth, pred in zip(labels, predictions):
        confusion[truth, pred] += 1
    return compute_metrics(confusion)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class FoldResult:
    fold: int
    metrics: Metrics
    final_loss: float
    model: SequenceClassifier
    curve: list  # (step, lr, loss) of every step


def train_fold(model_cfg, train_cfg: TrainConfig, train_records, test_records,
               fold: int = 0) -> FoldResult:
    """Train one fold, after checking its held-out records as :func:`evaluate` does, and evaluate them."""
    if not train_records:
        raise EmptyInputError("train_fold needs at least one training record")
    _check_eval_records(test_records, model_cfg.num_classes)
    model = build_model(model_cfg, seed=train_cfg.seed)
    optimizer = Optimizer(model, train_cfg)
    n = len(train_records)
    steps_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch
    warmup_steps = train_cfg.warmup_epochs * steps_per_epoch
    augment_rng = substream(train_cfg.seed, "augment", fold)

    curve = []
    final_loss = math.nan
    step = 0
    for epoch in range(train_cfg.epochs):
        order = substream(train_cfg.seed, "shuffle", fold, epoch).permutation(n)
        for idx in _batches(n, train_cfg.batch_size):
            batch = [train_records[order[i]] for i in idx]
            lr = cosine_warmup_lr(step, total_steps, warmup_steps,
                                  train_cfg.peak_lr, train_cfg.min_lr_ratio)
            loss, _ = model.loss([rec.data for rec in batch], [rec.label for rec in batch], training=True,
                                 augment_prob=train_cfg.augment_prob, rng=augment_rng)
            loss_value = float(loss.item())
            if not math.isfinite(loss_value):
                raise TrainingDiverged(
                    f"nonfinite loss {loss_value} at step {step} (epoch {epoch}, fold {fold})")
            optimizer.zero_grad()
            backward(loss)
            optimizer.step(lr)
            curve.append((step, lr, loss_value))
            final_loss = loss_value
            step += 1

    metrics = evaluate(model, test_records, train_cfg.batch_size)
    return FoldResult(fold=fold, metrics=metrics, final_loss=final_loss,
                      model=model, curve=curve)


@dataclass
class CrossValResult:
    folds: list
    mean_ua: float
    mean_wa: float
    mean_loss: float


def cross_validate(model_cfg, train_cfg: TrainConfig, records) -> CrossValResult:
    """Leave-one-group-out: one fold per group, merged by fold index. Fewer
    than 2 groups leave a fold nothing to train on and raise ConfigError."""
    plans = assign_folds(records)
    if len(plans) < 2:
        raise ConfigError(f"leave-one-group-out needs at least 2 groups, got {len(plans)}")
    results = [train_fold(model_cfg, train_cfg,
                          [records[i] for i in plan.train_indices],
                          [records[i] for i in plan.test_indices],
                          fold=plan.fold)
               for plan in plans]
    return CrossValResult(
        folds=results,
        mean_ua=float(np.mean([r.metrics.ua for r in results])),
        mean_wa=float(np.mean([r.metrics.wa for r in results])),
        mean_loss=float(np.mean([r.final_loss for r in results])),
    )


# ---------------------------------------------------------------------------
# structured reporting
# ---------------------------------------------------------------------------

def format_metrics(result: CrossValResult) -> str:
    """One row per fold plus a mean row; fixed six-decimal formatting."""
    lines = [f"fold={r.fold} ua={r.metrics.ua:.6f} wa={r.metrics.wa:.6f} "
             f"loss={r.final_loss:.6f}" for r in result.folds]
    lines.append(f"fold=mean ua={result.mean_ua:.6f} wa={result.mean_wa:.6f} "
                 f"loss={result.mean_loss:.6f}")
    return "\n".join(lines)


def format_curves(result: CrossValResult) -> str:
    lines = []
    for r in result.folds:
        lines.extend(f"fold={r.fold} step={s} lr={lr:.6e} loss={loss:.6f}"
                     for s, lr, loss in r.curve)
    return "\n".join(lines)


def write_text(path, text: str) -> None:
    write_atomic(path, [text.encode("utf-8"), b"\n" if text else b""])
