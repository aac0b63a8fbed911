"""Feature-sequence file format, synthetic order task, and fold assignment.

The FSEQ container stores variable-length frame-feature records:

    magic   4 bytes, b"FSEQ"
    version u32 = 1
    k_cls   u32, number of classes; every label must be below it
    count   u32, number of records
    then per record:
        label u32, group u32, L u32, T u32, C u32,
        L*T*C little-endian float32 values

Every length is validated against the remaining byte count before anything
is allocated, and each malformed-input class raises its own error type so
callers can tell a wrong file apart from a damaged one.

The synthetic task probes exactly one capability: whether a model can tell
the order of two events apart. Each record carries two Gaussian bumps, one
early and one late, placed in one of two disjoint channel groups:

    class 0: group A early, group B late
    class 1: group B early, group A late
    class 2: group A twice
    class 3: group B twice

Bump-center pairs are drawn uniformly from all (early, late) positions
with a minimum gap, inside a margin. That candidate set is closed under
time reversal, so the class-1 distribution is exactly the time reversal of
class 0: any per-frame statistic pooled over time has identical
distributions for the two classes, and a model without cross-frame mixing
sits at chance on that pair. Classes 2 and 3 differ in channel content and
stay easy for any model, anchoring training.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, EmptyInputError, check_field_types
from .seeding import substream

FSEQ_MAGIC = b"FSEQ"
FSEQ_VERSION = 1


class FseqError(ValueError):
    """Base class for all feature-file format errors."""


class FseqMagicError(FseqError):
    """The file does not start with the FSEQ magic bytes."""


class FseqVersionError(FseqError):
    """The file declares an unsupported format version."""


class FseqTruncatedError(FseqError):
    """The file ends before its declared contents do."""


class FseqRecordError(FseqError):
    """A record header violates an invariant (integer fields, label range, empty dims)."""


class FseqNonFiniteError(FseqError):
    """A record payload contains NaN or infinite values."""


def _header_int(value, name: str) -> int:
    """A header field as an int: a bool or a float raises, a numpy integer converts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise FseqRecordError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FeatureSequence:
    """One labeled sequence: `data` is (layers, frames, channels) float32.

    Its fields are checked and converted when it is built, and it is frozen,
    so no later assignment can give a record a label or group that
    :func:`write_fseq` cannot write.
    """

    label: int
    group: int
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "label", _header_int(self.label, "label"))
        object.__setattr__(self, "group", _header_int(self.group, "group"))
        object.__setattr__(self, "data", np.ascontiguousarray(self.data, dtype=np.float32))
        if self.data.ndim != 3:
            raise FseqRecordError(f"record data must be (L, T, C), got shape {self.data.shape}")


def batch_layout(arrays) -> tuple[int, int]:
    """The (layers, channels) every (layers, frames, channels) array of a
    batch shares: EmptyInputError for none, DimensionError for another rank
    or a disagreement."""
    if len(arrays) == 0:
        raise EmptyInputError("a batch needs at least one record")
    for a in arrays:
        if np.ndim(a) != 3:
            raise DimensionError(
                f"features must be (batch, layers, time, channels), got a record of shape {np.shape(a)}")
        if (a.shape[0], a.shape[2]) != (arrays[0].shape[0], arrays[0].shape[2]):
            raise DimensionError(f"records disagree on layers/channels: {a.shape} "
                                 f"vs (L={arrays[0].shape[0]}, C={arrays[0].shape[2]})")
    return arrays[0].shape[0], arrays[0].shape[2]


@dataclass
class FseqFile:
    k_cls: int
    records: list


# ---------------------------------------------------------------------------
# binary I/O
# ---------------------------------------------------------------------------

def write_atomic(path, chunks) -> None:
    """Write the byte strings in `chunks` to a temporary file beside `path`,
    then rename it over `path`; on any error an existing `path` is untouched
    and the temporary file is removed."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def all_finite(a: np.ndarray) -> bool:
    """Whether a non-empty array holds no NaN or infinity.

    Its min and max are finite exactly then (both propagate NaN), and two
    reductions allocate no temporary the size of `a`.
    """
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def write_fseq(path, records, k_cls: int, gen_config=None) -> None:
    """Write records plus a JSON manifest sidecar at `<path>.manifest.json`.

    The manifest names the classes `class_0` ... `class_<k_cls-1>`. Every
    record is checked before anything is written, and each payload is
    written from the record's own buffer, not from a serialized copy.
    """
    k_cls = _header_int(k_cls, "k_cls")
    if not 1 <= k_cls < 2**32:
        raise FseqRecordError(f"k_cls must be in [1, 2**32), got {k_cls}")
    chunks = [FSEQ_MAGIC, struct.pack("<III", FSEQ_VERSION, k_cls, len(records))]
    offsets = []
    pos = 4 + 12
    for i, rec in enumerate(records):
        if not 0 <= rec.label < k_cls:
            raise FseqRecordError(f"record {i} label {rec.label} outside [0, {k_cls})")
        if not 0 <= rec.group < 2**32:
            raise FseqRecordError(f"record {i} group {rec.group} outside [0, 2**32)")
        length, t, c = rec.data.shape
        if t < 1 or length < 1 or c < 1:
            raise FseqRecordError(f"record {i} has empty dimensions {rec.data.shape}")
        if not all_finite(rec.data):
            raise FseqNonFiniteError(f"record {i} contains nonfinite values")
        offsets.append(pos)
        header = struct.pack("<5I", rec.label, rec.group, length, t, c)
        payload = memoryview(np.ascontiguousarray(rec.data, dtype="<f4")).cast("B")  # no copy
        chunks.extend([header, payload])
        pos += len(header) + len(payload)
    write_atomic(path, chunks)

    groups = sorted({rec.group for rec in records})
    manifest = {
        "k_cls": k_cls,
        "class_names": [f"class_{i}" for i in range(k_cls)],
        "num_groups": len(groups),
        "groups": groups,
        "record_count": len(records),
        "offsets": offsets,
        "gen_config": gen_config,
    }
    write_atomic(str(path) + ".manifest.json",
                 [json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"), b"\n"])


class ByteReader:
    """Bounds-checked sequential reads from a file image in memory.

    Every overrun, and any byte left over at `finish`, raises `error`, so each
    format keeps its own typed exception. `kind` names the format in messages.
    `take` returns a memoryview of the image, not a copy: callers that
    decode or compare the bytes wrap it in `bytes(...)`, and arrays made
    from it with ``np.frombuffer`` are views that keep the image alive.
    """

    def __init__(self, buf, error: type, kind: str):
        self.buf = memoryview(buf)
        self.pos = 0
        self.error = error
        self.kind = kind

    @classmethod
    def mapped(cls, path, error: type, kind: str) -> "ByteReader":
        """A reader over the file at `path`, mapped read-only rather than read.

        The map stays valid while any view of it lives, also after the file
        is replaced by a rename (as :func:`write_atomic` does); rewriting the
        file in place under a live view is not supported. An empty file,
        which cannot be mapped, reads as no bytes, so its first read raises
        `error` as any truncated file does.
        """
        with open(path, "rb") as f:
            if os.fstat(f.fileno()).st_size == 0:
                return cls(b"", error, kind)
            return cls(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ), error, kind)

    def take(self, n: int, what: str) -> memoryview:
        if n < 0 or self.pos + n > len(self.buf):
            raise self.error(
                f"{self.kind} truncated inside {what}: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def finish(self, after: str) -> None:
        if self.pos != len(self.buf):
            raise self.error(f"{len(self.buf) - self.pos} trailing bytes after {after}")


def read_fseq(path) -> FseqFile:
    """Parse an FSEQ file; every record keeps all of its frames.

    The file is mapped, not read: each record's `data` is a read-only view
    of the map (payloads are float32-aligned), so the records take file
    pages, which the system can drop and reread, rather than a copy.
    """
    cur = ByteReader.mapped(path, FseqTruncatedError, "FSEQ file")
    if bytes(cur.take(4, "magic")) != FSEQ_MAGIC:
        raise FseqMagicError("not an FSEQ file (bad magic)")
    version = cur.u32("version")
    if version != FSEQ_VERSION:
        raise FseqVersionError(f"unsupported FSEQ version {version}")
    k_cls = cur.u32("header")
    if k_cls < 1:
        raise FseqRecordError(f"k_cls must be at least 1, got {k_cls}")
    count = cur.u32("header")
    records = []
    for i in range(count):
        label, group, length, t, c = struct.unpack("<5I", cur.take(20, f"record {i} header"))
        if label >= k_cls:
            raise FseqRecordError(f"record {i} label {label} outside [0, {k_cls})")
        if length < 1 or t < 1 or c < 1:
            raise FseqRecordError(f"record {i} has empty dimensions ({length}, {t}, {c})")
        n_bytes = 4 * length * t * c
        payload = cur.take(n_bytes, f"record {i} payload")
        data = np.frombuffer(payload, dtype="<f4").reshape(length, t, c)
        if not all_finite(data):
            raise FseqNonFiniteError(f"record {i} contains nonfinite values")
        records.append(FeatureSequence(label=int(label), group=int(group), data=data))
    cur.finish("last record")
    return FseqFile(k_cls=k_cls, records=records)


# ---------------------------------------------------------------------------
# synthetic order task
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenConfig:
    num_classes: int = 4
    num_layers: int = 1
    channels: int = 64
    frames: int = 50
    groups: int = 5
    per_class_per_group: int = 40
    # Envelope/noise defaults are tuned so one frame of channel mingling
    # carries a learnable order signal at this sequence length: bumps wide
    # enough to overlap across the minimum gap, centers kept away from the
    # edges so typical gaps stay near that minimum.
    noise_sigma: float = 0.25
    amplitude: float = 3.0
    bump_width: float = 7.0
    min_gap: int = 8
    margin: int = 14
    group_a_start: int = 0
    group_b_start: int = 8
    group_width: int = 8

    def __post_init__(self):
        check_field_types(self)
        if self.num_classes != 4:
            raise ConfigError(f"the order task defines exactly 4 classes, got {self.num_classes}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be at least 1, got {self.num_layers}")
        if self.groups < 1 or self.per_class_per_group < 0:
            raise ConfigError("groups must be positive and per_class_per_group non-negative")
        # chained comparisons are false for NaN, so this rejects it too
        if not (0 <= self.noise_sigma < math.inf and 0 < self.bump_width < math.inf):
            raise ConfigError("noise_sigma must be non-negative and bump_width positive, both finite")
        if not math.isfinite(self.amplitude):
            raise ConfigError(f"amplitude must be finite, got {self.amplitude}")
        if self.group_width < 1:
            raise ConfigError(f"group_width must be at least 1, got {self.group_width}")
        a = range(self.group_a_start, self.group_a_start + self.group_width)
        b = range(self.group_b_start, self.group_b_start + self.group_width)
        if a.start < 0 or b.start < 0 or a.stop > self.channels or b.stop > self.channels:
            raise ConfigError(
                f"channel groups [{a.start}, {a.stop}) and [{b.start}, {b.stop}) "
                f"must lie within {self.channels} channels")
        if set(a) & set(b):
            raise ConfigError(f"channel groups [{a.start}, {a.stop}) and [{b.start}, {b.stop}) overlap")
        if self.min_gap < 1 or self.margin < 0:
            raise ConfigError("min_gap must be positive and margin non-negative")
        if not valid_bump_pairs(self):
            raise ConfigError(
                f"no valid bump placements: frames={self.frames} cannot hold two bumps "
                f"with margin {self.margin} and gap {self.min_gap}")


def valid_bump_pairs(gcfg: GenConfig) -> list:
    """All (early, late) center pairs the generator samples from.

    The set is closed under time reversal (e, l) -> (T-1-l, T-1-e), which
    is what makes class 1 the exact time reversal of class 0.
    """
    lo, hi = gcfg.margin, gcfg.frames - 1 - gcfg.margin
    return [(e, l) for e in range(lo, hi + 1) for l in range(lo, hi + 1)
            if l - e >= gcfg.min_gap]


def _class_channel_groups(gcfg: GenConfig, label: int) -> tuple:
    a = (gcfg.group_a_start, gcfg.group_a_start + gcfg.group_width)
    b = (gcfg.group_b_start, gcfg.group_b_start + gcfg.group_width)
    return {0: (a, b), 1: (b, a), 2: (a, a), 3: (b, b)}[label]


def render_record(gcfg: GenConfig, label: int, t_early: int, t_late: int,
                  rng=None) -> np.ndarray:
    """Render one record's (L, T, C) array; `rng` adds background noise.

    The early bump goes in the class's first channel group, the late bump
    in its second. Envelopes are untruncated Gaussians, so swapping which
    group holds which bump preserves the multiset of frames whenever the
    two centers mirror each other about the sequence midpoint.
    """
    if not 0 <= label < 4:
        raise ConfigError(f"label must be in [0, 4), got {label}")
    if not (0 <= t_early < gcfg.frames and 0 <= t_late < gcfg.frames):
        raise ConfigError(f"bump centers ({t_early}, {t_late}) outside [0, {gcfg.frames})")
    out = np.zeros((gcfg.num_layers, gcfg.frames, gcfg.channels), dtype=np.float32)
    t_axis = np.arange(gcfg.frames, dtype=np.float64)
    (early_group, late_group) = _class_channel_groups(gcfg, label)
    for center, (start, stop) in ((t_early, early_group), (t_late, late_group)):
        envelope = gcfg.amplitude * np.exp(-0.5 * ((t_axis - center) / gcfg.bump_width) ** 2)
        out[:, :, start:stop] += envelope.astype(np.float32)[None, :, None]
    if rng is not None and gcfg.noise_sigma > 0:
        out += rng.normal(0.0, gcfg.noise_sigma, out.shape).astype(np.float32)
    return out


def gen_synthetic(gcfg: GenConfig, seed: int) -> FseqFile:
    """Generate the full dataset; each record has its own RNG substream."""
    pairs = valid_bump_pairs(gcfg)
    records = []
    for g in range(gcfg.groups):
        for cls in range(gcfg.num_classes):
            for j in range(gcfg.per_class_per_group):
                rng = substream(seed, "datagen", g, cls, j)
                t_early, t_late = pairs[int(rng.integers(len(pairs)))]
                data = render_record(gcfg, cls, t_early, t_late, rng=rng)
                records.append(FeatureSequence(label=cls, group=g, data=data))
    return FseqFile(k_cls=gcfg.num_classes, records=records)


# ---------------------------------------------------------------------------
# leave-one-group-out folds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    fold: int
    test_group: int
    train_indices: tuple
    test_indices: tuple


def assign_folds(records) -> list:
    """Leave-one-group-out: one fold per distinct group id, so the fold
    count is the group count. Fold i holds out the i-th smallest group id."""
    if not records:
        raise ConfigError("cannot assign folds over an empty record list")
    groups = sorted({rec.group for rec in records})
    plans = []
    for fold, test_group in enumerate(groups):
        test = tuple(i for i, rec in enumerate(records) if rec.group == test_group)
        train = tuple(i for i, rec in enumerate(records) if rec.group != test_group)
        plans.append(FoldPlan(fold=fold, test_group=test_group,
                              train_indices=train, test_indices=test))
    return plans
