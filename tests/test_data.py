"""FSEQ format, synthetic order task, and fold assignment."""

import dataclasses
import errno
import itertools
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import shiftseq.data
from shiftseq.blocks import build_model, preset_config, save_checkpoint
from shiftseq.data import (
    ByteReader,
    FeatureSequence,
    FseqMagicError,
    FseqNonFiniteError,
    FseqRecordError,
    FseqTruncatedError,
    FseqVersionError,
    GenConfig,
    assign_folds,
    gen_synthetic,
    read_fseq,
    render_record,
    valid_bump_pairs,
    write_atomic,
    write_fseq,
)
from shiftseq.errors import ConfigError, check_config_dict
from shiftseq.seeding import substream
from shiftseq.train import write_text


def random_records(rng, n=6):
    out = []
    for _ in range(n):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 9)), int(rng.integers(1, 7)))
        out.append(FeatureSequence(label=int(rng.integers(0, 3)),
                                   group=int(rng.integers(0, 4)),
                                   data=rng.standard_normal(shape).astype(np.float32)))
    return out


def tiny_gen_cfg(**kw):
    # bump_width pinned so the two bumps stay distinct at 30 frames
    base = dict(channels=16, frames=30, groups=3, per_class_per_group=4,
                min_gap=6, margin=6, bump_width=3.0, group_b_start=8,
                group_width=8)
    base.update(kw)
    return GenConfig(**base)


# ---------------------------------------------------------------------------
# binary round trip
# ---------------------------------------------------------------------------

def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = random_records(rng)
    path = tmp_path / "set.fseq"
    write_fseq(path, records, k_cls=3)
    loaded = read_fseq(path)
    assert loaded.k_cls == 3
    assert len(loaded.records) == len(records)
    for a, b in zip(records, loaded.records):
        assert (a.label, a.group) == (b.label, b.group)
        assert b.data.dtype == np.float32
        np.testing.assert_array_equal(a.data, b.data)
    # writing the parsed records again reproduces the identical file
    path2 = tmp_path / "again.fseq"
    write_fseq(path2, loaded.records, k_cls=3)
    assert path.read_bytes() == path2.read_bytes()


def test_empty_file_round_trips(tmp_path):
    path = tmp_path / "empty.fseq"
    write_fseq(path, [], k_cls=4)
    loaded = read_fseq(path)
    assert loaded.k_cls == 4
    assert loaded.records == []


def test_manifest_sidecar(tmp_path):
    rng = np.random.default_rng(1)
    records = random_records(rng, n=5)
    path = tmp_path / "set.fseq"
    write_fseq(path, records, k_cls=3, gen_config={"frames": 30})
    manifest = json.loads((tmp_path / "set.fseq.manifest.json").read_text())
    assert manifest["k_cls"] == 3
    assert manifest["class_names"] == ["class_0", "class_1", "class_2"]
    assert manifest["record_count"] == 5
    assert manifest["gen_config"] == {"frames": 30}
    offsets = manifest["offsets"]
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    # each offset points at that record's header
    raw = path.read_bytes()
    for rec, off in zip(records, offsets):
        label = int.from_bytes(raw[off:off + 4], "little")
        assert label == rec.label


def reference_fseq(records, k_cls: int) -> bytes:
    """The FSEQ layout serialized with `.tobytes()`, one record at a time."""
    parts = [b"FSEQ", struct.pack("<III", 1, k_cls, len(records))]
    for rec in records:
        parts += [struct.pack("<5I", rec.label, rec.group, *rec.data.shape),
                  rec.data.astype("<f4").tobytes()]
    return b"".join(parts)


def test_write_fseq_writes_each_records_own_bytes(tmp_path):
    records = random_records(np.random.default_rng(4), n=7)
    write_fseq(tmp_path / "set.fseq", records, k_cls=3)
    assert (tmp_path / "set.fseq").read_bytes() == reference_fseq(records, 3)


def test_write_fseq_keeps_no_serialized_copy(tmp_path):
    rng = np.random.default_rng(5)
    records = [FeatureSequence(i % 3, 0, rng.standard_normal((4, 200, 64), dtype=np.float32))
               for i in range(8)]
    tracemalloc.start()
    try:
        write_fseq(tmp_path / "set.fseq", records, k_cls=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(rec.data.nbytes for rec in records) / 10


def test_read_fseq_records_are_read_only_views_of_the_mapped_file(tmp_path):
    path = tmp_path / "set.fseq"
    records = random_records(np.random.default_rng(6))
    write_fseq(path, records, k_cls=3)
    loaded = read_fseq(path)
    for rec in loaded.records:
        flags = rec.data.flags
        assert rec.data.dtype == np.float32 and flags.aligned and flags.c_contiguous
        assert not flags.writeable and not flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            rec.data[0, 0, 0] = 1.0
    # replacing the file, as write_fseq does by a rename, leaves the views intact
    write_fseq(path, random_records(np.random.default_rng(7)), k_cls=3)
    for a, b in zip(records, loaded.records):
        np.testing.assert_array_equal(a.data, b.data)


# reads an FSEQ file and touches every payload, then prints how much the
# process's anonymous (not file-backed) resident memory grew, in kB
RSS_PROBE = """
import sys
import numpy as np
from shiftseq.data import read_fseq

def rss_anon_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("RssAnon:"))

before = rss_anon_kb()
records = read_fseq(sys.argv[1]).records
total = sum(float(rec.data.sum(dtype=np.float64)) for rec in records)
print(rss_anon_kb() - before)
"""


def test_read_fseq_maps_the_file_instead_of_copying_it(tmp_path):
    """A fresh process, so that the freed memory of earlier tests cannot
    hide a copy; /proc/self/status splits resident memory into anonymous
    pages (copies) and file pages (the map, which the system can drop)."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    rng = np.random.default_rng(8)
    path = tmp_path / "big.fseq"
    write_fseq(path, [FeatureSequence(i % 3, 0, rng.standard_normal((13, 80, 768), dtype=np.float32))
                      for i in range(10)], k_cls=3)
    size = path.stat().st_size
    assert size > 30 * 2 ** 20
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftseq.data.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 < size / 10


# ---------------------------------------------------------------------------
# malformed files
# ---------------------------------------------------------------------------

def test_empty_file_is_truncated(tmp_path):
    path = tmp_path / "empty.fseq"
    path.write_bytes(b"")
    with pytest.raises(FseqTruncatedError, match="truncated inside magic"):
        read_fseq(path)


def write_valid(tmp_path):
    path = tmp_path / "set.fseq"
    write_fseq(path, random_records(np.random.default_rng(3), n=3), k_cls=3)
    return path, bytearray(path.read_bytes())


def test_bad_magic(tmp_path):
    path, raw = write_valid(tmp_path)
    raw[:4] = b"WAVE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FseqMagicError):
        read_fseq(path)


def test_bad_version(tmp_path):
    path, raw = write_valid(tmp_path)
    raw[4:8] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FseqVersionError):
        read_fseq(path)


def test_truncated_payload(tmp_path):
    path, raw = write_valid(tmp_path)
    path.write_bytes(bytes(raw[:-6]))
    with pytest.raises(FseqTruncatedError):
        read_fseq(path)


def test_trailing_bytes(tmp_path):
    path, raw = write_valid(tmp_path)
    path.write_bytes(bytes(raw) + b"\x01")
    with pytest.raises(FseqTruncatedError):
        read_fseq(path)


def test_byte_reader_bounds_and_trailing_bytes():
    class Corrupt(ValueError):
        pass

    reader = ByteReader(b"\x01\x00\x00\x00ab", Corrupt, "test file")
    assert reader.u32("header") == 1
    with pytest.raises(Corrupt, match="truncated inside payload"):
        reader.take(3, "payload")
    with pytest.raises(Corrupt, match="truncated"):
        reader.take(-1, "payload")
    with pytest.raises(Corrupt, match="2 trailing bytes"):
        reader.finish("header")
    assert reader.take(2, "payload") == b"ab"
    reader.finish("payload")


def test_label_out_of_range(tmp_path):
    path, raw = write_valid(tmp_path)
    raw[8:12] = (1).to_bytes(4, "little")  # lower k_cls below existing labels
    path.write_bytes(bytes(raw))
    with pytest.raises(FseqRecordError):
        read_fseq(path)


def test_nonfinite_payload(tmp_path):
    path, raw = write_valid(tmp_path)
    raw[36:40] = np.float32(np.nan).tobytes()  # first float of first record
    path.write_bytes(bytes(raw))
    with pytest.raises(FseqNonFiniteError):
        read_fseq(path)


def test_write_side_validation(tmp_path):
    good = np.zeros((1, 2, 2), dtype=np.float32)
    with pytest.raises(FseqRecordError):
        write_fseq(tmp_path / "a.fseq", [FeatureSequence(5, 0, good)], k_cls=3)
    bad = good.copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(FseqNonFiniteError):
        write_fseq(tmp_path / "b.fseq", [FeatureSequence(0, 0, bad)], k_cls=3)
    with pytest.raises(FseqRecordError):
        FeatureSequence(0, 0, np.zeros((2, 2), dtype=np.float32))


@pytest.mark.parametrize("k_cls, group", [(2**32, 0), (3, 2**32)])
def test_write_fseq_rejects_header_values_beyond_u32(tmp_path, k_cls, group):
    rec = FeatureSequence(0, group, np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(FseqRecordError, match=r"2\*\*32"):
        write_fseq(tmp_path / "a.fseq", [rec], k_cls=k_cls)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label, group", [
    (1.5, 0), (0, 2.5), (0, np.float64(2.0)), (True, 0), (0, False), (np.True_, 0)],
    ids=["float-label", "float-group", "np-float-group", "bool-label", "bool-group", "np-bool-label"])
def test_record_header_fields_must_be_integers(label, group):
    """A float or bool label or group raises: unchecked, a 1.5 label trained as
    class 1, True was written as 1, and a float escaped write_fseq as struct.error."""
    with pytest.raises(FseqRecordError, match="must be an integer"):
        FeatureSequence(label, group, np.zeros((1, 2, 2), dtype=np.float32))


@pytest.mark.parametrize("field, value", [("label", 1.5), ("label", True), ("group", 2.5),
                                          ("data", np.zeros((2, 2), dtype=np.float32))])
def test_record_fields_cannot_be_assigned_after_construction(tmp_path, field, value):
    """A record is frozen: a float label set afterwards once made write_fseq
    fail with a bare struct.error, and a True label was written as 1."""
    rec = FeatureSequence(1, 0, np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, field, value)
        write_fseq(tmp_path / "a.fseq", [rec], k_cls=3)
    assert list(tmp_path.iterdir()) == []
    assert (rec.label, rec.group, rec.data.shape) == (1, 0, (1, 2, 2))


def test_record_header_fields_accept_numpy_integers(tmp_path):
    rec = FeatureSequence(np.int64(2), np.uint32(3), np.zeros((1, 2, 2), dtype=np.float32))
    assert (rec.label, rec.group) == (2, 3)
    assert type(rec.label) is int and type(rec.group) is int
    write_fseq(tmp_path / "a.fseq", [rec], k_cls=np.int64(4))
    loaded = read_fseq(tmp_path / "a.fseq")
    assert loaded.k_cls == 4 and (loaded.records[0].label, loaded.records[0].group) == (2, 3)
    assert json.loads((tmp_path / "a.fseq.manifest.json").read_text())["k_cls"] == 4


@pytest.mark.parametrize("k_cls", [3.0, 2.5, True, np.float64(3.0)], ids=["float", "fraction", "bool", "np-float"])
def test_write_fseq_rejects_a_non_integer_k_cls(tmp_path, k_cls):
    rec = FeatureSequence(0, 0, np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(FseqRecordError, match="k_cls must be an integer"):
        write_fseq(tmp_path / "a.fseq", [rec], k_cls=k_cls)
    assert list(tmp_path.iterdir()) == []


def test_declared_size_larger_than_file_is_rejected_before_allocation(tmp_path):
    path, raw = write_valid(tmp_path)
    # claim a gigantic time axis in the first record header
    raw[24:28] = (2 ** 31).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FseqTruncatedError):
        read_fseq(path)


# ---------------------------------------------------------------------------
# generator config
# ---------------------------------------------------------------------------

def test_gen_config_rejects_overlapping_groups():
    with pytest.raises(ConfigError, match="overlap"):
        tiny_gen_cfg(group_b_start=4)


def test_gen_config_rejects_groups_outside_channels():
    with pytest.raises(ConfigError):
        tiny_gen_cfg(group_b_start=12)   # [12, 20) exceeds 16 channels


def test_gen_config_rejects_impossible_placement():
    with pytest.raises(ConfigError, match="placements"):
        tiny_gen_cfg(frames=18)          # margins leave no room for the gap


@pytest.mark.parametrize("raw", [
    {"frames": "50"}, {"channels": 16.0}, {"noise_sigma": "0.1"}, {"groups": False},
    # JSON's NaN and Infinity parse to floats; the generator needs finite ones
    *({key: value} for key in ("noise_sigma", "amplitude", "bump_width")
      for value in (float("nan"), float("inf"))),
    {"amplitude": float("-inf")},
])
def test_gen_config_from_dict_rejects_mistyped_values(raw):
    with pytest.raises(ConfigError, match=next(iter(raw))):
        GenConfig(**check_config_dict(raw, GenConfig, "data"))


@pytest.mark.parametrize("frames", [1, 2, 7, 13, 14, 20, 31])
def test_bump_pair_decodes_every_index_of_the_pair_list(frames):
    """A config builds exactly when `valid_bump_pairs` is non-empty, and the
    generator's decode of a drawn index is the list's entry there."""
    for margin, min_gap in itertools.product(range(7), range(1, 8)):
        fields = dict(frames=frames, margin=margin, min_gap=min_gap)
        pairs = valid_bump_pairs(SimpleNamespace(**fields))
        if not pairs:
            with pytest.raises(ConfigError, match="placements"):
                tiny_gen_cfg(**fields)
            continue
        gcfg = tiny_gen_cfg(**fields)
        assert [shiftseq.data._bump_pair(gcfg, k) for k in range(len(pairs))] == pairs


def test_gen_config_checks_placement_without_listing_pairs():
    """The pair list holds about frames**2 / 2 entries; the check needs none.
    1,000 frames come first: their list alone would take tens of MB."""
    for frames in (1_000, 100_000):
        tracemalloc.start()
        try:
            GenConfig(frames=frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, frames


def test_gen_config_rejects_wrong_class_count():
    with pytest.raises(ConfigError):
        tiny_gen_cfg(num_classes=3)


def test_valid_pairs_respect_margin_and_gap_and_reflection():
    gcfg = tiny_gen_cfg()
    pairs = valid_bump_pairs(gcfg)
    assert pairs
    hi = gcfg.frames - 1 - gcfg.margin
    for e, l in pairs:
        assert gcfg.margin <= e <= hi and gcfg.margin <= l <= hi
        assert l - e >= gcfg.min_gap
    # closure under time reversal is what hides order from pooled statistics
    reflected = {(gcfg.frames - 1 - l, gcfg.frames - 1 - e) for e, l in pairs}
    assert reflected == set(pairs)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_zero_amplitude_zero_noise_is_all_zero():
    gcfg = tiny_gen_cfg(amplitude=0.0, noise_sigma=0.0)
    data = render_record(gcfg, 0, 8, 20, rng=np.random.default_rng(0))
    assert np.array_equal(data, np.zeros_like(data))


def test_render_places_bumps_in_class_channel_groups():
    gcfg = tiny_gen_cfg(noise_sigma=0.0)
    expectations = {0: ("a", "b"), 1: ("b", "a"), 2: ("a", "a"), 3: ("b", "b")}
    spans = {"a": slice(0, 8), "b": slice(8, 16)}
    for label, (early, late) in expectations.items():
        data = render_record(gcfg, label, 8, 20)[0]  # (T, C)
        by_group = {g: data[:, spans[g]].mean(axis=1) for g in "ab"}
        if early == late:
            peaks = sorted(np.argsort(by_group[early])[-2:])
            other = "b" if early == "a" else "a"
            assert np.allclose(by_group[other], 0.0)
        else:
            assert int(np.argmax(by_group[early])) == 8
            assert int(np.argmax(by_group[late])) == 20
            continue
        # two-bump-in-one-group classes peak at both centers
        assert abs(peaks[0] - 8) <= 1 and abs(peaks[1] - 20) <= 1


def test_render_rejects_bad_arguments():
    gcfg = tiny_gen_cfg()
    with pytest.raises(ConfigError):
        render_record(gcfg, 4, 8, 20)
    with pytest.raises(ConfigError):
        render_record(gcfg, 0, -1, 20)
    with pytest.raises(ConfigError):
        render_record(gcfg, 0, 8, gcfg.frames)


def test_swapped_bump_times_preserve_frame_multiset():
    """With no noise and mirrored centers, classes 0 and 1 share the exact
    multiset of frame vectors; only the frame ORDER distinguishes them."""
    gcfg = tiny_gen_cfg(noise_sigma=0.0)
    e = 8
    l = gcfg.frames - 1 - e
    r0 = render_record(gcfg, 0, e, l)[0]
    r1 = render_record(gcfg, 1, e, l)[0]
    assert not np.array_equal(r0, r1)
    sort0 = r0[np.lexsort(r0.T)]
    sort1 = r1[np.lexsort(r1.T)]
    np.testing.assert_array_equal(sort0, sort1)


# ---------------------------------------------------------------------------
# full generation
# ---------------------------------------------------------------------------

def test_gen_synthetic_is_deterministic(tmp_path):
    gcfg = tiny_gen_cfg()
    a = gen_synthetic(gcfg, seed=11)
    b = gen_synthetic(gcfg, seed=11)
    c = gen_synthetic(gcfg, seed=12)
    pa, pb, pc = (tmp_path / n for n in ("a.fseq", "b.fseq", "c.fseq"))
    for f, p in ((a, pa), (b, pb), (c, pc)):
        write_fseq(p, f.records, f.k_cls)
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.read_bytes() != pc.read_bytes()


@pytest.mark.parametrize("bad", [-1, np.int64(-2), 1.5, True, np.float64(1.0), "1", None])
def test_substream_rejects_a_seed_or_index_that_is_not_a_count(bad):
    """A bool or float is not silently read as the seed it truncates to."""
    with pytest.raises(ConfigError, match="non-negative integers"):
        substream(bad, "init")
    with pytest.raises(ConfigError, match="non-negative integers"):
        substream(0, "shuffle", 0, bad)


def test_substream_takes_numpy_integers():
    np.testing.assert_array_equal(substream(np.int64(3), "shuffle", np.int32(1), np.uint8(2)).random(4),
                                  substream(3, "shuffle", 1, 2).random(4))


def test_negative_seeds_raise_config_error_from_the_api():
    with pytest.raises(ConfigError, match="got -1"):
        gen_synthetic(GenConfig(), seed=-1)
    with pytest.raises(ConfigError, match="got -1"):
        build_model(preset_config("cnn", width=16), seed=-1)


def test_gen_synthetic_places_each_record_at_its_drawn_pair():
    gcfg = tiny_gen_cfg(groups=2, per_class_per_group=2)
    pairs = valid_bump_pairs(gcfg)
    records = iter(gen_synthetic(gcfg, seed=4).records)
    for g, cls, j in itertools.product(range(2), range(4), range(2)):
        rng = substream(4, "datagen", g, cls, j)
        early, late = pairs[int(rng.integers(len(pairs)))]
        np.testing.assert_array_equal(next(records).data, render_record(gcfg, cls, early, late, rng=rng))


@pytest.mark.parametrize("per_class_per_group", [0, 1])
@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_gen_synthetic_checks_its_seed_whatever_it_draws(per_class_per_group, seed):
    """A config that asks for no records draws nothing, yet rejects the same seeds."""
    with pytest.raises(ConfigError, match="non-negative integers"):
        gen_synthetic(tiny_gen_cfg(per_class_per_group=per_class_per_group), seed=seed)


def test_gen_synthetic_counts_and_ranges():
    gcfg = tiny_gen_cfg()
    out = gen_synthetic(gcfg, seed=0)
    assert out.k_cls == 4
    assert len(out.records) == gcfg.groups * 4 * gcfg.per_class_per_group
    for rec in out.records:
        assert 0 <= rec.label < 4
        assert 0 <= rec.group < gcfg.groups
        assert rec.data.shape == (1, gcfg.frames, gcfg.channels)
        assert np.all(np.isfinite(rec.data))
    counts = {}
    for rec in out.records:
        counts[(rec.group, rec.label)] = counts.get((rec.group, rec.label), 0) + 1
    assert all(v == gcfg.per_class_per_group for v in counts.values())


def test_pooled_linear_probe_cannot_separate_classes_0_and_1():
    """Mean-pooled features carry no order signal: a logistic probe trained
    to convergence stays near chance on the {0, 1} pair (mean over all
    held-out groups, so single-fold binomial noise averages out)."""
    out = gen_synthetic(GenConfig(), seed=0)
    pooled, labels, groups = [], [], []
    for rec in out.records:
        if rec.label in (0, 1):
            pooled.append(rec.data[0].mean(axis=0))
            labels.append(rec.label)
            groups.append(rec.group)
    x = np.array(pooled, dtype=np.float64)
    y = np.array(labels, dtype=np.float64)
    g = np.array(groups)
    x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-8)
    accs = []
    for hold_out in range(5):
        train, test = g != hold_out, g == hold_out
        w = np.zeros(x.shape[1])
        b = 0.0
        for _ in range(2000):
            p = 1.0 / (1.0 + np.exp(-(x[train] @ w + b)))
            err = p - y[train]
            w -= 0.1 * (x[train].T @ err / err.size)
            b -= 0.1 * err.mean()
        accs.append(np.mean(((x[test] @ w + b) > 0) == y[test]))
    mean_acc = float(np.mean(accs))
    assert 0.40 <= mean_acc <= 0.55, accs


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def test_folds_partition_records():
    out = gen_synthetic(tiny_gen_cfg(), seed=0)
    plans = assign_folds(out.records)
    assert len(plans) == 3
    all_test = sorted(i for p in plans for i in p.test_indices)
    assert all_test == list(range(len(out.records)))
    for p in plans:
        assert not set(p.train_indices) & set(p.test_indices)
        assert sorted(p.train_indices + p.test_indices) == list(range(len(out.records)))
        assert {out.records[i].group for i in p.test_indices} == {p.test_group}
        assert p.test_group not in {out.records[i].group for i in p.train_indices}


def test_fold_for_specific_group():
    out = gen_synthetic(tiny_gen_cfg(), seed=0)
    target = next(i for i, r in enumerate(out.records) if r.group == 2)
    plans = assign_folds(out.records)
    holders = [p.fold for p in plans if target in p.test_indices]
    assert holders == [2]


def test_per_fold_class_counts_match_generation():
    gcfg = tiny_gen_cfg()
    out = gen_synthetic(gcfg, seed=0)
    for p in assign_folds(out.records):
        per_class = {}
        for i in p.test_indices:
            per_class[out.records[i].label] = per_class.get(out.records[i].label, 0) + 1
        assert per_class == {c: gcfg.per_class_per_group for c in range(4)}


def test_assign_folds_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        assign_folds([])


def test_generated_set_round_trips_with_config_echo(tmp_path):
    gcfg = tiny_gen_cfg()
    out = gen_synthetic(gcfg, seed=5)
    path = tmp_path / "syn.fseq"
    write_fseq(path, out.records, out.k_cls, gen_config=dataclasses.asdict(gcfg))
    loaded = read_fseq(path)
    for a, b in zip(out.records, loaded.records):
        np.testing.assert_array_equal(a.data, b.data)
    manifest = json.loads((tmp_path / "syn.fseq.manifest.json").read_text())
    assert manifest["gen_config"]["frames"] == gcfg.frames
    assert manifest["num_groups"] == gcfg.groups


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

class DiskFullAfterOneWrite:
    """A binary file that takes one write, then fails as a full disk would."""

    def __init__(self, path, mode):
        self.f = open(path, mode)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, chunk):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(chunk)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_write_atomic_failure_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def chunks():
        yield b"half of the "
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        write_atomic(path, chunks())
    assert snapshot(tmp_path) == {"out.bin": b"old"}


def _save_checkpoint(path, version):
    save_checkpoint(path, build_model(preset_config("cnn", width=8, num_input_layers=1),
                                      seed=version))


def _write_fseq(path, version):
    write_fseq(path, random_records(np.random.default_rng(version)), 3)


def _write_text(path, version):
    write_text(path, f"version {version}")


@pytest.mark.parametrize("writer", [_save_checkpoint, _write_fseq, _write_text])
def test_write_failing_partway_leaves_old_output(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    writer(path, 0)
    before = snapshot(tmp_path)
    monkeypatch.setattr(shiftseq.data, "open", DiskFullAfterOneWrite, raising=False)
    with pytest.raises(OSError, match="No space"):
        writer(path, 1)
    assert snapshot(tmp_path) == before
    monkeypatch.undo()
    writer(path, 1)
    assert snapshot(tmp_path).keys() == before.keys()
    assert snapshot(tmp_path)[path.name] != before[path.name]
