"""FSEQ format, synthetic order task, and fold assignment."""

import dataclasses
import errno
import json

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
    gen_config_from_dict,
    gen_synthetic,
    read_fseq,
    render_record,
    valid_bump_pairs,
    write_atomic,
    write_fseq,
)
from shiftseq.errors import ConfigError
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


# ---------------------------------------------------------------------------
# malformed files
# ---------------------------------------------------------------------------

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
        gen_config_from_dict(raw)


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
