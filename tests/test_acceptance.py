"""Acceptance gate: one test per release criterion.

Each test prints a single `CRITERION <n> PASS/FAIL` line (visible under
`pytest -s`) and asserts the same condition, so the suite doubles as a
human-readable checklist and a hard gate. Every numeric claim is checked
against an oracle written independently of the implementation: an index
loop for the shift, closed-form arithmetic for parameter counts, a
from-scratch recomputation for metrics, and finite differences for
gradients.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from shiftseq.accounting import count_flops, count_params
from shiftseq.blocks import build_model, preset_config
from shiftseq.cli import main
from shiftseq.data import (
    FeatureSequence,
    FseqError,
    GenConfig,
    assign_folds,
    gen_synthetic,
    read_fseq,
    write_fseq,
)
from shiftseq.shift import ShiftConfig, temporal_shift
from shiftseq.tensor_autograd import Tensor, linear
from shiftseq.train import (
    TrainConfig,
    compute_metrics,
    pair_recall_average,
    predict_logits,
    train_fold,
)
from shiftseq.verification import run_grad_suite


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. shift oracle equivalence
# ---------------------------------------------------------------------------

def shift_oracle(x: np.ndarray, alpha: float, direction: str) -> np.ndarray:
    """Naive per-element reimplementation of the shift, loops only."""
    batch, frames, channels = x.shape
    total = math.floor(alpha * channels)
    fwd = total if direction == "unidirectional" else (total + 1) // 2
    out = np.zeros_like(x)
    for n in range(batch):
        for t in range(frames):
            for c in range(channels):
                if c < fwd:
                    if t - 1 >= 0:
                        out[n, t, c] = x[n, t - 1, c]
                elif c < total:
                    if t + 1 < frames:
                        out[n, t, c] = x[n, t + 1, c]
                else:
                    out[n, t, c] = x[n, t, c]
    return out


def test_criterion_1_shift_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    cases = 0
    for batch in (1, 2):
        for frames in range(1, 7):
            for channels in range(1, 9):
                for alpha in (1 / 2, 1 / 4, 1 / 8, 1 / 16):
                    if math.floor(alpha * channels) < 1:
                        continue
                    for direction in ("unidirectional", "bidirectional"):
                        x = rng.standard_normal(
                            (batch, frames, channels)).astype(np.float32)
                        cfg = ShiftConfig(alpha=alpha, direction=direction)
                        got = temporal_shift(Tensor(x), cfg).data
                        want = shift_oracle(x, alpha, direction)
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want), \
                            f"mismatch at {(batch, frames, channels, alpha, direction)}"
                        cases += 1
    elapsed = time.perf_counter() - start
    _report(1, cases > 0 and elapsed < 1.0,
            f"{cases} shapes bit-identical to the loop oracle in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. zero-cost proof
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def preset_models():
    """Full-width preset instances, built once; the timed sections below
    cover the cost accounting itself, not weight initialization."""
    shiftcnn_inplace = preset_config("shiftcnn")
    shiftcnn_inplace = dataclasses.replace(
        shiftcnn_inplace,
        shift=dataclasses.replace(shiftcnn_inplace.shift, placement="in_place"))
    named = {"shiftcnn-in-place": shiftcnn_inplace}
    for name in ("shiftcnn", "cnn", "shiftformer", "transformer",
                 "shiftlstm", "lstm"):
        named[name] = preset_config(name)
    return {name: build_model(cfg, seed=0) for name, cfg in named.items()}


def test_criterion_2_zero_cost(preset_models):
    start = time.perf_counter()
    pairs = {
        "shiftcnn-in-place vs cnn": (preset_models["shiftcnn-in-place"],
                                     preset_models["cnn"]),
        "shiftlstm vs lstm": (preset_models["shiftlstm"],
                              preset_models["lstm"]),
    }
    for label, (shifted, plain) in pairs.items():
        assert count_params(shifted).total_params == count_params(plain).total_params, label
        for frames in (1, 10, 100):
            a = count_flops(shifted, frames)
            b = count_flops(plain, frames)
            assert a.total_flops == b.total_flops, (label, frames)
            assert a.total_ew_flops == b.total_ew_flops, (label, frames)

    former = count_params(preset_models["shiftformer"])
    trans = count_params(preset_models["transformer"])
    attention_group = sum(e.params for e in trans.entries
                          if e.name.endswith(".attn"))
    deficit = trans.total_params - former.total_params
    assert attention_group > 0
    assert deficit == attention_group, (deficit, attention_group)
    elapsed = time.perf_counter() - start
    _report(2, elapsed < 1.0,
            f"shift presets cost-identical to hosts; shiftformer deficit "
            f"{deficit} == attention group; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. parameter totals anchor
# ---------------------------------------------------------------------------

def test_criterion_3_parameter_anchors(preset_models):
    cnn_report = count_params(preset_models["shiftcnn"])
    cnn_blocks = sum(e.params for e in cnn_report.entries
                     if e.name.startswith("blocks."))
    lstm_report = count_params(preset_models["shiftlstm"])
    bilstm = lstm_report.entry("blocks.0.rnn").params
    ok = cnn_blocks == 9_460_224 and bilstm == 9_443_328
    for report in (cnn_report, lstm_report):
        assert 9_000_000 <= report.total_params <= 10_000_000
    _report(3, ok,
            f"conv blocks {cnn_blocks} == 9460224, bilstm {bilstm} == 9443328, "
            f"totals within 9.0M..10.0M")


# ---------------------------------------------------------------------------
# 4. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_suite():
    start = time.perf_counter()
    report = run_grad_suite(num_seeds=10)
    elapsed = time.perf_counter() - start
    worst = max(report.entries, key=lambda e: e.max_rel_err / e.tol)
    _report(4, report.passed and elapsed < 120.0,
            f"{len(report.entries)} checks x 10 seeds passed in {elapsed:.0f}s; "
            f"worst {worst.name} at {worst.max_rel_err:.2e} (tol {worst.tol})")


# ---------------------------------------------------------------------------
# 5. channel-mingling separation
# ---------------------------------------------------------------------------

def _cross_validate_order_task(records, model_cfg):
    """5-fold leave-one-group-out; returns (mean 4-class UA, mean {0,1} pair recall)."""
    train_cfg = TrainConfig(optimizer="adamw", peak_lr=5e-4, batch_size=32,
                            epochs=30, warmup_epochs=5, seed=0)
    uas, pairs = [], []
    for plan in assign_folds(records):
        train_records = [records[i] for i in plan.train_indices]
        test_records = [records[i] for i in plan.test_indices]
        result = train_fold(model_cfg, train_cfg, train_records, test_records,
                            fold=plan.fold)
        logits, labels = predict_logits(result.model, test_records)
        uas.append(result.metrics.ua)
        pairs.append(pair_recall_average(logits, labels, pair=(0, 1)))
    return sum(uas) / len(uas), sum(pairs) / len(pairs)


def test_criterion_5_channel_mingling_separation():
    start = time.perf_counter()
    gcfg = GenConfig()
    assert (gcfg.channels, gcfg.frames, gcfg.groups,
            gcfg.per_class_per_group) == (64, 50, 5, 40)
    data = gen_synthetic(gcfg, seed=0)

    width = dict(width=64, num_classes=4, num_input_layers=1)
    baseline_cfg = dataclasses.replace(
        preset_config("transformer", **width), mixer="none")
    base_ua, base_pair = _cross_validate_order_task(data.records, baseline_cfg)
    assert 0.45 <= base_pair <= 0.55, \
        f"mixer-free baseline pair recall {base_pair:.4f} is off chance"

    margins = {}
    for name in ("shiftcnn", "shiftformer"):
        ua, _ = _cross_validate_order_task(
            data.records, preset_config(name, **width))
        margins[name] = ua - base_ua
        assert ua >= base_ua + 0.10, \
            f"{name} mean UA {ua:.4f} within 10 points of baseline {base_ua:.4f}"
    elapsed = time.perf_counter() - start
    _report(5, elapsed < 600.0,
            f"baseline pair recall {base_pair:.3f} at chance; 4-class UA "
            f"margins shiftcnn +{margins['shiftcnn'] * 100:.1f} "
            f"shiftformer +{margins['shiftformer'] * 100:.1f} points; "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. metric definitions
# ---------------------------------------------------------------------------

def metrics_oracle(confusion: np.ndarray) -> tuple:
    total = confusion.sum()
    wa = float(confusion.trace() / total) if total else 0.0
    recalls = [confusion[i, i] / row_sum
               for i, row_sum in enumerate(confusion.sum(axis=1)) if row_sum]
    ua = float(sum(recalls) / len(recalls)) if recalls else 0.0
    return ua, wa


def test_criterion_6_metric_definitions():
    # class a: 10 of 20 correct, class b: 30 of 30 correct
    worked = np.array([[10, 10], [0, 30]])
    m = compute_metrics(worked)
    assert m.wa == 0.8 and m.ua == 0.75

    rng = np.random.default_rng(6)
    for i in range(1000):
        k = int(rng.integers(1, 9))
        confusion = rng.integers(0, 20, size=(k, k))
        if i % 7 == 0:
            confusion[rng.integers(k)] = 0
        if i % 97 == 0:
            confusion[:] = 0
        m = compute_metrics(confusion)
        ua, wa = metrics_oracle(confusion)
        assert m.ua == ua and m.wa == wa, (confusion, m, ua, wa)
    _report(6, True, "worked example UA 0.75 / WA 0.8 and 1000 fuzzed "
                     "matrices match the independent recomputation exactly")


# ---------------------------------------------------------------------------
# 7. training determinism
# ---------------------------------------------------------------------------

def test_criterion_7_training_determinism(tmp_path):
    gcfg = GenConfig(channels=16, frames=24, groups=3, per_class_per_group=2,
                     group_b_start=8, group_width=8, min_gap=6, margin=4)
    data = gen_synthetic(gcfg, seed=0)
    data_path = str(tmp_path / "data.fseq")
    write_fseq(data_path, data.records, data.k_cls)
    import json
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {
        "epochs": 2, "batch_size": 8, "warmup_epochs": 1,
        "peak_lr": 5e-4, "augment_prob": 0.5}}))
    outputs = []
    for sub in ("one", "two"):
        code = main(["train", data_path, "--config", str(cfg_path),
                     "--preset", "shiftformer", "--seed", "7",
                     "--out", str(tmp_path / sub), "--curves"])
        assert code == 0
        outputs.append({name: (tmp_path / sub / name).read_bytes()
                        for name in ("metrics.txt", "curves.txt")})
    ok = outputs[0] == outputs[1]
    _report(7, ok, "two identical cmd_train runs wrote bit-identical "
                   "metrics and curve files")


# ---------------------------------------------------------------------------
# 8. format robustness
# ---------------------------------------------------------------------------

def test_criterion_8_format_robustness(tmp_path):
    rng = np.random.default_rng(8)
    path = str(tmp_path / "roundtrip.fseq")
    for _ in range(100):
        k_cls = int(rng.integers(1, 6))
        records = [
            FeatureSequence(
                label=int(rng.integers(k_cls)),
                group=int(rng.integers(4)),
                data=rng.standard_normal((
                    int(rng.integers(1, 4)), int(rng.integers(1, 7)),
                    int(rng.integers(1, 9)))).astype(np.float32))
            for _ in range(int(rng.integers(0, 6)))
        ]
        write_fseq(path, records, k_cls)
        loaded = read_fseq(path)
        assert loaded.k_cls == k_cls and len(loaded.records) == len(records)
        for a, b in zip(records, loaded.records):
            assert (a.label, a.group) == (b.label, b.group)
            assert a.data.dtype == b.data.dtype
            assert np.array_equal(a.data, b.data)

    base_records = [FeatureSequence(label=i % 3, group=i % 2,
                                    data=np.full((1, 3, 2), float(i), np.float32))
                    for i in range(4)]
    write_fseq(path, base_records, 3)
    good = open(path, "rb").read()

    def corrupt(blob: bytes, r: np.random.Generator) -> bytes:
        raw = bytearray(blob)
        mode = int(r.integers(7))
        if mode == 0:
            pos = int(r.integers(4))
            raw[pos] = (raw[pos] + int(r.integers(1, 256))) % 256
        elif mode == 1:
            raw[4:8] = int(r.integers(2, 2**31)).to_bytes(4, "little")
        elif mode == 2:
            raw[12:16] = int(r.integers(5, 2**20)).to_bytes(4, "little")
        elif mode == 3:
            raw[8:12] = (0).to_bytes(4, "little")
        elif mode == 4:
            return bytes(raw[:int(r.integers(len(raw)))])
        elif mode == 5:
            raw[16:20] = int(r.integers(3, 2**20)).to_bytes(4, "little")
        else:
            dim = 24 + 4 * int(r.integers(3))
            raw[dim:dim + 4] = int(r.integers(2**24, 2**31)).to_bytes(4, "little")
        return bytes(raw)

    structured = 0
    for _ in range(1000):
        blob = corrupt(good, rng)
        corrupt_path = tmp_path / "corrupt.fseq"
        corrupt_path.write_bytes(blob)
        with pytest.raises(FseqError):
            read_fseq(str(corrupt_path))
        structured += 1
    _report(8, structured == 1000,
            "100 datasets round-tripped bit-exactly; 1000 corrupted headers "
            "all raised structured format errors")


# ---------------------------------------------------------------------------
# 9. placement semantics
# ---------------------------------------------------------------------------

def _zero_blocks(model) -> None:
    for name, param in model.named_parameters().items():
        if name.startswith("blocks."):
            param.data[...] = 0.0


def _features(model, x: np.ndarray) -> np.ndarray:
    return model.forward_features(Tensor(x), training=False).data


def test_criterion_9_placement_semantics():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 1, 9, 16)).astype(np.float32)
    flat = x[:, 0]

    # Residual placement: the trunk skips around every parameterized path,
    # so zeroed blocks must reduce the model to the exact identity.
    residual_cfgs = {
        "shiftcnn": preset_config("shiftcnn", width=16, num_input_layers=1),
        "shiftformer": preset_config("shiftformer", width=16, num_input_layers=1),
        "transformer": preset_config("transformer", width=16, num_input_layers=1),
        "transformer-pooling": dataclasses.replace(
            preset_config("transformer", width=16, num_input_layers=1),
            mixer="pooling"),
    }
    for label, cfg in residual_cfgs.items():
        model = build_model(cfg, seed=0)
        _zero_blocks(model)
        deviation = np.abs(_features(model, x) - flat).max()
        assert deviation == 0.0, (label, deviation)

    # In-place placement shifts the trunk itself once per block, so the
    # zeroed model is the shift composed once per block.
    inplace = ShiftConfig(alpha=0.25, direction="unidirectional",
                          placement="in_place")
    inplace_cfgs = {
        "cnn": dataclasses.replace(
            preset_config("shiftcnn", width=16, num_input_layers=1),
            shift=dataclasses.replace(inplace, alpha=1 / 16)),
        "transformer": dataclasses.replace(
            preset_config("transformer", width=16, num_input_layers=1),
            shift=inplace),
    }
    for label, cfg in inplace_cfgs.items():
        model = build_model(cfg, seed=0)
        _zero_blocks(model)
        want = Tensor(flat)
        for _ in range(cfg.blocks):
            want = temporal_shift(want, cfg.shift)
        deviation = np.abs(_features(model, x) - want.data).max()
        assert deviation == 0.0, (label, deviation)

    # The recurrent family has no identity trunk: its block replaces
    # features. Zeroing the recurrent branch must leave exactly the
    # projection skip (residual placement) or exactly zero (in-place).
    residual_lstm = dataclasses.replace(
        preset_config("shiftlstm", width=16, num_input_layers=1),
        shift=ShiftConfig(alpha=0.25, placement="residual"))
    model = build_model(residual_lstm, seed=0)
    for name, param in model.named_parameters().items():
        if ".rnn." in name:
            param.data[...] = 0.0
    proj = model.blocks[0].proj
    skip_only = linear(Tensor(flat), proj.weight, proj.bias).data
    assert np.array_equal(_features(model, x), skip_only)

    model = build_model(preset_config("shiftlstm", width=16,
                                      num_input_layers=1), seed=0)
    _zero_blocks(model)
    assert np.abs(_features(model, x)).max() == 0.0

    _report(9, True, "zeroed residual branches give exact identity; zeroed "
                     "in-place trunks equal the shift applied once per block; "
                     "recurrent skips reduce to exactly the projection")
