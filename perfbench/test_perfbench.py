"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import shiftseq as ss  # noqa: E402
import shiftseq.train as ss_train  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # unit [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 7]
    tr = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    tr.begin("bench.unit")
    tr.begin("ops.linear")
    tr.begin("engine.accumulate_grad")
    tr.end()
    tr.end()
    tr.begin("train.collate")
    tr.end()
    tr.end()
    assert tr.agg["bench.unit"] == [1, 10, 10 - 3 - 2]
    assert tr.agg["ops.linear"] == [1, 3, 2]
    assert tr.agg["engine.accumulate_grad"] == [1, 1, 1]
    assert tr.layer_self_times() == {"bench": 5, "tensor_autograd.ops": 2,
                                     "tensor_autograd.engine": 1, "train": 2}
    assert tr.unit_spans == [(10, 5)]
    by_name = {s[1]: s for s in tr.spans}
    assert by_name["engine.accumulate_grad"][4] == by_name["ops.linear"][0]
    assert by_name["ops.linear"][4] == by_name["bench.unit"][0]
    assert by_name["bench.unit"][4] == -1


def test_span_cap_keeps_aggregates_complete():
    tr = spans.Tracer(clock=FakeClock(range(100)), max_spans=2)
    for _ in range(3):
        tr.begin("ops.gelu")
        tr.end()
    assert len(tr.spans) == 2 and tr.dropped == 1
    assert tr.count("ops.gelu") == 3


def _shiftseq_bindings():
    out = {}
    for mod in spans._shiftseq_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    for cls in (ss.SequenceClassifier, ss_train.Optimizer):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_uninstall_restores_every_original_object():
    before = _shiftseq_bindings()
    model_mod = sys.modules["shiftseq.blocks.model"]
    replaced = spans.install(spans.Tracer())
    try:
        # a function is replaced wherever it is bound, not only where defined
        assert model_mod.linear is not before[("shiftseq.blocks.model", "linear")]
        assert ss.tensor_autograd.ops.linear is not before[("shiftseq.tensor_autograd.ops", "linear")]
        assert ss.tensor_autograd.engine.track is not before[("shiftseq.tensor_autograd.engine", "track")]
        assert ss.SequenceClassifier.forward is not before[("SequenceClassifier", "forward")]
    finally:
        spans.uninstall(replaced)
    after = _shiftseq_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


@pytest.mark.parametrize("preset", ["shiftcnn", "transformer", "shiftlstm"])
def test_traced_flops_match_count_flops(preset):
    cfg = ss.preset_config(preset, width=16, num_classes=4, num_input_layers=2)
    model = ss.build_model(cfg, seed=0)
    batch, frames = 3, 7
    feats = ss.Tensor(np.random.default_rng(0).standard_normal((batch, 2, frames, 16), dtype=np.float32))
    tr = spans.Tracer()
    with spans.installed(tr):
        model.forward(feats)
    assert tr.counters["flops.top_level"] == batch * ss.count_flops(model, frames).total_flops


def test_benchmark_loop_reproduces_train_fold():
    gen = ss.GenConfig(channels=16, frames=40, groups=2, per_class_per_group=3)
    data = ss.gen_synthetic(gen, seed=3)
    plan = ss.assign_folds(data.records)[0]
    train = [data.records[i] for i in plan.train_indices]
    test = [data.records[i] for i in plan.test_indices]
    cfg = ss.preset_config("shiftcnn", width=16, num_classes=4, num_input_layers=1)
    tcfg = ss.TrainConfig(batch_size=5, epochs=3, warmup_epochs=1, augment_prob=0.5)
    reference = ss.train_fold(cfg, tcfg, train, test, fold=plan.fold)
    rec = workloads.Recorder()
    metrics, final_loss = workloads.train_one_fold(cfg, tcfg, train, test, plan.fold, rec, "x")
    assert (metrics.ua, metrics.wa, final_loss) == (reference.metrics.ua, reference.metrics.wa,
                                                    reference.final_loss)
    assert rec.attempted == len(rec.samples["x"]) == 3 * 3 and rec.failed == 0


def test_stratified_lengths_span_every_batch():
    w = workloads.EvalMixedLength(smoke=False)
    args = (w.count, w.batch, w.lo, w.hi)
    lengths = workloads.stratified_lengths(np.random.default_rng(5), *args)
    assert len(lengths) == w.count and min(lengths) >= w.lo and max(lengths) <= w.hi
    span = w.hi - w.lo
    for i in range(0, w.count, w.batch):
        batch = lengths[i:i + w.batch]
        assert min(batch) < w.lo + span / 4 and max(batch) > w.hi - span / 4
    assert lengths == workloads.stratified_lengths(np.random.default_rng(5), *args)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_output_checks(workload, trace):
    out = _run(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "smoke"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace and workload == "gradcheck":
        assert result["metrics"]["verification.objective_calls"]["value"] > 0


def test_per_layer_directions_match_benchmark_json():
    tr = spans.Tracer()
    produced = spans.per_layer_metrics(tr, tr, 1, 1.0, 1.0)
    assert [(k, u, b) for k, (_, u, b) in produced.items()] == \
        [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(["--workload", "gradcheck", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
