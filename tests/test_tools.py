"""The repository tools: `tools/bench_pairs.py` writes the schema its docstring gives."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_pairs_smoke_run_writes_its_schema(tmp_path):
    """An A/A run (this checkout against itself) at smoke scale: two pairs
    of one workload, the second with the change first."""
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"), ROOT, str(out),
                           "--workloads", "eval-mixed-length", "--pairs", "2", "--seconds", "0.2",
                           "--scale", "smoke"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["end_to_end"]
    assert set(result) == {"parent", "pairs", "seconds", "scale", "env", "workloads"}
    assert {"numpy", "blas", "blas_threads", "cpu"} <= set(result["env"])
    assert list(result["workloads"]) == ["eval-mixed-length"]
    runs = result["workloads"]["eval-mixed-length"]["runs"]
    assert [(r["seed"], r["first"]) for r in runs] == [(501, "parent"), (502, "change")]
    for run in runs:
        for side in ("parent", "change"):
            assert run[side]["correct"] is True and run[side]["failed"] == 0
    metrics = result["workloads"]["eval-mixed-length"]["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for spec in declared:
        m = metrics[spec["name"]]
        assert (m["better"], m["bound"], m["pairs"]) == (spec["better"], spec["bound"], 2)
        assert 0 <= m["change_wins"] <= 2 and m["parent_spread"] >= 0
        for side in ("parent", "change"):
            assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]
