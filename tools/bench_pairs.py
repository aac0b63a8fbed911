"""Run the benchmark on a parent tree and on this checkout in alternating pairs.

Usage: python3 tools/bench_pairs.py PARENT OUT [--workloads W ...] [--pairs N]
                                    [--seconds S] [--scale {full,smoke}]

PARENT is a git revision of this repository, or a directory holding a
checkout. Its ``src/`` and ``perfbench/`` and this checkout's go into two
sibling directories of one temporary directory, ``parent`` and ``change``:
names of equal length, so that placement alone does not move a figure.
For each workload, pair i runs ``perfbench/run.py --seed FIRST_SEED + i`` on
both sides, parent first in even pairs and change first in odd ones.

OUT gets one JSON file: the ENV stamp, every run's end-to-end metrics, and
for each workload and each metric of BENCHMARK.json's ``end_to_end`` list,
the per-side median and quartiles, the pairs the change won, the parent's
quartile distance as a fraction of its median, and the metric's bound.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "perfbench")  # all that perfbench/run.py reads
FIRST_SEED = 501


def _copy_checkout(source: str, dest: str) -> None:
    for tree in TREES:
        shutil.copytree(os.path.join(source, tree), os.path.join(dest, tree),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _export_revision(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, *TREES],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(side: str, workload: str, seed: int, seconds: float, scale: str) -> tuple[dict, dict]:
    """One benchmark run in `side`: (ENV stamp, the JSON result line)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--scale", scale],
                          cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{side}: {workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("ENV "))
    return env, json.loads(lines[-1])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the change's pair wins,
    and the parent's quartile distance as a fraction of its median."""
    out = {}
    for spec in declared:
        name, higher = spec["name"], spec["better"] == "higher"
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs]
        parent = _quartiles([p for p, _ in pairs])
        out[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": _quartiles([c for _, c in pairs]),
            "change_wins": sum(c > p if higher else c < p for p, c in pairs), "pairs": len(pairs),
            "parent_spread": (parent["q3"] - parent["q1"]) / parent["median"],
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or checkout directory")
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    result = {"parent": args.parent, "pairs": args.pairs, "seconds": args.seconds,
              "scale": args.scale, "env": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        if os.path.isdir(args.parent):
            _copy_checkout(args.parent, sides["parent"])
        else:
            _export_revision(args.parent, sides["parent"])
        _copy_checkout(ROOT, sides["change"])
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    env, run[side] = _run(sides[side], workload, seed, args.seconds, args.scale)
                    result["env"] = result["env"] or env
                runs.append(run)
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
            result["workloads"][workload] = {"runs": runs,
                                             "metrics": summarize(runs, bench["end_to_end"])}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
