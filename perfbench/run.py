"""shiftseq benchmark: one workload per invocation, one JSON result line at the end.

    python3 perfbench/run.py --workload synthetic-train --seed 1 --seconds 10 --trace 0

Run from the repository root. The package is imported from ``src/``. With
``--trace 0`` the last line carries the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the run measures untraced, then traced, and the last line
carries the per-layer metrics (spans are written to ``.bench_out/``).
Workloads, metrics and their meaning are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One BLAS thread: a second thread waits on the first at every GEMM, so time
# stolen from either virtual CPU stalls both and the figures swing by tens of
# percent from run to run on a shared host.
BLAS_THREADS = "1"


def _blas_threads(np) -> int | None:
    """Threads the BLAS bundled with numpy will use, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = _blas_threads(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else f"{BLAS_THREADS} (requested)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "clock": "process CPU time",
    }


def measure(workload, state, seconds: float, tracer=None):
    """Run whole rounds until `seconds` of wall time have passed, and at least min_rounds."""
    from workloads import CLOCK, Recorder
    rec = Recorder(tracer)
    wall, cpu = time.perf_counter(), CLOCK()
    rounds = 0
    while rounds < workload.min_rounds or time.perf_counter() - wall < seconds:
        workload.run_round(state, rec)
        rounds += 1
    rec.wall, rec.cpu = time.perf_counter() - wall, CLOCK() - cpu
    rec.lines = workload.finish(state, rec)
    return rec


def unit_ms_p50(rec) -> float:
    """Geometric mean over the workload's configs of each config's median unit time."""
    medians = [statistics.median(v) for v in rec.samples.values() if v]
    if not medians:
        return math.nan
    return 1e3 * math.exp(sum(math.log(m) for m in medians) / len(medians))


def report(workload, rec, setup_times, env) -> dict:
    """Print every end-to-end figure with its unit; return the BENCHMARK.json metrics."""
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (rec.items / rec.cpu, "1/s"),
        "unit_ms_p50": (unit_ms_p50(rec), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"ENV {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name}: {rec.attempted} units ({workload.unit}) in {rec.cpu:.2f} s CPU, "
          f"{rec.wall:.2f} s wall; set-ups {[round(s, 3) for s in setup_times]} s")
    for config, values in rec.samples.items():
        print(f"  {config}: n={len(values)} p50={1e3 * statistics.median(values):.2f} ms "
              f"min={1e3 * min(values):.2f} ms")
    print(f"METRIC {workload.names[0]} {metrics['items_per_s'][0]:.4f} 1/s "
          f"(wall clock: {rec.items / rec.wall:.4f} 1/s)")
    print(f"METRIC {workload.names[1]} {metrics['unit_ms_p50'][0]:.4f} ms")
    for name, value, unit, note in rec.lines:
        print(f"METRIC {name} {value:.6g} {unit} ({note})")
    print(f"METRIC error_rate {rec.failed / max(rec.attempted, 1):.6f} "
          f"({rec.failed} failed of {rec.attempted} attempted)")
    for key, (value, unit) in metrics.items():
        print(f"METRIC {key} {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: minimal sizes, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shiftseq", "__init__.py")):
        print(f"error: no shiftseq package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read when numpy loads its BLAS
    sys.path.insert(0, src)
    import numpy as np

    env = environment(np)
    if isinstance(env["blas_threads"], int) and env["blas_threads"] > env["nproc"]:
        print(f"error: BLAS would use {env['blas_threads']} threads on {env['nproc']} CPUs",
              file=sys.stderr)
        return 3

    import spans
    from workloads import CLOCK, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](smoke=args.scale == "smoke")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    def timed_setup():
        start = CLOCK()
        state = workload.setup(args.seed, workdir)
        return state, CLOCK() - start

    try:
        if args.trace:
            result = _traced(workload, args, timed_setup, env, spans)
        else:
            result = _untraced(workload, args, timed_setup, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _untraced(workload, args, timed_setup, env) -> dict:
    setup_times, state = [], None
    for _ in range(workload.setup_repeats if args.scale == "full" else 1):
        state = None  # release the previous set-up before building the next
        state, secs = timed_setup()
        setup_times.append(secs)
    rec = measure(workload, state, args.seconds)
    metrics = report(workload, rec, setup_times, env)
    return {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _traced(workload, args, timed_setup, env, spans) -> dict:
    state, _ = timed_setup()
    plain = measure(workload, state, args.seconds)
    state = None
    setup_tracer, run_tracer = spans.Tracer(), spans.Tracer()
    with spans.installed(setup_tracer):
        state, setup_secs = timed_setup()
    with spans.installed(run_tracer):
        traced = measure(workload, state, args.seconds, tracer=run_tracer)
    print(f"traced run (untraced unit_ms_p50 was {unit_ms_p50(plain):.4f} ms); "
          f"the figures below include tracing overhead")
    report(workload, traced, [setup_secs], env)
    per_batch = workload.name == "eval-mixed-length"
    units = run_tracer.count("train.collate") if per_batch else traced.attempted
    layer = spans.per_layer_metrics(setup_tracer, run_tracer, units,
                                    unit_ms_p50(traced), unit_ms_p50(plain))
    print(f"per-layer figures: wall-clock spans, per {'eval batch' if per_batch else workload.unit} "
          f"({units} traced); FLOP and byte figures are computed from shapes and count_flops "
          f"conventions, not measured traffic")
    for key, (value, unit, _) in layer.items():
        print(f"LAYER {key} {value:.6g} {unit}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    run_tracer.write_jsonl(os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.jsonl"))
    failed = plain.failed + traced.failed
    return {"correct": failed == 0, "attempted": plain.attempted + traced.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in layer.items()}}


if __name__ == "__main__":
    sys.exit(main())
