"""Span tracing for the benchmark's traced run, installed from outside the package.

Nothing under ``src/`` knows about tracing. :func:`install` replaces chosen
public functions and methods of the ``shiftseq`` modules with wrappers that
record spans into a :class:`Tracer`; :func:`uninstall` puts every original
object back. Because modules import names from one another
(``from ..tensor_autograd import linear``), a function is replaced under every
module attribute that refers to it, not only where it is defined.

Backward time is attributed through ``track``: each recorded graph node's
backward closure is wrapped in a span named after the innermost traced
function that created the node, so ``engine.backward``'s self time is the tape
walk alone (topological sort, dispatch loop, graph severing).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict

# Which layer (package module) a span belongs to, by name prefix.
LAYERS = (
    ("ops.", "tensor_autograd.ops"),
    ("engine.", "tensor_autograd.engine"),
    ("shift.", "shift"),
    ("blocks.", "blocks.model"),
    ("checkpoint.", "blocks.checkpoint"),
    ("train.", "train"),
    ("data.", "data"),
    ("verification.", "verification"),
)
BENCH_LAYER = "bench"

TRACED_OPS = ("linear", "gelu", "layer_norm", "batch_norm1d", "depthwise_conv1d", "mhsa",
              "bilstm", "avg_pool_mixer", "softmax", "mean_pool_time", "cross_entropy")
OTHER_OPS = ("conv1d_full", "rel_position_bias")
ENGINE_PRIMITIVES = ("add", "mul", "scale", "sum_all", "mean_all", "reduce_sum", "sigmoid",
                     "tanh", "reshape", "transpose", "matmul", "concat", "select_time",
                     "stack_time", "slice_channels", "slice_rows")
FLOP_OPS = ("linear", "depthwise_conv1d", "mhsa", "bilstm")
# Spans whose backward closures are attributed to them (see _traced_track).
_BWD_OWNER_PREFIXES = ("ops.", "engine.", "shift.")


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return BENCH_LAYER


class Tracer:
    """Records nested spans and named counters in memory.

    Every closed span adds to per-name aggregates (count, total, self time),
    where self time is the span's duration minus the durations of its direct
    children. Raw spans are kept up to ``max_spans`` for writing out at exit;
    aggregates are always complete.
    """

    def __init__(self, clock=time.perf_counter, max_spans: int = 100_000):
        self.clock = clock
        self.max_spans = max_spans
        self.stack: list[list] = []       # open: [name, start, child_time, span_id, parent_id]
        self.spans: list[tuple] = []      # closed: (span_id, name, start, end, parent_id, unit)
        self.dropped = 0
        self.agg: dict[str, list] = {}    # name -> [count, total_s, self_s]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.unit = None                  # id of the step/batch/pass being measured
        self.unit_spans: list[tuple] = []  # (duration, self) of each "bench.unit" span
        self._next_id = 0

    def begin(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else -1
        self.stack.append([name, self.clock(), 0.0, self._next_id, parent])
        self._next_id += 1

    def end(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        name, start, child, span_id, parent = self.stack.pop()
        end = self.clock()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if name == "bench.unit":
            self.unit_spans.append((dur, dur - child))
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent, self.unit))
        else:
            self.dropped += 1
        return dur

    def count(self, name: str) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def layer_self_times(self) -> dict:
        out: defaultdict[str, float] = defaultdict(float)
        for name, (_, _, self_s) in self.agg.items():
            out[layer_of(name)] += self_s
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent, unit in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                    "parent": parent, "unit": unit}) + "\n")
            if self.dropped:
                f.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# per-call counters, computed from shapes with count_flops' conventions
# ---------------------------------------------------------------------------

def _flops(op: str, args) -> int:
    """Forward FLOPs (2 per multiply-accumulate) of one call, as count_flops books them."""
    x = args[0]
    if op == "linear":
        w = args[1]
        return 2 * math.prod(x.shape[:-1]) * w.shape[0] * w.shape[1]
    b, t, c = x.shape
    if op == "depthwise_conv1d":
        return 2 * args[1].shape[0] * b * t * c
    if op == "mhsa":
        return b * (8 * c * c * t + 4 * t * t * c)
    hidden = args[1].w_hh.shape[0]  # bilstm
    return b * 2 * 2 * (c + hidden) * 4 * hidden * t


def _on_temporal_shift(tr: Tracer, args, out) -> None:
    # the op copies the whole tensor whatever alpha is; so does its backward
    tr.counters["shift.bytes_copied"] += args[0].data.nbytes * (2 if out.requires_grad else 1)


def _on_collate(tr: Tracer, args, out) -> None:
    feats, lengths, _ = out
    tr.counters["train.collate.frames"] += feats.shape[0] * feats.shape[2]
    tr.counters["train.collate.valid_frames"] += int(lengths.sum())


def _on_file(counter):
    def hook(tr: Tracer, args, out) -> None:
        tr.counters[counter] += os.path.getsize(args[0])
    return hook


def _on_grad_suite(tr: Tracer, args, out) -> None:
    tr.counters["verification.cases_failed"] += sum(not e.passed for e in out.entries)


# ---------------------------------------------------------------------------
# installing and removing wrappers
# ---------------------------------------------------------------------------

def _targets():
    """(module, attribute, span name, hook) for every traced function or method."""
    ops = "shiftseq.tensor_autograd.ops"
    eng = "shiftseq.tensor_autograd.engine"
    out = [(ops, op, f"ops.{op}", None) for op in TRACED_OPS + OTHER_OPS]
    out += [(eng, p, f"engine.{p}", None) for p in ENGINE_PRIMITIVES]
    out += [
        (eng, "backward", "engine.backward", None),
        (eng, "accumulate_grad", "engine.accumulate_grad", None),
        (eng, "grad_check", "verification.grad_check", None),
        ("shiftseq.shift", "temporal_shift", "shift.temporal_shift", _on_temporal_shift),
        ("shiftseq.shift", "shift_augment", "shift.shift_augment", None),
        ("shiftseq.blocks.model", "weighted_layer_sum", "blocks.layer_mix", None),
        ("shiftseq.blocks.model", "build_model", "blocks.build_model", None),
        ("shiftseq.blocks.model", "SequenceClassifier.forward", "blocks.forward", None),
        ("shiftseq.blocks.checkpoint", "save_checkpoint", "checkpoint.save", None),
        ("shiftseq.blocks.checkpoint", "load_checkpoint", "checkpoint.parse", None),
        ("shiftseq.blocks.checkpoint", "build_from_checkpoint", "checkpoint.load", None),
        ("shiftseq.data", "gen_synthetic", "data.gen_synthetic", None),
        ("shiftseq.data", "write_fseq", "data.write_fseq", _on_file("data.write_fseq.bytes")),
        ("shiftseq.data", "read_fseq", "data.read_fseq", _on_file("data.read_fseq.bytes")),
        ("shiftseq.train", "collate", "train.collate", _on_collate),
        ("shiftseq.train", "predict_logits", "train.predict_logits", None),
        ("shiftseq.train", "evaluate", "train.evaluate", None),
        ("shiftseq.train", "Optimizer.step", "train.optimizer_step", None),
        ("shiftseq.verification", "run_grad_suite", "verification.run_grad_suite", _on_grad_suite),
    ]
    return out


def _wrap(tr: Tracer, name: str, fn, hook):
    op = name[4:] if name.startswith("ops.") else None
    flop_op = op in FLOP_OPS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tr.end()
        if flop_op:
            flops = _flops(op, args)
            tr.counters[f"{name}.flops"] += flops
            tr.counters[f"{name}.flop_s"] += dur
            if not any(f[0][4:] in FLOP_OPS for f in tr.stack if f[0].startswith("ops.")):
                tr.counters["flops.top_level"] += flops
        if hook is not None:
            hook(tr, args, out)
        return out

    return wrapper


def _traced_grad_check(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, inputs, *args, **kwargs):
        def counted(*xs):
            tr.counters["verification.f_calls"] += 1
            return f(*xs)

        tr.counters["verification.grad_checks"] += 1
        tr.begin("verification.grad_check")
        try:
            return fn(counted, inputs, *args, **kwargs)
        finally:
            tr.end()

    return wrapper


def _traced_track(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(out_data, parents, backward_fn):
        if any(p.requires_grad for p in parents):
            tr.counters["engine.graph_nodes"] += 1
            owners = list(dict.fromkeys(f[0] for f in tr.stack if f[0].startswith(_BWD_OWNER_PREFIXES)))
            label = (owners[-1] if owners else "engine.track") + ".bwd"
            inner = backward_fn

            def backward_fn(g):
                tr.begin(label)
                try:
                    inner(g)
                finally:
                    dur = tr.end()
                for owner in owners:
                    tr.counters[owner + ".bwd_s"] += dur

        return fn(out_data, parents, backward_fn)

    return wrapper


def _shiftseq_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "shiftseq" or n.startswith("shiftseq."))]


def install(tr: Tracer) -> list:
    """Replace every traced function, under every module name bound to it.

    Returns the (holder, attribute, original) triples that :func:`uninstall`
    puts back.
    """
    modules = _shiftseq_modules()
    replaced = []
    replacements = {}  # id(original) -> (original, wrapper)
    for mod_name, attr, name, hook in _targets():
        holder = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(holder, cls_name)
            original = cls.__dict__[meth]
            replaced.append((cls, meth, original))
            setattr(cls, meth, _wrap(tr, name, original, hook))
            continue
        original = getattr(holder, attr)
        wrapper = (_traced_grad_check(tr, original) if attr == "grad_check"
                   else _wrap(tr, name, original, hook))
        replacements[id(original)] = (original, wrapper)
    track = sys.modules["shiftseq.tensor_autograd.engine"].track
    replacements[id(track)] = (track, _traced_track(tr, track))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                replaced.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    return replaced


def uninstall(replaced: list) -> None:
    for holder, attr, original in reversed(replaced):
        setattr(holder, attr, original)
    replaced.clear()


@contextlib.contextmanager
def installed(tr: Tracer):
    """Tracing wrappers are in place only inside the block."""
    replaced = install(tr)
    try:
        yield tr
    finally:
        uninstall(replaced)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIME_LAYERS = tuple(layer for _, layer in LAYERS)


def per_layer_metrics(setup: Tracer, run: Tracer, units: int,
                      traced_unit_ms: float, untraced_unit_ms: float) -> dict:
    """Per-layer metrics from a traced set-up and a traced measurement.

    Time and count metrics from the measurement are per unit (train step,
    eval batch or grad-suite pass); set-up metrics are per call. FLOP and
    byte figures are computed from shapes, not measured traffic.
    """
    n = max(units, 1)
    c = run.counters
    m = {}

    def put(key, value, unit, better):
        m[key] = (value, unit, better)

    for op in TRACED_OPS:
        name = f"ops.{op}"
        put(f"{name}.fwd_ms", 1e3 * run.total(name) / n, "ms", "lower")
        put(f"{name}.bwd_ms", 1e3 * c[name + ".bwd_s"] / n, "ms", "lower")
        put(f"{name}.calls", run.count(name) / n, "count", "lower")
    for op in FLOP_OPS:
        secs = c[f"ops.{op}.flop_s"]
        put(f"ops.{op}.gflops", c[f"ops.{op}.flops"] / secs / 1e9 if secs else 0.0, "GFLOP/s", "higher")

    walk = run.agg.get("engine.backward", (0, 0.0, 0.0))[2]
    put("engine.backward_ms", 1e3 * run.total("engine.backward") / n, "ms", "lower")
    put("engine.tape_walk_ms", 1e3 * walk / n, "ms", "lower")
    put("engine.graph_nodes", c["engine.graph_nodes"] / n, "count", "lower")
    put("engine.accumulate_grad_ms", 1e3 * run.total("engine.accumulate_grad") / n, "ms", "lower")
    put("engine.accumulate_grad_calls", run.count("engine.accumulate_grad") / n, "count", "lower")

    shift_s = run.total("shift.temporal_shift") + c["shift.temporal_shift.bwd_s"]
    unit_s = sum(d for d, _ in run.unit_spans)
    put("shift.temporal_shift.fwd_ms", 1e3 * run.total("shift.temporal_shift") / n, "ms", "lower")
    put("shift.temporal_shift.bwd_ms", 1e3 * c["shift.temporal_shift.bwd_s"] / n, "ms", "lower")
    put("shift.temporal_shift.calls", run.count("shift.temporal_shift") / n, "count", "lower")
    put("shift.bytes_copied", c["shift.bytes_copied"] / n, "B", "lower")
    put("shift.share_pct", 100.0 * shift_s / unit_s if unit_s else 0.0, "%", "lower")

    put("blocks.forward_ms", 1e3 * run.total("blocks.forward") / n, "ms", "lower")
    put("blocks.layer_mix_ms", 1e3 * run.total("blocks.layer_mix") / n, "ms", "lower")

    frames = c["train.collate.frames"]
    put("train.optimizer_step_ms", 1e3 * run.total("train.optimizer_step") / n, "ms", "lower")
    put("train.collate_ms", 1e3 * run.total("train.collate") / n, "ms", "lower")
    put("train.collate.pad_fraction",
        1.0 - c["train.collate.valid_frames"] / frames if frames else 0.0, "fraction", "lower")
    put("train.evaluate_ms", 1e3 * run.total("train.predict_logits") / n, "ms", "lower")

    def per_call_ms(tr, name):
        return 1e3 * tr.total(name) / tr.count(name) if tr.count(name) else 0.0

    def mb_per_s(tr, name):
        secs = tr.total(name)
        return tr.counters[name + ".bytes"] / secs / 1e6 if secs else 0.0

    put("data.gen_synthetic_ms", per_call_ms(setup, "data.gen_synthetic"), "ms", "lower")
    put("data.write_fseq_mb_per_s", mb_per_s(setup, "data.write_fseq"), "MB/s", "higher")
    put("data.read_fseq_mb_per_s", mb_per_s(run, "data.read_fseq"), "MB/s", "higher")
    put("checkpoint.save_ms", per_call_ms(setup, "checkpoint.save"), "ms", "lower")
    put("checkpoint.load_ms", per_call_ms(run, "checkpoint.load"), "ms", "lower")

    put("verification.grad_check_ms", 1e3 * run.total("verification.grad_check") / n, "ms", "lower")
    put("verification.objective_calls",
        (c["verification.f_calls"] - c["verification.grad_checks"]) / n, "count", "lower")
    put("verification.cases_failed", c["verification.cases_failed"] / n, "count", "lower")

    self_times = run.layer_self_times()
    for layer in SELF_TIME_LAYERS:
        put(f"self_ms.{layer}", 1e3 * self_times.get(layer, 0.0) / n, "ms", "lower")
    remainders = sorted(100.0 * s / d for d, s in run.unit_spans if d > 0)
    put("trace.unattributed_pct_p50", statistics.median(remainders) if remainders else 0.0, "%", "lower")
    put("trace.unattributed_pct_max", remainders[-1] if remainders else 0.0, "%", "lower")
    put("trace.overhead_pct",
        100.0 * (traced_unit_ms / untraced_unit_ms - 1.0) if untraced_unit_ms else 0.0, "%", "lower")
    put("trace.units", float(units), "count", "higher")
    return m

