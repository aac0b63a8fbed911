"""The benchmark's traced run (`perfbench/run.py --trace 1`) looks up package
functions by name and reads some of their arguments by position; every name it
wraps must exist and every FLOP it books must match `count_flops`, so a
deletion or a reordered signature under `src/` that would break the trace
fails here too."""

import contextlib
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from shiftseq.accounting import count_flops
from shiftseq.blocks import PRESETS, build_model, preset_config
from shiftseq.tensor_autograd import Tensor, no_grad

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """Execute spans.py from its source, writing nothing next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def resolves(mod_name: str, attr: str) -> bool:
    """Whether `spans.install` can find `attr` (a function, or `Class.method`)."""
    holder = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(holder, cls_name, object))
    return hasattr(holder, attr)


def test_every_traced_target_resolves_in_the_package():
    targets = load_spans()._targets()
    assert len(targets) > 40
    targets.append(("shiftseq.tensor_autograd.engine", "track", "engine.track", None))
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in targets if not resolves(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("preset", PRESETS)
def test_traced_flops_agree_with_count_flops(preset):
    """The trace books each FLOP op's work from the shapes of its positional
    arguments (`x` first, then a weight); summed over the ops outside any
    other FLOP op, one forward on a full 4-D batch books what `count_flops`
    counts at the padded length. Ragged records, recorded or not, run the
    blocks' pointwise layers, top-level `linear` calls, on their real
    frames, and the trace books those at the real frames; attention and the
    LSTM it books at the padded length."""
    spans = load_spans()
    b, t, width, layers = 3, 11, 16, 2
    model = build_model(preset_config(preset, width=width, num_input_layers=layers), seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((b, layers, t, width)).astype(np.float32))
    lengths = (4, t, 1)
    records = [rng.standard_normal((layers, n, width)).astype(np.float32) for n in lengths]

    def booked(features, recorded):
        tracer = spans.Tracer()
        with spans.installed(tracer), contextlib.nullcontext() if recorded else no_grad():
            model.forward(features)
        return tracer.counters["flops.top_level"]

    assert booked(x, recorded=False) == b * count_flops(model, t).total_flops
    per_frame = {e.name: e.flops for e in count_flops(model, 1).entries}
    ragged = sum(per_frame[e.name] * sum(lengths) if e.name.endswith((".pw1", ".pw2")) else b * e.flops
                 for e in count_flops(model, t).entries)
    assert booked(records, recorded=False) == ragged
    assert booked(records, recorded=True) == ragged
