"""The benchmark's traced run (`perfbench/run.py --trace 1`) looks up package
functions by name; every name it wraps must exist, so a deletion under
`src/` that would break the trace fails here too."""

import importlib
import types
from pathlib import Path

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
