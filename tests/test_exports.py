"""The public packages export exactly their public names."""

import importlib
import types

import pytest


@pytest.mark.parametrize("package", ["shiftseq", "shiftseq.blocks", "shiftseq.tensor_autograd"])
def test_all_lists_every_public_name_and_only_names_that_resolve(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    public = {name for name, value in vars(module).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(module.__all__)) == []


def test_tensor_autograd_exports_what_models_and_grad_check_run():
    """The engine primitives and ops no model runs stay importable from their
    modules, where the benchmark's tracer wraps them, but are not exported."""
    ta = importlib.import_module("shiftseq.tensor_autograd")
    assert ta.__all__ == [
        "AttentionParams", "GradCheckReport", "LstmDirection", "Tensor", "accumulate_grad",
        "add", "avg_pool_mixer", "backward", "bilstm", "cross_entropy", "depthwise_conv1d",
        "gelu", "grad_check", "layer_norm", "linear", "mean_pool_time", "mhsa", "mul",
        "named_tensors", "no_grad", "softmax", "sum_all", "track", "unbroadcast",
    ]
