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
