"""Fixtures shared by the test modules."""

import ctypes
import glob
import os

import numpy as np
import pytest

# The BLAS under which the LSTM recurrence's bits were measured to be the same
# in every batch of 2 to ops._TILED_ROWS records: OpenBLAS 0.3.31 running its
# SkylakeX kernels, whose small-matrix sgemm (the ops._NO_PACK bound) reduces
# each output element in one order at any batch size. Another version or
# kernel target may pick another sgemm for the same products.
MEASURED_BLAS = ("OpenBLAS 0.3.31", "SkylakeX")


def _openblas_config() -> str:
    """The runtime configuration string of the OpenBLAS bundled with numpy
    (it names the kernel target chosen at load), or "" when there is none."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                return fn().decode()
    return ""


@pytest.fixture
def measured_blas():
    """Skips a test whose exact LSTM bits hold only under MEASURED_BLAS."""
    config = _openblas_config()
    if not all(part in config for part in MEASURED_BLAS):
        pytest.skip(f"LSTM batch-invariance was measured under {' '.join(MEASURED_BLAS)}, "
                    f"not {config or 'this BLAS'}")
