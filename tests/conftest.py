import ctypes
import glob
import os

import numpy as np
import pytest


def _pin_blas_to_one_thread():
    """Run NumPy's bundled OpenBLAS on one thread, if that library is found.

    Records do not depend on the BLAS thread count, and one BLAS thread per
    harness worker keeps the cores from being oversubscribed.  An
    OPENBLAS_NUM_THREADS set here would come too late: pytest has imported
    NumPy while it configured (pyproject's filterwarnings names a NumPy
    warning class), so the setting goes through the library's own call.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


_pin_blas_to_one_thread()


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)
