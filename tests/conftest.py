import numpy as np
import pytest

from lpic.simulate import _openblas_threads


def _pin_blas_to_one_thread():
    """Run NumPy's bundled OpenBLAS on one thread, if that library is found.

    Records do not depend on the BLAS thread count, and one BLAS thread per
    harness worker keeps the cores from being oversubscribed.  An
    OPENBLAS_NUM_THREADS set here would come too late: pytest has imported
    NumPy while it configured (pyproject's filterwarnings names a NumPy
    warning class), so the setting goes through the library's own call.
    """
    calls = _openblas_threads()
    if calls is not None:
        calls[1](1)


_pin_blas_to_one_thread()


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)
