"""The zero-diagonal series' limit scaling, a test-only analysis of the filters.

The zero-diagonal stage recursion converges to diag(f) R^-1 rather than to
the decorrelator R^-1; the acceptance and filter tests check the limit
against these factors.
"""

from __future__ import annotations

import itertools

import numpy as np

from lpic.filters import cancellation_partials
from lpic.model import _real_correlation, convergence_check

_LIMIT_MAX_STAGES = 1000  # limit_scaling_matrix gives up after this many


def limit_scaling_matrix(correlation: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Diagonal f of the scaling F relating the zero-diagonal limit to the decorrelator.

    The zero-diagonal stage recursion converges to F R^-1 where
    F = diag(f) = I - D_1 - D_2 - ... and D_n = diag(B_{n-1} (I-R)), so f_k
    scales user k's decorrelated output.  The series is accumulated until
    two consecutive D_n fall below tol in max-abs norm (D_1 is always
    exactly zero, so a single small term does not stop it), for at most
    _LIMIT_MAX_STAGES stages.  For an equicorrelated R the factors are
    f_k = 1 - (K-1) rho^2 / (1 + (K-2) rho).
    """
    r = _real_correlation(correlation, "limit_scaling_matrix")
    report = convergence_check(r)
    if not report.converges:
        raise ValueError(
            f"series does not converge (lambda_max = {report.max_eigenvalue:.6f} >= 2)"
        )
    # with S_n = B_0 + ... + B_n, diag(S_n) = 1 gives I - D_1 - ... - D_{n+1} = diag(S_n R)
    eye = np.eye(r.shape[0])
    steps = itertools.repeat(eye - r, _LIMIT_MAX_STAGES - 1)
    values, prev_norm = np.ones(r.shape[0]), np.inf
    for total in cancellation_partials(eye, steps, hollow=True):
        values, prev = np.einsum("ij,ji->i", total, r), values
        norm = float(np.abs(values - prev).max())
        if norm < tol and prev_norm < tol:
            return values
        prev_norm = norm
    raise ValueError(f"limit scaling did not settle below tol={tol} in {_LIMIT_MAX_STAGES} stages")
