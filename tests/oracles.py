"""Independent reference implementations used as test oracles.

Nothing in here imports from the package's construction code paths beyond
plain numpy: closed-form BER expressions, a score-equation solver for the
binomial interval, explicit-power matrix series and a plain-loop mmse
series in either eigenvalue order.  Agreement between
these and the package is what the tests assert.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np


def rayleigh_bpsk_ber(snr_linear: float) -> float:
    """Coherent BPSK over flat Rayleigh fading, average SNR in linear units."""
    g = snr_linear
    return 0.5 * (1.0 - sqrt(g / (1.0 + g)))


def mrc_bpsk_ber(snr_linear: float, branches: int) -> float:
    """BPSK with M-branch maximal-ratio combining over i.i.d. Rayleigh fading.

    snr_linear is the total average SNR; each branch carries snr_linear / M.
    """
    gc = snr_linear / branches
    mu = sqrt(gc / (1.0 + gc))
    lo = 0.5 * (1.0 - mu)
    hi = 0.5 * (1.0 + mu)
    return lo**branches * sum(
        comb(branches - 1 + k, k) * hi**k for k in range(branches)
    )


def wilson_by_bisection(errors: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson interval endpoints found by solving the score equation directly.

    The endpoints are the two roots p of |p_hat - p| = z sqrt(p(1-p)/n),
    located by bisection on each side of p_hat.  Shares no algebra with the
    closed-form center/half-width expression.
    """
    n = trials
    p_hat = errors / n

    def score(p: float) -> float:
        return abs(p_hat - p) - z * sqrt(p * (1.0 - p) / n)

    def bisect(lo: float, hi: float) -> float:
        # score > 0 at the outer end, < 0 near p_hat; root in between
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if score(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lower = 0.0 if score(0.0) <= 0 else bisect(0.0, p_hat)
    upper = 1.0 if score(1.0) <= 0 else bisect(1.0, p_hat)
    return lower, upper


def explicit_power_series(r: np.ndarray, stage: int) -> np.ndarray:
    """Sum of matrix powers of (I - R) via np.linalg.matrix_power."""
    eye = np.eye(r.shape[0], dtype=r.dtype)
    return sum(
        (np.linalg.matrix_power(eye - r, j) for j in range(stage)), np.zeros_like(r)
    )


def central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def random_correlation(rng: np.random.Generator, users: int, chips: int) -> np.ndarray:
    """Correlation matrix of a fresh random +/-1 spreading draw."""
    c = rng.integers(0, 2, size=(users, chips)) * 2.0 - 1.0
    return c @ c.T / chips


def mmse_series(r, sigma2: float, stage: int, hollow: bool, ascending: bool) -> np.ndarray:
    """The eigenvalue-stepped mmse filters by a plain loop, in either eigenvalue order.

    mu_m I + sum_i mu_{m-i} J_i with J_0 = I and
    J_i = J_{i-1} (I - mu_{m-i+1} (R + sigma2 I)), each J_i hollowed when
    hollow is set (modified_mmse); mu_i = 1 / (lambda_i + sigma2) with the
    eigenvalues in ascending or descending order.
    """
    users = r.shape[0]
    lams = np.linalg.eigvalsh(r)
    mu = 1.0 / ((lams if ascending else lams[::-1]) + sigma2)
    eye = np.eye(users)
    s = r + sigma2 * eye
    part = eye
    total = mu[stage - 1] * eye
    for i in range(1, stage):
        part = part @ (eye - mu[stage - i] * s)
        if hollow:
            part = part - np.diag(np.diag(part))
        total = total + mu[stage - 1 - i] * part
    return total
