"""Synchronous DS-CDMA system model: sequences, correlations, noise shaping.

Conventions used throughout the package (simulate draws the bits, fading
and noise and forms y by them):
  * K users, P chips per symbol, M subcarriers (M=1 is single carrier).
  * Spreading sequences are random +/-1 chips; the normalized cross-correlation
    matrix R = C C^T / P has unit diagonal.
  * Channel coefficients are unit-power complex Gaussian (flat Rayleigh fading),
    independent per user and per subcarrier.
  * The matched-filter bank output is y = R x + n with effective symbols
    x_k = A_k b_k h_k and noise covariance E[n n^H] = sigma2 * R.
  * Bit decisions are sign(Re(conj(h_k) y_k)) with ties resolved to +1.
  * Users are indexed from 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a correlation matrix admits no real noise-shaping factor."""


def _real_correlation(correlation: np.ndarray, what: str) -> np.ndarray:
    """The correlation as a float array; a complex one is refused, not cast.

    Casting would silently drop the imaginary part of a complex Hermitian R.
    """
    r = np.asarray(correlation)
    if np.iscomplexobj(r):
        raise ValueError(f"{what} needs a real correlation matrix")
    return r.astype(float, copy=False)


class ConvergenceReport(NamedTuple):
    max_eigenvalue: float
    converges: bool


def generate_spreading_set(users: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Draw K random binary spreading sequences of P chips: a (K, P) int8 +/-1 array."""
    if users < 1 or length < 1:
        raise ValueError("users and length must be positive")
    return rng.integers(0, 2, size=(users, length)).astype(np.int8) * 2 - 1


def correlation_matrix(chips: np.ndarray) -> np.ndarray:
    """Normalized cross-correlation R = C C^T / P (unit diagonal) of (..., K, P) +/-1 chips.

    A stack of chip sets gives the (..., K, K) stack of matrices.  Every entry
    is an integer sum of +/-1 products divided by P, so a stacked product
    equals the per-set ones bit for bit.
    """
    c = np.asarray(chips)
    if c.ndim < 2:
        raise ValueError(f"chips must be a (..., K, P) array, got shape {c.shape}")
    if not np.all((c == 1) | (c == -1)):
        raise ValueError("chips must be +/-1 valued")
    c = c.astype(np.float64)
    return c @ c.swapaxes(-1, -2) / c.shape[-1]


def equicorrelated_matrix(users: int, rho: float) -> np.ndarray:
    """R with unit diagonal and constant off-diagonal correlation rho.

    Positive semidefinite only for -1/(K-1) <= rho <= 1; values outside that
    range are rejected.
    """
    if users < 1:
        raise ValueError("users must be positive")
    if users == 1:
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"rho={rho} outside [-1, 1]")
        return np.ones((1, 1))
    lo = -1.0 / (users - 1)
    if not lo <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside PSD range [{lo}, 1] for K={users}")
    r = np.full((users, users), float(rho))
    np.fill_diagonal(r, 1.0)
    return r


def noise_transform(correlation: np.ndarray) -> np.ndarray:
    """Real factor L with L L^T = R, used to shape white noise.

    Cholesky when R is positive definite; an eigenvalue square root otherwise
    (tiny negative eigenvalues from roundoff are clipped).  A (..., K, K)
    stack gives the stack of the per-matrix factors: one batched Cholesky,
    or, if any draw fails it, the rule above draw by draw.  Raises
    NotPositiveSemidefiniteError for genuinely indefinite input.
    """
    r = _real_correlation(correlation, "noise_transform")
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        if r.ndim <= 2:
            return _eigen_factor(r, "")
    out = np.empty_like(r)
    for at in np.ndindex(r.shape[:-2]):
        try:
            out[at] = np.linalg.cholesky(r[at])
        except np.linalg.LinAlgError:
            out[at] = _eigen_factor(r[at], f" at draw {','.join(map(str, at))}")
    return out


def _indefinite(eigenvalues: np.ndarray) -> np.ndarray:
    """Whether ascending (..., K) spectra go further below zero than a PSD matrix's rounding.

    That is lambda_min < -1e-10 max(lambda_max, 1).
    """
    return eigenvalues[..., 0] < -1e-10 * np.maximum(eigenvalues[..., -1], 1.0)


def _eigen_factor(r: np.ndarray, where: str) -> np.ndarray:
    """The clipped eigenvalue square root of one PSD matrix that Cholesky refused."""
    vals, vecs = np.linalg.eigh(r)
    if _indefinite(vals):
        raise NotPositiveSemidefiniteError(
            f"correlation matrix is not PSD{where} (min eigenvalue {vals[0]:.3e})"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def convergence_check(correlation: np.ndarray) -> ConvergenceReport:
    """Largest eigenvalue of R and whether the cancellation series converges.

    The stage recursion converges to the decorrelating solution iff
    lambda_max(R) < 2 (eigenvalues of I - R inside the unit circle; R is PSD
    so the lower edge is free).
    """
    r = _real_correlation(correlation, "convergence_check")
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("correlation must be square")
    if not np.allclose(r, r.T, rtol=0.0, atol=1e-10):
        raise ValueError("correlation must be symmetric")
    lam = float(np.linalg.eigvalsh(r)[-1])
    return ConvergenceReport(max_eigenvalue=lam, converges=lam < 2.0)
