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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a correlation matrix admits no real noise-shaping factor."""


@dataclass(frozen=True)
class SpreadingSet:
    """A set of K binary spreading sequences, P chips each, values +/-1."""

    chips: np.ndarray

    def __post_init__(self):
        chips = np.asarray(self.chips)
        if chips.ndim != 2:
            raise ValueError(f"chips must be a (K, P) array, got shape {chips.shape}")
        if not np.all(np.abs(chips) == 1):
            raise ValueError("chips must be +/-1 valued")
        object.__setattr__(self, "chips", chips.astype(np.int8))

    @property
    def users(self) -> int:
        return self.chips.shape[0]

    @property
    def length(self) -> int:
        return self.chips.shape[1]


class ConvergenceReport(NamedTuple):
    max_eigenvalue: float
    converges: bool


def generate_spreading_set(users: int, length: int, rng: np.random.Generator) -> SpreadingSet:
    """Draw K random binary spreading sequences of P chips."""
    if users < 1 or length < 1:
        raise ValueError("users and length must be positive")
    chips = rng.integers(0, 2, size=(users, length)).astype(np.int8) * 2 - 1
    return SpreadingSet(chips)


def correlation_matrix(spreading: SpreadingSet) -> np.ndarray:
    """Normalized cross-correlation matrix R = C C^T / P (unit diagonal)."""
    chips = spreading.chips.astype(np.float64)
    return chips @ chips.T / spreading.length


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
    (tiny negative eigenvalues from roundoff are clipped).  Raises
    NotPositiveSemidefiniteError for genuinely indefinite input.
    """
    r = np.asarray(correlation, dtype=float)
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(r)
    if vals[0] < -1e-10 * max(vals[-1], 1.0):
        raise NotPositiveSemidefiniteError(
            f"correlation matrix is not PSD (min eigenvalue {vals[0]:.3e})"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def convergence_check(correlation: np.ndarray) -> ConvergenceReport:
    """Largest eigenvalue of R and whether the cancellation series converges.

    The stage recursion converges to the decorrelating solution iff
    lambda_max(R) < 2 (eigenvalues of I - R inside the unit circle; R is PSD
    so the lower edge is free).
    """
    r = np.asarray(correlation, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("correlation must be square")
    if not np.allclose(r, r.T, rtol=0.0, atol=1e-10):
        raise ValueError("correlation must be symmetric")
    lam = float(np.linalg.eigvalsh(r)[-1])
    return ConvergenceReport(max_eigenvalue=lam, converges=lam < 2.0)
