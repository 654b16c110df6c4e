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
  * Bit decisions are sign(Re(conj(h_k) y_k)), a computed zero resolved to
    +1.  A statistic that is zero in exact arithmetic is decided by the sign
    of its rounding, and tests/reference.py counts it as a tie.
  * Users are indexed from 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a correlation matrix admits no real noise-shaping factor."""


def _real_correlation(correlation: np.ndarray, what: str) -> np.ndarray:
    """A real (..., K, K) correlation stack as a float array: every real-R input's one check.

    A complex array is refused, not cast: casting would silently drop the
    imaginary part of a complex Hermitian R.  So is any array that is not
    square in its last two axes.
    """
    r = np.asarray(correlation)
    if np.iscomplexobj(r):
        raise ValueError(f"{what} needs a real correlation matrix")
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError(f"{what}: correlation must be square in its last two axes, got {r.shape}")
    return r.astype(float, copy=False)


class ConvergenceReport(NamedTuple):
    max_eigenvalue: float
    converges: bool


def generate_spreading_set(users: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Draw K random binary spreading sequences of P chips: a (K, P) int8 +/-1 array."""
    if users < 1 or length < 1:
        raise ValueError("users and length must be positive")
    return rng.integers(0, 2, size=(users, length)).astype(np.int8) * 2 - 1


# row 2 h + l: the +/-1 draws (low half, high half) of a word whose halves give bits l, h
_SIGN_PAIRS = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])


class _SignDraws:
    """+/-1 draws of rng.integers(0, 2) * 2 - 1 read straight from PCG64's raw words.

    For a range of 2, integers(0, 2) (int64) is Lemire's multiply-shift on
    successive 32-bit halves of the 64-bit outputs, low half first, so each
    value is half >> 31.  A word's high half waits in the generator's 32-bit
    buffer (has_uint32, uinteger) for the next value; normals and doubles
    read whole words and leave it there.  read(n) queues the next n values
    with at most one random_raw call; values() returns every queued value,
    in order, as float64 +/-1, and leaves the generator in the state the
    integers calls would have.  Between the two, draw nothing that reads
    32-bit halves.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        assert isinstance(bitgen, np.random.PCG64), "raw sign draws read PCG64 words"
        state = bitgen.state
        self._bitgen, self._raw = bitgen, bitgen.random_raw
        self._buffer = (state["has_uint32"], state["uinteger"])
        self._head = self._pending = state["has_uint32"]
        # a buffered half is the high half of a word: the code reads it as one
        self._words = [np.array([state["uinteger"] << 32], np.uint64)] if self._head else []
        self._count = 0

    def read(self, n: int) -> None:
        if n:
            take = n - self._pending  # values the buffered half does not serve
            self._pending = take & 1
            self._count += n
            if take:
                self._words.append(self._raw((take + 1) >> 1))

    def values(self) -> np.ndarray:
        state = self._bitgen.state
        assert (state["has_uint32"], state["uinteger"]) == self._buffer, "halves read meanwhile"
        if not self._words:
            return np.empty(0)
        words = np.concatenate(self._words)
        code = words >> 62
        code &= 2
        code |= words >> 31 & 1
        pairs = _SIGN_PAIRS.take(code.view(np.int64), axis=0)
        state["has_uint32"], state["uinteger"] = self._pending, int(words[-1]) >> 32
        self._bitgen.state = state
        return pairs.reshape(-1)[self._head : self._head + self._count]


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
    c = c.astype(np.float64, copy=False)
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


_PIVOT_RTOL = 1e3 * np.finfo(float).eps  # singularity threshold for inversions and noise shaping
_CERT_MARGIN = 1e-9  # Cholesky certificate margin, far above rounding


def _factorizes(shifted, shift) -> bool:
    """Whether every draw of shifted + diag(shift) has a Cholesky factor; overwrites shifted."""
    diag = np.arange(shifted.shape[-1])
    shifted[..., diag, diag] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _proved_regular(matrix: np.ndarray) -> bool:
    """Whether one batched Cholesky proves every draw of a Hermitian stack regular.

    A positive definite A has lambda_max <= tr(A), so a Cholesky of
    A - (rtol tr(A) + margin) I proves lambda_min > _PIVOT_RTOL lambda_max.
    """
    trace = np.trace(matrix, axis1=-2, axis2=-1).real
    return _factorizes(matrix.copy(), -(_PIVOT_RTOL * trace + _CERT_MARGIN)[..., None])


def singular_draws(matrix: np.ndarray) -> np.ndarray:
    """Mask of the draws of a Hermitian (..., K, K) stack with min |eig| <= _PIVOT_RTOL max |eig|.

    The pivot threshold of every inversion; eigvalsh runs only where _proved_regular fails.
    """
    if _proved_regular(matrix):
        return np.zeros(matrix.shape[:-2], dtype=bool)
    vals = np.abs(np.linalg.eigvalsh(matrix))
    return vals.min(axis=-1) <= _PIVOT_RTOL * vals.max(axis=-1)


def _first_draw(mask: np.ndarray) -> tuple[tuple, str]:
    """Index of a mask's first flagged draw, and its " at draw i,j" suffix ("" for one draw)."""
    at = np.unravel_index(np.argmax(mask), mask.shape)
    return at, f" at draw {','.join(str(int(i)) for i in at)}" if at else ""


def noise_transform(correlation: np.ndarray) -> np.ndarray:
    """Real factor L with L L^T = R, used to shape white noise; a stack gives a stack.

    A draw whose eigenvalues clear the pivot threshold takes its Cholesky
    factor.  Any other (a singular one, on a PSD stack) takes the unique PSD
    root U sqrt(Lambda) U^T, sub-threshold eigenvalues zeroed, so neither
    LAPACK's eigenbasis nor whether a kernel's Cholesky passes can change it.
    Raises NotPositiveSemidefiniteError, naming the draw, for indefinite input.
    """
    r = _real_correlation(correlation, "noise_transform")
    if _proved_regular(r):
        return np.linalg.cholesky(r)
    vals, vecs = np.linalg.eigh(r)
    indefinite = _indefinite(vals)
    if np.any(indefinite):
        at, where = _first_draw(indefinite)
        raise NotPositiveSemidefiniteError(
            f"correlation matrix is not PSD{where} (min eigenvalue {vals[at][0]:.3e})"
        )
    floor = _PIVOT_RTOL * np.abs(vals).max(axis=-1, keepdims=True)
    out = (vecs * np.sqrt(np.where(vals > floor, vals, 0.0))[..., None, :]) @ vecs.swapaxes(-1, -2)
    regular = vals[..., 0] > floor[..., 0]
    out[regular] = np.linalg.cholesky(r[regular])
    return out


def _indefinite(eigenvalues: np.ndarray) -> np.ndarray:
    """Whether ascending (..., K) spectra go further below zero than a PSD matrix's rounding.

    That is lambda_min < -1e-10 max(lambda_max, 1).
    """
    return eigenvalues[..., 0] < -1e-10 * np.maximum(eigenvalues[..., -1], 1.0)


def convergence_check(correlation: np.ndarray) -> ConvergenceReport:
    """Largest eigenvalue of R and whether the cancellation series converges.

    The stage recursion converges to the decorrelating solution iff
    lambda_max(R) < 2 (eigenvalues of I - R inside the unit circle; R is PSD
    so the lower edge is free).
    """
    r = _real_correlation(correlation, "convergence_check")
    if r.ndim != 2:
        raise ValueError(f"convergence_check takes one (K, K) correlation, got {r.shape}")
    if not np.allclose(r, r.T, rtol=0.0, atol=1e-10):
        raise ValueError("correlation must be symmetric")
    lam = float(np.linalg.eigvalsh(r)[-1])
    return ConvergenceReport(max_eigenvalue=lam, converges=lam < 2.0)
