"""Synchronous DS-CDMA system model: sequences, correlations, noise shaping.

It owns every spectral certificate: singular, indefinite and nonconv draws.

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


def _real_correlation(correlation: np.ndarray, what: str, single: bool = False) -> np.ndarray:
    """A real (..., K, K) correlation stack as a float array: every real-R input's one check.

    A complex array is refused, not cast: casting would silently drop the
    imaginary part of a complex Hermitian R.  So is any array that is not
    square in its last two axes, and with single, any stack of them.
    """
    r = np.asarray(correlation)
    if np.iscomplexobj(r):
        raise ValueError(f"{what} needs a real correlation matrix")
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError(f"{what}: correlation must be square in its last two axes, got {r.shape}")
    if single and r.ndim != 2:
        raise ValueError(f"{what} takes one (K, K) correlation, got {r.shape}")
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
_CERT_RANK = 3  # eigenpairs per subcarrier in the low-rank nonconv bound
_WS_ALLOWANCE = 1e-12  # rounding allowance of the trace tier, relative to ||G||_F^2


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
    r = _real_correlation(correlation, "convergence_check", single=True)
    if not np.allclose(r, r.T, rtol=0.0, atol=1e-10):
        raise ValueError("correlation must be symmetric")
    lam = float(np.linalg.eigvalsh(r)[-1])
    return ConvergenceReport(max_eigenvalue=lam, converges=lam < 2.0)


def _low_rank_bound(correlations):
    """What the low-rank nonconv certificate needs of one fixed (M, K, K) draw.

    With the top r = _CERT_RANK eigenpairs (lambda_ij, u_ij) of each R_i and
    c = max_i lambda_{r+1}(R_i), every R_i <= c I + sum_j (lambda_ij - c)^+
    u_ij u_ij^T.  With w_ij = u_ij sqrt((lambda_ij - c)^+), returns
    (2 - margin - c, W, T, S): W the (M, r, K) stack of the rows w_ij, T the
    (M, K, r^2) tables w_ijk w_ij'k of each subcarrier, and S the
    (M(M-1)/2, K, r^2) tables w_ijk w_i'j'k of each subcarrier pair i < i'
    (np.triu_indices order); see _unsettled.  None when the bound could
    settle no trial (c >= 2 - margin), or when its Mr x Mr test would be no
    smaller than the dense K x K one (Mr >= K).
    """
    subcarriers, users = correlations.shape[:2]
    if subcarriers * _CERT_RANK >= users:
        return None
    lam, u = np.linalg.eigh(correlations)
    c = lam[:, -_CERT_RANK - 1].max()
    headroom = 2.0 - _CERT_MARGIN - c
    if headroom <= 0:
        return None
    scale = np.sqrt(np.maximum(lam[:, -_CERT_RANK:] - c, 0.0))
    weights = u[:, :, -_CERT_RANK:] * scale[:, None, :]          # (M, K, r)

    def tables(a, b):
        return (a[..., :, None] * b[..., None, :]).reshape(len(a), users, _CERT_RANK**2)

    first, second = np.triu_indices(subcarriers, 1)
    # C order, so that each chunk's product with it reshapes to V^H in place
    return (
        headroom,
        np.ascontiguousarray(weights.transpose(0, 2, 1)),
        tables(weights, weights),
        tables(weights[first], weights[second]),
    )


def _unsettled(bound, x):
    """Mask of the trials that the low-rank bound leaves open; it proves the others convergent.

    x is the (B, M, K) scaled channel h / sqrt(p).  With D_i = diag(x_i),
    H = sum_i D_i^H R_i D_i and sum_i D_i^H D_i = I, so the bound on each R_i
    (see _low_rank_bound) gives H <= c I + V V^H, V = [conj(x_i) w_ij], K x n
    per trial with n = Mr.  Hence lambda_max(H) <= c + lambda_max(G),
    G = V^H V, and lambda_max(G) < headroom = 2 - margin - c proves
    lambda_max(H) < 2 - margin.

    Most trials never form G.  With m = tr G / n and s^2 = ||G||_F^2 / n - m^2,
    the mean and variance of G's eigenvalues, Wolkowicz and Styan (Linear
    Algebra Appl. 29, 1980) give lambda_max(G) <= m + s sqrt(n - 1), with
    equality for rank one and for a multiple of I.  _gram_moments takes
    tr G and ||G||_F^2 from the tables without forming G, to O(K eps)
    relative; as m^2 <= ||G||_F^2 / n, the computed s^2 is then off by a few
    eps ||G||_F^2, which the allowance delta = _WS_ALLOWANCE ||G||_F^2
    covers by orders.  So m + sqrt((n - 1)(s^2 + delta)) < headroom settles
    a trial.  G is formed only for the others, where the same bound on G^2
    (tr G^2 = ||G||_F^2, lambda_max(G^2) = lambda_max(G)^2) is sharper and
    settles most of them.  What it leaves open goes to the dense test, so
    the mask may hold a trial whose lambda_max(G) is below headroom, never
    a settled trial whose lambda_max(G) reaches it.

    Rounding in eigh of R_i and in these n x n products moves the bound by
    O(K eps), a few 1e-15 at lambda ~ 1: six orders inside the 1e-9 margin.
    So a settled trial's lambda_max(H) is below 2 by far more than
    eigvalsh's own error: the dense test would count none of them, and the
    chunk's count stays exact.
    """
    headroom, weights = bound[:2]                             # weights (M, r, K)
    n = weights.shape[0] * weights.shape[1]
    trace, frob2 = _gram_moments(bound, x.transpose(1, 2, 0))
    unsettled = ~_trace_settled(trace, frob2, n, headroom)
    if unsettled.any():
        open_x = x[unsettled]
        vh = (open_x[:, :, None, :] * weights).reshape(len(open_x), n, -1)  # V^H, (B', n, K)
        gram = vh @ np.conj(vh).transpose(0, 2, 1)
        # the same bound on G^2: tr G^2 = ||G||_F^2, lambda_max(G^2) = lambda_max(G)^2
        frob4 = np.sum(np.abs(gram @ gram) ** 2, axis=(1, 2))
        unsettled[unsettled] = ~_trace_settled(frob2[unsettled], frob4, n, headroom**2)
    return unsettled


def _trace_settled(trace, frob2, n, headroom):
    """Trials whose G the Wolkowicz-Styan bound, with its allowance, puts below headroom.

    trace and frob2 are tr G and ||G||_F^2 per trial; see _unsettled.
    """
    mean = trace / n
    spread = (n - 1) * (frob2 / n - mean**2 + _WS_ALLOWANCE * frob2)
    return mean + np.sqrt(np.maximum(spread, 0.0)) < headroom


def _gram_moments(bound, x):
    """tr G and ||G||_F^2 of each trial's G = V^H V (see _unsettled), without G.

    x is the user-major (M, K, B) x = h / sqrt(p).  Block (i, i) of G is
    |x_i|^2 against the table w_ijk w_ij'k, and block (i, i') is
    x_i conj(x_i') against w_ijk w_i'j'k: one real GEMM per subcarrier,
    (r^2, K) @ (K, B), for |x_i|^2, and one per subcarrier pair i < i',
    (r^2, K) @ (K, 2B), on the interleaved float view of the complex
    conj(x_i) x_i', whose block has the same squared magnitudes.  Block
    (i', i) is the conjugate transpose of (i, i').  The squares are summed
    over trial-contiguous rows.
    """
    rank, diagonal, pairs = bound[1].shape[1], bound[2], bound[3]
    m, users, trials = x.shape
    square = np.square(np.ascontiguousarray(x).view(float))
    blocks = np.matmul(diagonal.transpose(0, 2, 1), square[..., ::2] + square[..., 1::2])
    trace = blocks[:, :: rank + 1].sum(axis=(0, 1))                 # blocks (M, r^2, B)
    frob2 = np.square(blocks).reshape(-1, trials).sum(axis=0)
    if len(pairs):
        # conj(x_i) x_i' as (pairs, K, B), pairs in triu_indices order
        z = np.empty((len(pairs), users, trials), dtype=complex)
        at = 0
        for i in range(m - 1):
            np.multiply(np.conj(x[i]), x[i + 1 :], out=z[at : at + m - 1 - i])
            at += m - 1 - i
        parts = np.matmul(pairs.transpose(0, 2, 1), z.view(float))     # (pairs, r^2, 2B)
        sums = np.square(parts).reshape(-1, 2 * trials).sum(axis=0)
        frob2 += 2.0 * (sums[::2] + sums[1::2])
    return trace, frob2


def _count_nonconvergent(herm) -> int:
    """Count the draws of a Hermitian (B, K, K) stack with lambda_max >= 2, exactly.

    (2 - margin) I - H is positive definite exactly when lambda_max(H) <
    2 - margin.  So one successful batched Cholesky proves every draw
    convergent; only a chunk where it fails pays for eigvalsh.  The margin
    dwarfs the factorisation's rounding, so the count equals eigvalsh's on
    every draw.
    """
    if _factorizes(-herm, 2.0 - _CERT_MARGIN):
        return 0
    lam_max = np.linalg.eigvalsh(herm)[:, -1]
    return int(np.count_nonzero(lam_max >= 2.0))
