"""Output SINR analysis and optimal weights for the zero-diagonal filter family.

The weighted filter's stage-m output for user k collapses to

    y_k^(m) = y_k^(1) - w_k^(m) * sum_{i != k} q_ki y_i^(1)

where the combining coefficients q_ki depend only on R and on the weights of
stages below m.  With unit-power Rayleigh fading and noise covariance
sigma2 * R, the per-user output SINR is an exact rational function of the
stage weight w, so the optimal weight is available in closed form.  All of
Fig.-1-style weight sweeps, per-stage optimal schedules, and the third-stage
equicorrelated SIR comparison live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import _checked_schedule, _weighted_steps, cancellation_partials
from .model import _real_correlation

# relative threshold below which the optimum denominator counts as degenerate
_DEGENERATE_RTOL = 1e-13


@dataclass(frozen=True)
class SinrBreakdown:
    """Coefficients of the stage-m SINR as a function of the stage weight w.

    sinr(w) = A_k^2 (1 - a w)^2 / (sigma_I^2(w) + sigma_N^2(w)) with
    sigma_I^2 = b - 2 w d + w^2 c   (residual multiple-access interference)
    sigma_N^2 = sigma2 (1 - 2 w a + w^2 e)   (filtered noise, covariance R)

    w_opt is None when the optimum denominator vanishes (no unique optimum;
    happens for orthogonal sequences, R = I, where the curve is flat).
    """

    user: int
    stage: int
    amplitude: float
    sigma2: float
    a: float
    b: float
    c: float
    d: float
    e: float
    w_opt: float | None
    degenerate: bool

    def interference_power(self, w):
        w = np.asarray(w, dtype=float)
        return self.b - 2.0 * w * self.d + w**2 * self.c

    def noise_power(self, w):
        w = np.asarray(w, dtype=float)
        return self.sigma2 * (1.0 - 2.0 * w * self.a + w**2 * self.e)

    def sinr(self, w):
        w = np.asarray(w, dtype=float)
        num = self.amplitude**2 * (1.0 - self.a * w) ** 2
        return num / (self.interference_power(w) + self.noise_power(w))


def q_matrix(
    correlation: np.ndarray,
    prior_weights: np.ndarray | None,
    stage: int,
) -> np.ndarray:
    """Full K x K matrix of combining coefficients q_ki at a given stage.

    Row k holds user k's coefficients (zero diagonal).  Computed by the
    matrix recursion (cancellation_partials) of the weighted stage expansion:
    Q = -(C_1 + ... + C_{m-1}) with C_1 = I - R and
    C_n = zero_diagonal(C_{n-1} W_{m-n+1} (I - R)), which costs O(K^3) per
    stage instead of the nested interference sums' O(K^m).

    prior_weights, a (..., stages-1, K) schedule, must cover stages 2..m-1
    (None means unit weights).  At m = 2 the coefficients are just the
    cross-correlations.  A (..., K, K) stack of correlations, with a
    schedule of the same leading axes, gives a stack of Q matrices.
    """
    r = _real_correlation(correlation, "q_matrix")
    k = r.shape[-1]
    if stage < 2:
        raise ValueError("combining coefficients are defined for stages >= 2")
    if prior_weights is not None:
        prior_weights = _checked_schedule(prior_weights, k, stage - 1)
    return _q(np.eye(k) - r, prior_weights, stage)


def _q(step: np.ndarray, prior_weights: np.ndarray | None, stage: int) -> np.ndarray:
    """q_matrix from the step I - R, with checked prior weights."""
    steps = _weighted_steps(step, prior_weights, stage - 1)
    *_, total = cancellation_partials(step, steps, hollow=True)
    return -total


def _stage_invariants(correlation: np.ndarray, amplitudes: np.ndarray):
    """What every stage's _breakdown_terms shares: (off, rho, a2, b).

    off masks the off-diagonal, rho = R there, a2 holds the squared
    amplitudes and b = rho^2 a2 is the stage-free interference power.
    """
    off = ~np.eye(correlation.shape[-1], dtype=bool)
    rho = np.where(off, correlation, 0.0)
    a2 = amplitudes**2
    return off, rho, a2, rho**2 @ a2


def _breakdown_terms(correlation: np.ndarray, q: np.ndarray, sigma2: float, invariants):
    """SINR coefficients of every user at once from the full Q matrix.

    invariants are the correlation's _stage_invariants.  Returns
    (a, b, c, d, e, w_opt, degenerate), each of shape (..., K) for
    (..., K, K) inputs; w_opt is 1 where degenerate.  Row k of G = Q R holds
    g_i = q_i + sum_{l != i,k} q_l rho_li for user k; the interference sums
    run over i != k.
    """
    r = correlation
    off, rho, a2, b = invariants
    g = q @ r
    g_off = np.where(off, g, 0.0)

    a = np.sum(q * r, axis=-1)  # q[k, k] = 0 excludes the diagonal term
    c = g_off**2 @ a2
    d = (rho * g_off) @ a2
    e = np.sum(g * q, axis=-1)  # includes i = j terms; exact for noise cov sigma2 R

    num = d - a * b
    den = c - a * d + sigma2 * (e - a * a)
    scale = np.maximum.reduce(
        [np.abs(c), np.abs(a * d), sigma2 * np.abs(e), sigma2 * a * a, np.ones_like(a)]
    )
    degenerate = np.abs(den) <= _DEGENERATE_RTOL * scale
    w_opt = np.divide(num, den, out=np.ones_like(a), where=~degenerate)
    return a, b, c, d, e, w_opt, degenerate


def sinr_breakdown(
    correlation: np.ndarray,
    amplitudes: np.ndarray,
    sigma2: float,
    prior_weights: np.ndarray | None,
    user: int,
    stage: int,
) -> SinrBreakdown:
    """Closed-form stage-m SINR coefficients and optimal weight for one user.

    The optimum w_opt = (d - ab) / (c - ad + sigma2 (e - a^2)) is the
    stationary point of sinr(w); for K = 2 and equal amplitudes it reduces to
    A^2 / (A^2 + sigma2) independent of the cross-correlation.
    """
    r = _real_correlation(correlation, "sinr_breakdown", single=True)
    amps = np.asarray(amplitudes, dtype=float)
    k = r.shape[0]
    if amps.shape != (k,):
        raise ValueError("amplitudes must have length K")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if not 0 <= user < k:
        raise ValueError(f"user {user} out of range for K={k}")
    terms = _breakdown_terms(
        r, q_matrix(r, prior_weights, stage), sigma2, _stage_invariants(r, amps)
    )
    a, b, c, d, e, w_opt, degenerate = (v[user].item() for v in terms)
    return SinrBreakdown(
        user=user,
        stage=stage,
        amplitude=float(amps[user]),
        sigma2=float(sigma2),
        a=a,
        b=b,
        c=c,
        d=d,
        e=e,
        w_opt=None if degenerate else w_opt,
        degenerate=degenerate,
    )


def compute_weight_schedule(
    correlation: np.ndarray,
    amplitudes: np.ndarray,
    sigma2: float,
    max_stage: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stage optimal weights for all users, stages 2..max_stage.

    Returns (weights, degenerate): the (max_stage-1, K) schedule, row m-2
    holding stage m's weights, and the mask of its entries where the optimum
    is degenerate (flat SINR, e.g. R = I) and the weight falls back to 1.
    Stage m's coefficients are computed with all lower stages already at
    their optimal weights, so the schedule is built bottom-up and is
    deterministic.  A (..., K, K) stack of correlations gives both with the
    same leading axes; it fails if any draw's weights are not finite.
    """
    r = _real_correlation(correlation, "compute_weight_schedule")
    amps = np.asarray(amplitudes, dtype=float)
    if max_stage < 2:
        raise ValueError("max_stage must be >= 2")
    weights = np.empty(r.shape[:-2] + (max_stage - 1, r.shape[-1]))
    degen = np.empty(weights.shape, dtype=bool)
    step, invariants = np.eye(r.shape[-1]) - r, _stage_invariants(r, amps)
    for m in range(2, max_stage + 1):
        q = _q(step, _checked_schedule(weights[..., : m - 2, :], r.shape[-1], m - 1), m)
        *_, w, d = _breakdown_terms(r, q, sigma2, invariants)
        weights[..., m - 2, :], degen[..., m - 2, :] = w, d
    return _checked_schedule(weights, r.shape[-1], max_stage), degen


@dataclass(frozen=True)
class EquicorrSirReport:
    """Third-stage output SIR comparison for an equicorrelated channel.

    sir_gain is the amplitude-domain improvement factor of the zero-diagonal
    filter over the conventional one, i.e. sqrt(sir_proposed /
    sir_conventional); it exceeds 1 exactly when (K-1) rho < 1 (for rho > 0).
    """

    users: int
    rho: float
    sir_conventional: float
    sir_proposed: float
    sir_gain: float
    converges: bool


def equicorr_sir_report(users: int, rho: float) -> EquicorrSirReport:
    """Closed-form third-stage SIRs and their ratio for R equicorrelated.

    Noiseless, unit amplitudes.  The conventional filter's interference
    carries an extra (K-1) rho^3 per-interferer term that the zero-diagonal
    filter does not regenerate, which is the entire gap.
    """
    k = users
    if k < 3:
        raise ValueError("the third-stage comparison needs K >= 3")
    if rho == 0:
        raise ValueError("rho must be nonzero (both SIRs are infinite at rho = 0)")
    if not -1.0 / (k - 1) <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside the PSD range for K={k}")

    sig_conv = 1.0 + (k - 1) * (k - 2) * rho**3
    per_interferer_conv = (k - 1) * rho**3 + (k - 2) ** 2 * rho**3
    sir_conv = sig_conv**2 / ((k - 1) * per_interferer_conv**2)

    sig_prop = 1.0 - (k - 1) * rho**2 + (k - 1) * (k - 2) * rho**3
    per_interferer_prop = (k - 2) ** 2 * rho**3
    sir_prop = sig_prop**2 / ((k - 1) * per_interferer_prop**2)

    gain = 1.0 + (k - 1) * (1.0 - (k - 2) * rho) * (1.0 + (k - 2) * rho - (k - 1) * rho**2) / (
        (k - 2) ** 2 * (1.0 + (k - 1) * (k - 2) * rho**3)
    )
    return EquicorrSirReport(
        users=k,
        rho=float(rho),
        sir_conventional=sir_conv,
        sir_proposed=sir_prop,
        sir_gain=gain,
        converges=(k - 1) * rho < 1.0,
    )
