"""Matrix-filter detectors for multistage linear parallel interference cancellation.

Every detector here is a one-shot K x K linear filter applied to the matched
filter bank output, a plain array built by build_filter(kind, R, stage, ...)
from a real R (model._real_correlation refuses a complex one).  It also
takes a stack of correlation matrices with leading draw axes, shape
(..., K, K), and returns the stack of filters that per-draw builds would
give, bit for bit.  build_filter(..., rows=...) builds only the given rows
of each filter, which is all a detector that counts some users needs.  The
m-stage cancellation structures are represented in closed matrix form, and
every one of them sums the one stage recursion, cancellation_series, whose
row i needs only row i of the term before it:

  * conventional: truncated series G = I + (I-R) + ... + (I-R)^(m-1), the sum
    of the powers B_n = B_{n-1} (I-R).  Converges to R^-1 iff
    lambda_max(R) < 2.
  * proposed: same series but each partial product has its diagonal forced to
    zero before the next stage, which stops the filter from cancelling the
    desired-signal and noise content it just restored.  Sum of B_j with
    B_0 = I, B_n = zero_diagonal(B_{n-1} (I-R)).
  * mmse_converging: per-stage scalar weights mu_i = 1/(lambda_i + sigma2)
    built from the eigenvalues of R; reaches (R + sigma2 I)^-1 exactly at
    stage K.
  * modified_mmse: the mmse_converging structure with zero-diagonal products.
  * weighted_proposed: the proposed structure with per-user, per-stage weights.
  * decorrelator (R^-1), mmse ((R + sigma2 I)^-1), and the trivial mf identity.
    Rows of an inverse come from one solve against columns of the identity.

The type2 harness sums the same kernel for its chains on the complex
combined-domain H itself, with a matrix-free step (a callable; see
cancellation_series); no filter is built on a complex matrix.
"""

from __future__ import annotations

import numpy as np

from .model import _first_draw, _indefinite, _real_correlation, singular_draws

FILTER_KINDS = (
    "mf",
    "conventional",
    "proposed",
    "mmse_converging",
    "modified_mmse",
    "weighted_proposed",
    "decorrelator",
    "mmse",
)

# kinds whose filter matrix varies with the stage index
STAGED_KINDS = ("conventional", "proposed", "mmse_converging", "modified_mmse", "weighted_proposed")

# kinds whose filter takes the spectrum of R (and can be handed it precomputed)
SPECTRAL_KINDS = ("mmse_converging", "modified_mmse")


class SingularMatrixError(ValueError):
    """Raised when an inversion-based filter meets an effectively singular matrix."""


def _diagonal(rows: np.ndarray) -> tuple:
    """Index of entries (i, rows[i]): the diagonal entries, in a stack of those rows."""
    return ..., np.arange(len(rows)), rows


def _hollow(m: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Force the diagonal of a square matrix (or stack) to zero in place.

    rows, if given, says which rows of the square matrix m holds: entry
    (i, rows[i]) is zeroed.
    """
    m[_diagonal(np.arange(m.shape[-1]) if rows is None else rows)] = 0
    return m


def _checked_schedule(schedule, users: int, stage: int) -> np.ndarray:
    """A weight schedule as a float array, checked to serve stages 2..stage.

    A schedule is a (..., stages-1, K) array whose row m-2 holds stage m's
    per-user weights.
    """
    w = np.asarray(schedule, dtype=float)
    if w.ndim < 2 or w.shape[-1] != users:
        raise ValueError(f"schedule must be a (..., stages-1, K={users}) array, got {w.shape}")
    if w.shape[-2] < stage - 1:
        raise ValueError(f"schedule covers stages up to {w.shape[-2] + 1}, need {stage}")
    if not np.all(np.isfinite(w)):
        raise ValueError("schedule weights must be finite")
    return w


def _weighted_steps(step: np.ndarray, schedule: np.ndarray | None, stage: int):
    """The steps diag(w_s) (I - R) for s = stage, stage-1, ..., 2 (None: unit weights).

    diag(w) (I - R) is a row scaling; the steps come in the order the
    zero-diagonal recursion consumes them.
    """
    if schedule is None:
        return [step] * (stage - 1)
    return (schedule[..., s - 2, :, None] * step for s in range(stage, 1, -1))


def _identities(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The identity's rows, one (R, K) copy per matrix of r: stage one of every series."""
    out = np.zeros(r.shape[:-2] + (len(rows), r.shape[-1]), dtype=r.dtype)
    out[_diagonal(rows)] = 1
    return out


def cancellation_series(first, steps, hollow: bool, coefs=None, rows=None) -> np.ndarray:
    """The stage recursion: sum_n c_n T_n with T_0 = first and T_n = T_{n-1} S_n.

    steps yields S_1, S_2, ...: each a matrix, or a callable that takes
    T_{n-1} to T_n without forming S_n (a matrix-free step).  With hollow set,
    each new product T_n (n >= 1) has its diagonal zeroed before it is
    summed and carried on.  coefs holds c_0, c_1, ... (None means every
    c_n = 1).  Takes (..., K, K) stacks, real or complex; c_0 T_0 must
    already have the result's shape.  Row i of T_n needs only row i of
    T_{n-1}, so first may hold some rows of T_0 alone, (..., R, K): rows
    then names them (an index array into K), and hollowing zeroes entry
    (i, rows[i]).
    """
    *_, total = cancellation_partials(first, steps, hollow, coefs, rows)
    return total


def cancellation_partials(first, steps, hollow: bool, coefs=None, rows=None):
    """Yield every partial sum of cancellation_series: c_0 T_0, then + c_1 T_1, ...

    One pass gives the filters of stages 1, 2, ... with the products and
    additions of the last one's build, in the same order.  The yielded array
    is the running total, updated in place by the next step: copy it to keep it.
    """
    part = first
    total = first.copy() if coefs is None else coefs[0] * first
    yield total
    for n, step in enumerate(steps, 1):
        part = step(part) if callable(step) else part @ step
        if hollow:
            _hollow(part, rows)
        total += part if coefs is None else coefs[n] * part
        yield total


def mmse_stage_weights(
    correlation: np.ndarray, sigma2: float, eigenvalues: np.ndarray | None = None
) -> np.ndarray:
    """Scalar stage weights mu_i = 1/(lambda_i + sigma2) from the spectrum of R.

    Eigenvalues are taken in descending order; the order changes the
    intermediate filters (not the stage-K limit) and is part of the
    detector's definition here.  A stack of matrices gives (..., K) weights
    and fails if any of them is not PSD.  eigenvalues, if given, must be
    np.linalg.eigvalsh(correlation); it saves decomposing R again.
    """
    r = _real_correlation(correlation, "mmse_stage_weights")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if eigenvalues is None:
        lams = np.linalg.eigvalsh(r)
    else:
        lams = np.asarray(eigenvalues, dtype=float)
        if lams.shape != r.shape[:-1]:
            raise ValueError(f"eigenvalues of shape {lams.shape} do not fit correlations {r.shape}")
    if np.any(_indefinite(lams)):
        raise ValueError("correlation must be PSD for the mmse stage weights")
    return 1.0 / (lams[..., ::-1] + sigma2)


def _guarded_inverse(matrix: np.ndarray, what: str, rows=None) -> np.ndarray:
    """Inverse (or its rows) with an explicit smallest-pivot singularity threshold.

    A stack is inverted draw by draw and fails if any draw is singular.  Rows
    of A^-1 are columns of A^-T, so given rows (an index array into K) take
    one solve against those columns of the identity.
    """
    singular = singular_draws(matrix)
    if np.any(singular):
        at, where = _first_draw(singular)
        mags = np.abs(np.linalg.eigvalsh(matrix[at]))
        raise SingularMatrixError(
            f"{what} is singular to working precision{where} "
            f"(|eig| range {mags.min():.3e}..{mags.max():.3e})"
        )
    eye = np.eye(matrix.shape[-1])
    if rows is None:
        return np.linalg.solve(matrix, eye)
    return np.linalg.solve(matrix.swapaxes(-1, -2), eye[:, rows]).swapaxes(-1, -2)


def _power_series(r, stage, hollow, schedule, rows) -> np.ndarray:
    """Sum of B_j with B_0 = I and B_n = B_{n-1} W_{m-n+1} (I-R), in the given rows.

    Plain (conventional): I + (I-R) + ... + (I-R)^(m-1).  Hollow (proposed,
    weighted_proposed): each B_n has its diagonal zeroed, which keeps each
    stage from re-cancelling the desired-signal and noise terms the previous
    one restored.  W_s = diag(schedule[..., s-2, :]); no schedule means unit
    weights.  A stacked schedule pairs draw by draw with a stack of
    correlations.
    """
    step = np.eye(r.shape[-1]) - r
    steps = _weighted_steps(step, schedule, stage)
    return cancellation_series(_identities(r, rows), steps, hollow, rows=rows)


def _mmse_series(r, sigma2, stage, hollow, eigenvalues, rows) -> np.ndarray:
    """mu_m I + sum_i mu_{m-i} J_i, J_0 = I, J_i = J_{i-1} (I - mu_{m-i+1} (R + sigma2 I)).

    Plain (mmse_converging): the factors commute, and because each mu_i
    annihilates eigenvalue lambda_i exactly, stage K equals (R + sigma2 I)^-1
    to machine precision.  Hollow (modified_mmse): each J_i has its diagonal
    zeroed.  Its J terms use the same weight indices as the plain filter's
    products, so stage m consumes only mu_1..mu_m; anchoring them at K instead
    leaves the final stage unchanged but wrecks the intermediate filters for
    one eigenvalue order or the other (large steps enter the hollow products
    first and the early or late stages diverge).  Hollowing breaks the
    telescoping, so its stage K is a near-diagonal row rescaling of
    (R + sigma2 I)^-1, which leaves sign decisions unchanged.  Built in the
    given rows alone.
    """
    mu = mmse_stage_weights(r, sigma2, eigenvalues)[..., None, None]
    eye = np.eye(r.shape[-1])
    s = r + sigma2 * eye
    # term i carries mu_{m-i} and extends the product by I - mu_{m-i+1} S
    coefs = [mu[..., stage - 1 - i, :, :] for i in range(stage)]
    factors = (mu[..., stage - i, :, :] * s for i in range(1, stage))
    steps = (np.subtract(eye, f, out=f) for f in factors)
    return cancellation_series(eye[rows], steps, hollow, coefs, rows)


def build_filter(
    kind: str,
    correlation: np.ndarray,
    stage: int,
    sigma2: float | None = None,
    schedule: np.ndarray | None = None,
    eigenvalues: np.ndarray | None = None,
    rows=None,
) -> np.ndarray:
    """The K x K filter matrix of any detector kind, by name, or some of its rows.

    A (..., K, K) stack of correlations gives the (..., K, K) stack of
    filters.  rows (a slice or index array into K) builds only those rows,
    (..., R, K), without forming the others; None builds them all.  The
    stage is ignored by the kinds outside STAGED_KINDS.
    sigma2 >= 0 is required for the mmse family, and mmse_converging and
    modified_mmse need stage <= K.  weighted_proposed at stage >= 2 needs a
    (..., stages-1, K) weight schedule covering the stage (row m-2 holds
    stage m's weights).  Every kind takes a real correlation only (see
    model._real_correlation).  eigenvalues, if given, must be
    np.linalg.eigvalsh(correlation): the SPECTRAL_KINDS builds use it
    instead of decomposing R again, the others ignore it.
    The decorrelator and mmse test their matrix for singularity themselves
    (singular_draws), and need no spectrum.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    r = _real_correlation(correlation, f"filter kind {kind!r}")
    k = r.shape[-1]
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if kind in ("mmse", "mmse_converging", "modified_mmse"):
        if sigma2 is None:
            raise ValueError(f"filter kind {kind!r} requires sigma2")
        if sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if kind != "mmse" and stage > k:
            raise ValueError(f"stage must be in 1..K={k}")
    if kind == "weighted_proposed":
        if schedule is None and stage > 1:
            raise ValueError("weighted_proposed requires a weight schedule")
        if schedule is not None:
            schedule = _checked_schedule(schedule, k, stage)
    index = np.arange(k) if rows is None else np.arange(k)[rows]
    if index.ndim != 1:
        raise ValueError("rows must be a slice or a 1-D index array")

    if kind == "mf":
        return np.broadcast_to(np.eye(k)[index], r.shape[:-2] + (len(index), k))
    if kind in ("conventional", "proposed", "weighted_proposed"):
        weights = schedule if kind == "weighted_proposed" else None
        return _power_series(r, stage, kind != "conventional", weights, index)
    inverse_rows = None if rows is None else index  # None: one solve against the whole identity
    if kind == "decorrelator":
        return _guarded_inverse(r, "correlation matrix", inverse_rows)
    if kind == "mmse":
        return _guarded_inverse(r + sigma2 * np.eye(k), "R + sigma2 I", inverse_rows)
    return _mmse_series(r, sigma2, stage, kind == "modified_mmse", eigenvalues, index)
