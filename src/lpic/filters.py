"""Matrix-filter detectors for multistage linear parallel interference cancellation.

Every detector here is a one-shot K x K linear filter applied to the matched
filter bank output, a plain array built by build_filter(kind, R, stage, ...).
It also takes a stack of correlation matrices with leading draw axes, shape
(..., K, K), and returns the stack of filters that per-draw builds would
give, bit for bit.  The m-stage cancellation structures are represented in
closed matrix form; all but the conventional one sum the one stage
recursion, cancellation_series:

  * conventional: truncated series G = I + (I-R) + ... + (I-R)^(m-1), built by
    the stage recursion G <- I + (I-R) G.  Converges to R^-1 iff
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import convergence_check

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

# kinds whose build takes the spectrum of R (and can be handed it precomputed)
SPECTRAL_KINDS = ("mmse_converging", "modified_mmse", "decorrelator")

# kinds built on the complex R_eff of the combined domain as well
_COMPLEX_KINDS = ("mf", "conventional", "proposed")

_PIVOT_RTOL = 1e3 * np.finfo(float).eps  # singularity threshold for inversions
_LIMIT_MAX_STAGES = 1000  # limit_scaling_matrix gives up after this many


class SingularMatrixError(ValueError):
    """Raised when an inversion-based filter meets an effectively singular matrix."""


@dataclass(frozen=True)
class WeightSchedule:
    """Per-stage, per-user cancellation weights.

    Row j holds the weights applied at stage j+2; the first stage always has
    weight zero (nothing to cancel yet), so a schedule covering stages up to m
    has m-1 rows.  The optional degenerate mask marks entries where a weight
    optimizer found no unique optimum and fell back to 1.  A schedule for a
    stack of draws has leading axes, weights (..., stages-1, K), and
    schedule[i] selects draw i.
    """

    weights: np.ndarray
    degenerate: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim < 2:
            raise ValueError("weights must be a (..., stages-1, K) array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)
        if self.degenerate is not None:
            d = np.asarray(self.degenerate, dtype=bool)
            if d.shape != w.shape:
                raise ValueError("degenerate mask must match the weights shape")
            object.__setattr__(self, "degenerate", d)

    @property
    def users(self) -> int:
        return self.weights.shape[-1]

    @property
    def max_stage(self) -> int:
        return self.weights.shape[-2] + 1

    def stage(self, m: int) -> np.ndarray:
        """Weight vector for stage m (2 <= m <= max_stage), shape (..., K)."""
        if not 2 <= m <= self.max_stage:
            raise ValueError(f"stage {m} outside schedule range 2..{self.max_stage}")
        return self.weights[..., m - 2, :]

    def __getitem__(self, index) -> "WeightSchedule":
        """The schedule of one draw (or sub-stack) of a stacked schedule."""
        if self.weights.ndim == 2:
            raise IndexError("schedule has no draw axis")
        degenerate = None if self.degenerate is None else self.degenerate[index]
        return WeightSchedule(self.weights[index], degenerate)

    @classmethod
    def unit(cls, users: int, max_stage: int) -> "WeightSchedule":
        return cls(np.ones((max_stage - 1, users)))


def zero_diagonal(matrix: np.ndarray) -> np.ndarray:
    """Copy of a square matrix (or a stack of them) with the diagonal forced to zero."""
    m = np.array(matrix)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("zero_diagonal needs a square matrix")
    return _hollow(m)


def _hollow(m: np.ndarray) -> np.ndarray:
    """Force the diagonal of a square matrix (or stack) to zero in place."""
    diag = np.arange(m.shape[-1])
    m[..., diag, diag] = 0
    return m


def _check_square(correlation: np.ndarray) -> np.ndarray:
    r = np.asarray(correlation)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError("correlation must be a square matrix (in its last two axes)")
    return r


def _identities(r: np.ndarray) -> np.ndarray:
    """Identity matrices shaped like r: stage one of every series filter."""
    out = np.zeros_like(r)
    diag = np.arange(r.shape[-1])
    out[..., diag, diag] = 1
    return out


def cancellation_series(first, steps, hollow: bool, coefs=None) -> np.ndarray:
    """The stage recursion: sum_n c_n T_n with T_0 = first and T_n = T_{n-1} S_n.

    steps yields S_1, S_2, ...; with hollow set, each new product T_n (n >= 1)
    has its diagonal zeroed before it is summed and carried on.  coefs holds
    c_0, c_1, ... (None means every c_n = 1).  Takes (..., K, K) stacks, real
    or complex; c_0 T_0 must already have the result's shape.
    """
    part = first
    total = first.copy() if coefs is None else coefs[0] * first
    for n, step in enumerate(steps, 1):
        part = part @ step
        if hollow:
            _hollow(part)
        total += part if coefs is None else coefs[n] * part
    return total


def _spectrum(r: np.ndarray, eigenvalues: np.ndarray | None) -> np.ndarray:
    """Ascending eigenvalues of r: the given ones, or eigvalsh(r)."""
    if eigenvalues is None:
        return np.linalg.eigvalsh(r)
    lams = np.asarray(eigenvalues, dtype=float)
    if lams.shape != r.shape[:-1]:
        raise ValueError(f"eigenvalues of shape {lams.shape} do not fit correlations {r.shape}")
    return lams


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
    r = _check_square(correlation)
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    lams = _spectrum(r, eigenvalues)
    if np.any(lams[..., 0] < -1e-10 * np.maximum(lams[..., -1], 1.0)):
        raise ValueError("correlation must be PSD for the mmse stage weights")
    return 1.0 / (lams[..., ::-1] + sigma2)


def singular_draws(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the draws whose (..., K) spectra fail the pivot threshold.

    That is min |eigenvalue| <= _PIVOT_RTOL max |eigenvalue|, for every inversion.
    """
    vals = np.abs(eigenvalues)
    return vals.min(axis=-1) <= _PIVOT_RTOL * vals.max(axis=-1)


def _guarded_inverse(
    matrix: np.ndarray, what: str, eigenvalues: np.ndarray | None = None
) -> np.ndarray:
    """Inverse with an explicit smallest-pivot singularity threshold.

    A stack is inverted draw by draw and fails if any draw is singular.
    """
    vals = _spectrum(matrix, eigenvalues)
    singular = singular_draws(vals)
    if np.any(singular):
        at = np.unravel_index(np.argmax(singular), singular.shape)
        where = f" at draw {','.join(str(int(i)) for i in at)}" if at else ""
        mags = np.abs(vals[at])
        raise SingularMatrixError(
            f"{what} is singular to working precision{where} "
            f"(|eig| range {mags.min():.3e}..{mags.max():.3e})"
        )
    return np.linalg.solve(matrix, np.eye(matrix.shape[-1]))


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
    r = _check_square(correlation).astype(float)
    report = convergence_check(r)
    if not report.converges:
        raise ValueError(
            f"series does not converge (lambda_max = {report.max_eigenvalue:.6f} >= 2)"
        )
    k = r.shape[0]
    eye = np.eye(k)
    part = eye.copy()
    values = np.ones(k)
    prev_norm = np.inf
    for _ in range(_LIMIT_MAX_STAGES):
        step = part @ (eye - r)
        diag = np.diagonal(step).copy()
        values -= diag
        norm = float(np.abs(diag).max())
        if norm < tol and prev_norm < tol:
            return values
        prev_norm = norm
        part = zero_diagonal(step)
    raise ValueError(f"limit scaling did not settle below tol={tol} in {_LIMIT_MAX_STAGES} stages")


def _conventional(r: np.ndarray, stage: int) -> np.ndarray:
    """I + (I-R) + ... + (I-R)^(m-1) by the stable recursion G <- I + (I-R) G."""
    eye = np.eye(r.shape[-1], dtype=r.dtype)
    step = eye - r
    g = _identities(r)
    for _ in range(stage - 1):
        g = step @ g
        g += eye
    return g


def _zero_diagonal_series(r: np.ndarray, stage: int, schedule: WeightSchedule | None):
    """Sum of B_j with B_0 = I and B_n = zero_diagonal(B_{n-1} W_{m-n+1} (I-R)).

    W_s = diag(schedule.stage(s)); no schedule means unit weights (proposed).
    Zeroing the running product's diagonal keeps each stage from re-cancelling
    the desired-signal and noise terms the previous one restored.  A stacked
    schedule pairs draw by draw with a stack of correlations.
    """
    step = np.eye(r.shape[-1], dtype=r.dtype) - r
    if schedule is None:
        steps = [step] * (stage - 1)
    else:  # diag(w) @ (I - R) is a row scaling
        steps = (schedule.stage(stage - n + 1)[..., :, None] * step for n in range(1, stage))
    return cancellation_series(_identities(r), steps, hollow=True)


def _mmse_series(r, sigma2, stage, hollow, eigenvalues) -> np.ndarray:
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
    (R + sigma2 I)^-1, which leaves sign decisions unchanged.
    """
    mu = mmse_stage_weights(r, sigma2, eigenvalues)[..., None, None]
    eye = np.eye(r.shape[-1])
    s = r + sigma2 * eye
    # term i carries mu_{m-i} and extends the product by I - mu_{m-i+1} S
    coefs = [mu[..., stage - 1 - i, :, :] for i in range(stage)]
    factors = (mu[..., stage - i, :, :] * s for i in range(1, stage))
    steps = (np.subtract(eye, f, out=f) for f in factors)
    return cancellation_series(eye, steps, hollow, coefs)


def build_filter(
    kind: str,
    correlation: np.ndarray,
    stage: int,
    sigma2: float | None = None,
    schedule: WeightSchedule | None = None,
    eigenvalues: np.ndarray | None = None,
) -> np.ndarray:
    """The K x K filter matrix of any detector kind, by name.

    A (..., K, K) stack of correlations gives the (..., K, K) stack of
    filters.  The stage is ignored by the kinds outside STAGED_KINDS.
    sigma2 >= 0 is required for the mmse family, and mmse_converging and
    modified_mmse need stage <= K.  weighted_proposed at stage >= 2 needs a
    weight schedule covering the stage.  Only the combined-domain kinds (mf,
    conventional, proposed) take a complex correlation.  eigenvalues, if
    given, must be np.linalg.eigvalsh(correlation): the SPECTRAL_KINDS
    builds use it instead of decomposing R again, the others ignore it.
    """
    r = _check_square(correlation)
    k = r.shape[-1]
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if np.iscomplexobj(r) and kind not in _COMPLEX_KINDS:
        raise ValueError(f"filter kind {kind!r} needs a real correlation matrix")
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
        if schedule is not None and schedule.users != k:
            raise ValueError("schedule user count does not match correlation size")
        if stage > 1 and schedule.max_stage < stage:
            raise ValueError(f"schedule covers stages up to {schedule.max_stage}, need {stage}")

    if kind == "mf":
        return np.broadcast_to(np.eye(k), r.shape)
    if kind == "conventional":
        return _conventional(r, stage)
    if kind in ("proposed", "weighted_proposed"):
        return _zero_diagonal_series(r, stage, schedule if kind == "weighted_proposed" else None)
    if kind == "decorrelator":
        return _guarded_inverse(r, "correlation matrix", eigenvalues)
    if kind == "mmse":
        return _guarded_inverse(r + sigma2 * np.eye(k), "R + sigma2 I")
    return _mmse_series(r, sigma2, stage, kind == "modified_mmse", eigenvalues)
