"""Matrix-filter detectors for multistage linear parallel interference cancellation.

Every detector here is a one-shot K x K linear filter applied to the matched
filter bank output.  The builders also take a stack of correlation matrices
with leading draw axes, shape (..., K, K), and return the stack of filters
that per-draw builds would give, bit for bit.  The m-stage cancellation
structures are represented in closed matrix form:

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

_PIVOT_RTOL = 1e3 * np.finfo(float).eps  # singularity threshold for inversions


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

    @classmethod
    def zero(cls, users: int, max_stage: int) -> "WeightSchedule":
        return cls(np.zeros((max_stage - 1, users)))


@dataclass(frozen=True)
class LimitScaling:
    """Diagonal limit scaling F = I - D_1 - D_2 - ... of the zero-diagonal filter.

    values[k] is the factor by which the limiting filter scales user k's
    decorrelated output: the zero-diagonal stage recursion converges to
    F R^-1 rather than R^-1 itself.
    """

    values: np.ndarray
    tol: float
    stages: int


@dataclass(frozen=True)
class MatrixFilter:
    """A K x K linear detector (or a (..., K, K) stack) with its construction metadata."""

    matrix: np.ndarray
    kind: str
    stage: int
    sigma2: float | None = None
    schedule: WeightSchedule | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError("filter matrix must be square")
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.stage < 1:
            raise ValueError("stage must be >= 1")
        object.__setattr__(self, "matrix", m)

    @property
    def users(self) -> int:
        return self.matrix.shape[-1]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Filter a matched-filter output vector (or batch with trailing axis K).

        A stacked filter applies draw by draw: y has the stack's leading axes.
        """
        y = np.asarray(y)
        if y.shape[-1] != self.users:
            raise ValueError(f"expected trailing axis {self.users}, got shape {y.shape}")
        if self.matrix.ndim == 2:
            return y @ self.matrix.T
        return (self.matrix @ y[..., None])[..., 0]


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


def build_mf(users: int) -> MatrixFilter:
    """The trivial first-stage detector (identity on the matched filter bank)."""
    return MatrixFilter(np.eye(users), kind="mf", stage=1)


def build_conventional(correlation: np.ndarray, stage: int) -> MatrixFilter:
    """m-stage cancellation filter I + (I-R) + ... + (I-R)^(m-1).

    Built with the numerically stable stage recursion G <- I + (I-R) G rather
    than explicit powers.
    """
    r = _check_square(correlation)
    if stage < 1:
        raise ValueError("stage must be >= 1")
    eye = np.eye(r.shape[-1], dtype=r.dtype)
    step = eye - r
    g = _identities(r)
    for _ in range(stage - 1):
        g = step @ g
        g += eye
    return MatrixFilter(g, kind="conventional", stage=stage)


def build_proposed(correlation: np.ndarray, stage: int) -> MatrixFilter:
    """Zero-diagonal variant: sum of B_j, B_n = zero_diagonal(B_{n-1} (I-R)).

    Zeroing the running product's diagonal keeps each stage from re-cancelling
    the desired-signal and noise terms restored by the previous one, which
    removes one family of interference terms per stage relative to the
    conventional filter.  Agrees with the conventional filter at stages 1 and 2.
    """
    r = _check_square(correlation)
    if stage < 1:
        raise ValueError("stage must be >= 1")
    eye = np.eye(r.shape[-1], dtype=r.dtype)
    step = eye - r
    part = eye
    total = _identities(r)
    for _ in range(stage - 1):
        part = _hollow(part @ step)
        total += part
    return MatrixFilter(total, kind="proposed", stage=stage)


def _spectrum(r: np.ndarray, eigenvalues: np.ndarray | None) -> np.ndarray:
    """Ascending eigenvalues of r: the given ones, or eigvalsh(r)."""
    if eigenvalues is None:
        return np.linalg.eigvalsh(r)
    lams = np.asarray(eigenvalues, dtype=float)
    if lams.shape != r.shape[:-1]:
        raise ValueError(f"eigenvalues of shape {lams.shape} do not fit correlations {r.shape}")
    return lams


def mmse_stage_weights(
    correlation: np.ndarray,
    sigma2: float,
    ascending: bool = False,
    eigenvalues: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar stage weights mu_i = 1/(lambda_i + sigma2) from the spectrum of R.

    Eigenvalues are taken in descending order by default; the order changes
    the intermediate filters (not the stage-K limit) and is part of the
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
    if not ascending:
        lams = lams[..., ::-1]
    return 1.0 / (lams + sigma2)


def build_mmse_converging(
    correlation: np.ndarray,
    sigma2: float,
    stage: int,
    ascending: bool = False,
    eigenvalues: np.ndarray | None = None,
) -> MatrixFilter:
    """Stage filter mu_m I + sum_i mu_{m-i} prod_j (I - mu_{m-i+j} (R + sigma2 I)).

    The product factors commute (all are polynomials in R), and because each
    mu_i annihilates eigenvalue lambda_i exactly, the stage-K filter equals
    (R + sigma2 I)^-1 to machine precision.  Requires stage <= K.
    """
    r = _check_square(correlation)
    k = r.shape[-1]
    if not 1 <= stage <= k:
        raise ValueError(f"stage must be in 1..K={k} (filter is exact at K)")
    mu = mmse_stage_weights(r, sigma2, ascending, eigenvalues)[..., None, None]
    eye = np.eye(k)
    s = r + sigma2 * eye
    total = mu[..., stage - 1, :, :] * eye  # mu_m I
    prod = eye
    for i in range(1, stage):
        # prod over j=1..i of (I - mu_{m-i+j} S); extend by the j=1 factor each step
        factor = mu[..., stage - i, :, :] * s
        prod = prod @ np.subtract(eye, factor, out=factor)
        total = total + mu[..., stage - 1 - i, :, :] * prod
    return MatrixFilter(total, kind="mmse_converging", stage=stage, sigma2=sigma2)


def build_modified_mmse(
    correlation: np.ndarray,
    sigma2: float,
    stage: int,
    ascending: bool = False,
    eigenvalues: np.ndarray | None = None,
) -> MatrixFilter:
    """Zero-diagonal version of the mmse_converging structure.

    mu_m I + sum_i mu_{m-i} J_i with J_0 = I and
    J_i = zero_diagonal(J_{i-1} (I - mu_{m-i+1} (R + sigma2 I))): each J
    term hollows the same weight indices the plain filter's i-th product
    uses, so stage m consumes only mu_1..mu_m and shares the plain
    recursion's descending-eigenvalue default.  Anchoring the J indices at
    K instead leaves the final stage unchanged but wrecks the intermediate
    filters for one order or the other (large steps enter the hollow
    products first and the early or late stages diverge).

    Stage K is not the exact inverse here: hollowing breaks the telescoping
    and the limit is a near-diagonal row rescaling of (R + sigma2 I)^-1,
    which leaves sign decisions unchanged.
    """
    r = _check_square(correlation)
    k = r.shape[-1]
    if not 1 <= stage <= k:
        raise ValueError(f"stage must be in 1..K={k}")
    mu = mmse_stage_weights(r, sigma2, ascending, eigenvalues)[..., None, None]
    eye = np.eye(k)
    s = r + sigma2 * eye
    total = mu[..., stage - 1, :, :] * eye
    j_part = eye
    for i in range(1, stage):
        factor = mu[..., stage - i, :, :] * s
        j_part = _hollow(j_part @ np.subtract(eye, factor, out=factor))
        total = total + mu[..., stage - 1 - i, :, :] * j_part
    return MatrixFilter(total, kind="modified_mmse", stage=stage, sigma2=sigma2)


def build_weighted_proposed(
    correlation: np.ndarray, schedule: WeightSchedule, stage: int
) -> MatrixFilter:
    """Zero-diagonal filter with per-user stage weights.

    Sum of B_j with B_0 = I and B_n = zero_diagonal(B_{n-1} W_{m-n+1} (I-R)),
    where W_s = diag(schedule.stage(s)).  Unit weights reproduce the
    unweighted zero-diagonal filter; all-zero weights collapse to the matched
    filter (identity).  A stacked schedule pairs draw by draw with a stack
    of correlations.
    """
    r = _check_square(correlation)
    k = r.shape[-1]
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if schedule.users != k:
        raise ValueError("schedule user count does not match correlation size")
    if stage > 1 and schedule.max_stage < stage:
        raise ValueError(f"schedule covers stages up to {schedule.max_stage}, need {stage}")
    eye = np.eye(k, dtype=r.dtype)
    step = eye - r
    part = eye
    total = _identities(r)
    for n in range(1, stage):
        w = schedule.stage(stage - n + 1)
        # diag(w) @ (I - R) is a row scaling
        part = _hollow(part @ (w[..., :, None] * step))
        total = total + part
    return MatrixFilter(total, kind="weighted_proposed", stage=stage, schedule=schedule)


def _guarded_inverse(
    matrix: np.ndarray, what: str, eigenvalues: np.ndarray | None = None
) -> np.ndarray:
    """Inverse with an explicit smallest-pivot singularity threshold.

    A stack is inverted draw by draw and fails if any draw is singular.
    """
    vals = np.abs(_spectrum(matrix, eigenvalues))
    lo, hi = vals.min(axis=-1), vals.max(axis=-1)
    singular = lo <= _PIVOT_RTOL * hi
    if np.any(singular):
        at = np.unravel_index(np.argmax(singular), singular.shape)
        where = f" at draw {','.join(str(int(i)) for i in at)}" if at else ""
        raise SingularMatrixError(
            f"{what} is singular to working precision{where} "
            f"(|eig| range {lo[at]:.3e}..{hi[at]:.3e})"
        )
    return np.linalg.solve(matrix, np.eye(matrix.shape[-1]))


def build_decorrelator(
    correlation: np.ndarray, eigenvalues: np.ndarray | None = None
) -> MatrixFilter:
    """Fully decorrelating detector R^-1 (the stage limit when the series converges).

    eigenvalues, if given, must be np.linalg.eigvalsh(correlation).
    """
    r = _check_square(correlation).astype(float)
    inverse = _guarded_inverse(r, "correlation matrix", eigenvalues)
    return MatrixFilter(inverse, kind="decorrelator", stage=1)


def build_mmse(correlation: np.ndarray, sigma2: float) -> MatrixFilter:
    """Linear MMSE detector (R + sigma2 I)^-1 for unit-power effective symbols."""
    r = _check_square(correlation).astype(float)
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    inv = _guarded_inverse(r + sigma2 * np.eye(r.shape[-1]), "R + sigma2 I")
    return MatrixFilter(inv, kind="mmse", stage=1, sigma2=sigma2)


def limit_scaling_matrix(
    correlation: np.ndarray, tol: float = 1e-12, max_stages: int = 1000
) -> LimitScaling:
    """Diagonal scaling F relating the zero-diagonal limit to the decorrelator.

    The zero-diagonal stage recursion converges to F R^-1 where
    F = I - D_1 - D_2 - ... and D_n = diag(B_{n-1} (I-R)).  The series is
    accumulated until two consecutive D_n fall below tol in max-abs norm
    (D_1 is always exactly zero, so a single small term does not stop it).
    For an equicorrelated R the factors are
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
    for n in range(1, max_stages + 1):
        step = part @ (eye - r)
        diag = np.diagonal(step).copy()
        values -= diag
        norm = float(np.abs(diag).max())
        if norm < tol and prev_norm < tol:
            return LimitScaling(values=values, tol=tol, stages=n)
        prev_norm = norm
        part = zero_diagonal(step)
    raise ValueError(f"limit scaling did not settle below tol={tol} in {max_stages} stages")


def build_filter(
    kind: str,
    correlation: np.ndarray,
    stage: int,
    sigma2: float | None = None,
    schedule: WeightSchedule | None = None,
    eigenvalues: np.ndarray | None = None,
) -> MatrixFilter:
    """Construct any single-carrier filter kind by name.

    sigma2 is required for the mmse family; a weight schedule is required for
    weighted_proposed at stage >= 2.  A (..., K, K) stack of correlations
    gives a stack of filters of the same shape.  eigenvalues, if given, must
    be np.linalg.eigvalsh(correlation): the SPECTRAL_KINDS builds use it
    instead of decomposing R again, the others ignore it.
    """
    r = _check_square(correlation)
    k = r.shape[-1]
    if kind == "mf":
        mf = build_mf(k)
        if r.ndim == 2:
            return mf
        return MatrixFilter(np.broadcast_to(mf.matrix, r.shape), kind="mf", stage=1)
    if kind == "conventional":
        return build_conventional(r, stage)
    if kind == "proposed":
        return build_proposed(r, stage)
    if kind == "decorrelator":
        return build_decorrelator(r, eigenvalues)
    if kind in ("mmse", "mmse_converging", "modified_mmse"):
        if sigma2 is None:
            raise ValueError(f"filter kind {kind!r} requires sigma2")
        if kind == "mmse":
            return build_mmse(r, sigma2)
        if kind == "mmse_converging":
            return build_mmse_converging(r, sigma2, stage, eigenvalues=eigenvalues)
        return build_modified_mmse(r, sigma2, stage, eigenvalues=eigenvalues)
    if kind == "weighted_proposed":
        if schedule is None:
            if stage == 1:
                schedule = WeightSchedule.zero(k, 2)
            else:
                raise ValueError("weighted_proposed requires a weight schedule")
        return build_weighted_proposed(r, schedule, stage)
    raise ValueError(f"unknown filter kind {kind!r}")
