"""Monte Carlo BER harness and SINR sweep runner.

Determinism contract: a (config, seed) pair fully determines every record.
Trials are partitioned into fixed-size blocks, each block gets its own
SeedSequence child, and worker threads (LPIC_THREADS) only distribute whole
blocks, so results are bit-identical for any worker count.  Near-far profiles
scale amplitudes after the draws, so bit/fading/noise streams are shared
between profiles at the same seed.  In per_trial mode each trial reads its
block's stream in a fixed order (sequences, bits, fading, noise); how many
trials are then built and detected together does not enter any record.

Error counting uses the desired user 0 only unless count_all_users is set,
in which case the detector label gains an "[all-users]" suffix and the
trials field counts bits (trials x K).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache
from math import log10, sqrt

import numpy as np

from .config import ConfigError, ExperimentConfig
from .filters import SPECTRAL_KINDS, _identities, build_filter, cancellation_partials
from .model import (
    _CERT_MARGIN,
    _factorizes,
    convergence_check,
    correlation_matrix,
    generate_spreading_set,
    noise_transform,
    singular_draws,
)
from .sinr import compute_weight_schedule, sinr_breakdown

THREADS_ENV = "LPIC_THREADS"

_BLOCK_TRIALS = 8192   # fixed: part of the deterministic draw structure
_CHUNK_TRIALS = 256    # cache-sized slice of a fixed-mode block where y is formed: receive,
                       # count from y, combine (see _detect)
_COUNT_TRIALS = 1024   # slice of a fixed-mode block counted from the folded rows (see _fold)
_DRAW_CHUNK = 32       # per_trial draws built and detected as one stack, in one slice
_CERT_RANK = 3         # eigenpairs per subcarrier in the low-rank nonconv bound
_WS_ALLOWANCE = 1e-12  # rounding allowance of the trace tier, relative to ||G||_F^2
_MAX_REDRAWS = 1000    # sequence redraw attempts before giving up
# what a detector build raises on a draw it cannot serve (singular or
# indefinite matrix, non-finite weight schedule)
_BUILD_ERRORS = (ValueError, np.linalg.LinAlgError)
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class BerRecord:
    detector: str
    stage: int
    receiver: str
    snr_db: float
    trials: int        # bits counted; 0 flags a failed detector
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float
    nonconv: int = 0   # draws with lambda_max(H) >= 2 (see _detect_combined); type2 only


@dataclass(frozen=True)
class SinrPoint:
    user: int
    stage: int
    weight: float
    sinr_db: float


def default_threads() -> int:
    value = os.environ.get(THREADS_ENV, "").strip()
    if not value:
        return 1
    try:
        threads = int(value)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {value!r}") from None
    if threads < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1")
    return threads


@cache
def _openblas_threads():
    """(get, set) of NumPy's bundled OpenBLAS thread count, or None when it is not found.

    Looked up on first use, so importing the package loads nothing.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_BLAS_LOCK = threading.Lock()
_blas_pin = {"runs": 0, "saved": None}  # runs inside _one_blas_thread, the count to restore


@contextmanager
def _one_blas_thread():
    """Run BLAS on one thread inside the block, then restore its thread count.

    Each harness worker then runs one compute thread: BLAS threads on top
    of the workers would oversubscribe the cores.  The first of concurrent
    runs saves the count and the last restores it.  Without the bundled
    OpenBLAS this does nothing.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _BLAS_LOCK:
        if _blas_pin["runs"] == 0:
            _blas_pin["saved"] = get()
            set_(1)
        _blas_pin["runs"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_pin["runs"] -= 1
            if _blas_pin["runs"] == 0:
                set_(_blas_pin["saved"])


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Always contains errors/trials; collapses sensibly at 0 and trials.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must be in 0..trials")
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the score endpoints are exactly 0 / 1 at the boundary counts; rounding
    # in center - half can leave ~1e-18 residue there, breaking containment
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return (lo, hi)


# --- CSV ------------------------------------------------------------------

BER_CSV_HEADER = ",".join(f.name for f in fields(BerRecord))
_CSV_TYPES = {"str": str, "int": int, "float": float}  # field annotations are strings here


def _csv(kind: type, records: list) -> str:
    """One column per field of the dataclass `kind`; floats at 17 digits, the rest as str."""
    columns = fields(kind)
    lines = [",".join(f.name for f in columns)]
    for rec in records:
        lines.append(",".join(
            f"{getattr(rec, f.name):.17g}" if f.type == "float" else str(getattr(rec, f.name))
            for f in columns
        ))
    return "\n".join(lines) + "\n"


def render_ber_csv(records: list[BerRecord]) -> str:
    return _csv(BerRecord, records)


def parse_records(text: str) -> list[BerRecord]:
    """Inverse of render_ber_csv; floats round-trip exactly at 17 digits."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != BER_CSV_HEADER:
        raise ValueError("not a BER record CSV (bad header)")
    columns = [(f.name, _CSV_TYPES[f.type]) for f in fields(BerRecord)]
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"bad record line: {ln!r}")
        out.append(BerRecord(**{name: parse(v) for (name, parse), v in zip(columns, parts)}))
    return out


def render_sinr_csv(points: list[SinrPoint]) -> str:
    return _csv(SinrPoint, points)


# --- experiment setup -----------------------------------------------------

@dataclass
class _Context:
    """Everything fixed across the trials drawn on G spreading draws.

    A fixed-mode block shares one draw (G = 1) among all its trials; a
    per_trial chunk has one draw per trial (G = its trial count).  Trial t
    uses draw t // (T / G) of a T-trial block.
    """

    cfg: ExperimentConfig
    correlations: np.ndarray   # (M, G, K, K)
    factors: np.ndarray        # (M, G, K, K) noise shaping
    amplitudes: np.ndarray
    sigma2: float
    rows: slice                # counted users: all K, or user 0 alone
    filters: tuple             # counted rows F of the matrix forms (see _split), each stack
                               # (M, G, D R, K): (F R, F L) folded, else (F,) (see _fold)
    built: np.ndarray          # (D, G) draws each detector was built on
    combined: list             # type2 detectors evaluated in the combined domain
    bound: tuple | None        # low-rank nonconv bound (see _low_rank_bound)


def _draw_correlations(cfg: ExperimentConfig, rng: np.random.Generator):
    """The fixed-mode spreading draw, with the documented redraw policy.

    When require_convergent is set, redraws until every subcarrier satisfies
    lambda_max < 2.  Deterministic given the rng state.  Returns the
    (M, 1, K, K) correlations and noise factors.
    """
    for _ in range(_MAX_REDRAWS):
        mats, factors = _correlate(cfg, np.stack([_spreading_sets(cfg, rng)]))
        if cfg.require_convergent and not all(
            convergence_check(r).converges for r in mats[:, 0]
        ):
            continue
        return mats, factors
    raise RuntimeError(f"no acceptable spreading draw in {_MAX_REDRAWS} attempts")


def _spreading_sets(cfg: ExperimentConfig, rng: np.random.Generator) -> list:
    """One trial's spreading sets: one per subcarrier, or one for all (identical)."""
    sets = 1 if cfg.subcarrier_sequences == "identical" else cfg.subcarriers
    return [generate_spreading_set(cfg.users, cfg.chips, rng) for _ in range(sets)]


def _correlate(cfg: ExperimentConfig, chips: np.ndarray):
    """(M, G, K, K) correlations and noise factors of G trials' (G, sets, K, P) chips.

    Each distinct set is factored once; identical sequences repeat theirs
    over the M subcarriers.
    """
    mats = correlation_matrix(chips.swapaxes(0, 1))
    factors = noise_transform(mats)
    if len(mats) < cfg.subcarriers:
        mats, factors = (np.repeat(a, cfg.subcarriers, axis=0) for a in (mats, factors))
    return mats, factors


def _split(cfg: ExperimentConfig):
    """The detectors in count order: (matrix forms, combined-domain detectors).

    Every single-carrier and type1 detector has a fixed filter, and so do
    type2 mf and mmse: mf's statistic Re(y_c) = sum_i Re(conj(h_i) y_i) is
    type1's.  Other type2 detectors run per trial in the combined domain.
    """
    type2 = cfg.receiver == "type2"
    matrix = [spec for spec in cfg.detectors if not type2 or spec.kind in ("mf", "mmse")]
    return matrix, [spec for spec in cfg.detectors if spec not in matrix]


def _prepare_context(cfg: ExperimentConfig, correlations, factors) -> _Context:
    """Build every matrix-form detector (see _split) on a stack of G spreading draws.

    correlations and factors are (M, G, K, K): G = 1 for the one draw of a
    fixed-mode run, or G per-trial draws, which every build and the weight
    schedule take as one stack.  A detector builds only the counted rows of
    its filter on each subcarrier (single carrier is M = 1): R = K with
    count_all_users, else 1.  They are laid out once as the (M, G, D R, K)
    stack that _apply takes, detector-major in each draw's rows, and folded
    into R and L when that leaves fewer rows to apply (see _fold).

    The detectors on one stack share its weight schedule and its spectrum,
    each computed for the first detector that needs it.  Failures are
    isolated: a detector that cannot be built on the stack, its schedule or
    spectrum included, is rebuilt draw by draw and marked as not built on
    the draws that fail.
    """
    amplitudes, sigma2 = cfg.amplitudes(), cfg.sigma2()
    rows = slice(None) if cfg.count_all_users else slice(0, 1)
    counted = cfg.users if cfg.count_all_users else 1
    top = max([2] + [d.stage for d in cfg.detectors if d.kind == "weighted_proposed"])

    def counted_rows(spec, mats, shared):
        """(M, ..., R, K) counted rows of one detector on (M, ..., K, K) draws.

        shared memoises the build_filter arguments the detectors on mats
        share: the weight schedule and the eigenvalues.
        """
        if spec.kind == "weighted_proposed" and "schedule" not in shared:
            shared["schedule"] = compute_weight_schedule(mats, amplitudes, sigma2, top)[0]
        if spec.kind in SPECTRAL_KINDS and "eigenvalues" not in shared:
            shared["eigenvalues"] = np.linalg.eigvalsh(mats)
        return np.stack([
            build_filter(
                spec.kind,
                mats[i],
                spec.stage,
                sigma2=sigma2,
                rows=rows,
                **{name: value[i] for name, value in shared.items()},
            )
            for i in range(cfg.subcarriers)
        ])

    draws = correlations.shape[1]
    shared = {}
    specs, combined = _split(cfg)
    filters = np.zeros((cfg.subcarriers, draws, len(specs), counted, cfg.users))
    built = np.ones((len(specs), draws), dtype=bool)
    for d, spec in enumerate(specs):
        try:
            filters[:, :, d] = counted_rows(spec, correlations, shared)
        except _BUILD_ERRORS:
            # rebuild draw by draw, so one bad draw costs only itself
            for b in range(draws):
                try:
                    filters[:, b, d] = counted_rows(spec, correlations[:, b], {})
                except _BUILD_ERRORS:
                    built[d, b] = False

    # per_trial draws are used once each: nothing to share the eigenpairs over
    type2_fixed = cfg.receiver == "type2" and cfg.sequence_mode == "fixed"
    return _Context(
        cfg=cfg,
        correlations=correlations,
        factors=factors,
        amplitudes=amplitudes,
        sigma2=sigma2,
        rows=rows,
        filters=_fold(filters.reshape(cfg.subcarriers, draws, -1, cfg.users), correlations, factors),
        built=built,
        combined=combined,
        bound=_low_rank_bound(correlations[:, 0]) if type2_fixed else None,
    )


def _fold(filters, correlations, factors):
    """The counted rows F in the form the count applies: (F R, F L), or (F,).

    Every matrix-form statistic is F y = (F R) x + (F L) w (see _receive).
    When the D R stacked rows are fewer than the K users, the folded pair is
    thinner than y, so the count reads the drawn planes and never forms y.
    Otherwise applying F to y is cheaper.  Each stack is (M, G, D R, K).
    """
    if filters.shape[-2] < filters.shape[-1]:
        return filters @ correlations, filters @ factors
    return (filters,)


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


# --- block simulation -----------------------------------------------------

def _draw_symbols(rng: np.random.Generator, cfg: ExperimentConfig, sigma2: float, size: int):
    """Bits, fading and noise of size trials; fixed draw order (bits, channel, noise).

    Each of fading and noise draws its real parts, then its imaginary parts,
    into one (4, size, M, K) buffer of real planes: h_re, h_im, w_re, w_im.
    h_re + 1j h_im is bit for bit what sqrt(0.5) (a + 1j b) of the same
    reads gives, and likewise w.  Returns the bits and the planes.
    """
    bits = (rng.integers(0, 2, size=(size, cfg.users)) * 2 - 1).astype(np.float64)
    planes = np.empty((4, size, cfg.subcarriers, cfg.users))
    for plane in planes:
        rng.standard_normal(out=plane)
    return bits, _scaled(planes, sigma2)


def _scaled(normals, sigma2: float):
    """Fading and noise planes of (4, T, M, K) standard normals, scaled in place."""
    normals[:2] *= sqrt(0.5)
    normals[2:] *= sqrt(sigma2 / 2.0)
    return normals


def _draw_trials(cfg: ExperimentConfig, rng: np.random.Generator, sigma2: float, count: int):
    """count trials, each with its own spreading draw.

    Every trial reads the stream of a one-trial block: its sequences, then
    what _draw_symbols(rng, cfg, sigma2, 1) reads, taking the four normal
    arrays in one call.  The chunk's sequences are correlated and factored
    as one stack.  Returns (M, count, K, K) correlations and factors, then
    the bits and the (4, count, M, K) planes of _draw_symbols.
    """
    chips, raw_bits, normals = [], [], []
    for _ in range(count):
        chips.append(_spreading_sets(cfg, rng))
        raw_bits.append(rng.integers(0, 2, size=(1, cfg.users)))
        normals.append(rng.standard_normal((4, 1, cfg.subcarriers, cfg.users)))
    correlations, factors = _correlate(cfg, np.array(chips))
    bits = (np.concatenate(raw_bits) * 2 - 1).astype(np.float64)
    return correlations, factors, bits, _scaled(np.concatenate(normals, axis=1), sigma2)


def _apply(mats, v):
    """Per-draw products v_t A^T: v is (M, ..., T, K), mats (M, G, R, K).

    Each of the G draws serves T / G consecutive trials, so the products run
    as one stacked GEMM per subcarrier, draw and leading index of v (such as
    a real or imaginary plane); the result is (M, ..., T, R).  R = K applies
    whole matrices, R < K only their rows.
    """
    m, g = mats.shape[:2]
    mats = mats.reshape((m,) + (1,) * (v.ndim - 3) + mats.shape[1:])
    out = np.matmul(v.reshape(v.shape[:-2] + (g, -1, v.shape[-1])), mats.swapaxes(-1, -2))
    return out.reshape(v.shape[:-1] + out.shape[-1:])


def _receive(ctx: _Context, bits, h, w):
    """Matched-filter outputs y = R x + L w of the (2, T, M, K) planes h and w.

    y comes back as a (2, T, M, K) view of an (M, 2, T, K) array.
    """
    y = _linear((ctx.correlations, ctx.factors), ctx.amplitudes * bits, h, w)
    return y.transpose(1, 2, 0, 3)


def _linear(pair, scale, h, w):
    """A x + B w of the (2, T, M, K) planes h and w, with x = scale * h.

    pair is (A, B), each (M, G, R, K).  Real GEMMs (see _apply) apply A_i
    and B_i to each plane; the result is (M, 2, T, R).
    """
    out = _apply(pair[0], scale * h.transpose(2, 0, 1, 3))
    out += _apply(pair[1], w.transpose(2, 0, 1, 3))
    return out


def _detect(ctx: _Context, bits, planes, count: int, chunk: int):
    """Evaluate every detector on the T trials of a block or per_trial stack.

    planes are the (4, T, M, K) fading and noise planes (see _draw_symbols).
    Each of ctx's G draws serves T / G consecutive trials, so with G > 1 a
    slice must be the whole stack (count = chunk = T).  Folded matrix forms
    (see _fold) are counted straight from the planes, count trials at a
    time.  y = R x + L w is formed only where it is needed, chunk trials at
    a time: the unfolded count and type2's combined domain share it, and
    the low-rank nonconv bound (see _detect_combined) carries from one chunk
    to the next.  Returns (counts, nonconv): counts is the (2, D + C) array
    of bit errors and counted trials per detector in _split order.  A
    detector keeps the trials whose draws it was built on (and, for the
    type2 decorrelator, whose H was invertible).
    """
    matrix, size = len(ctx.built), len(bits)
    counts = np.zeros((2, matrix + len(ctx.combined)), dtype=np.int64)
    from_y = len(ctx.filters) == 1
    if matrix and not from_y:
        for lo in range(0, size, count):
            part = slice(lo, lo + count)
            h = planes[:2, part]
            z = _linear(ctx.filters, ctx.amplitudes * bits[part], h, planes[2:, part])
            counts[:, :matrix] += _count_matrix_forms(ctx, bits[part], h, z)
    nonconv, bound = 0, ctx.bound
    if not (from_y or ctx.combined):
        return counts, nonconv
    for lo in range(0, size, chunk):
        part = slice(lo, lo + chunk)
        h = planes[:2, part]
        y = _receive(ctx, bits[part], h, planes[2:, part])
        if from_y:  # z = F y is dropped once counted: it is D R / K times the size of y
            counts[:, :matrix] += _count_matrix_forms(
                ctx, bits[part], h, _apply(ctx.filters[0], y.transpose(2, 0, 1, 3))
            )
        if ctx.combined:
            got, more, bound = _detect_combined(ctx, bits[part], h, y, bound)
            counts[:, matrix:] += got
            nonconv += more
    return counts, nonconv


def _count_matrix_forms(ctx: _Context, bits, h, z):
    """Bit errors and counted trials of every matrix-form detector, in _split order.

    h is the (2, T, M, K) fading planes and z the (M, 2, T, D R) rows F y
    of every detector on every subcarrier and plane (see _detect); z is
    overwritten.  The statistic Re(conj(h_i) z) = h_re z_re + h_im z_im
    accumulates in subcarrier order 0..M-1.  An exact zero (or NaN) decides
    +1.
    """
    wrong = bits[:, ctx.rows] < 0                       # (T, R)
    trials, counted = wrong.shape
    g = ctx.built.shape[1]
    z = z.reshape(z.shape[:3] + (-1, counted))
    z *= h[..., ctx.rows].transpose(2, 0, 1, 3)[:, :, :, None]
    z[:, 0] += z[:, 1]
    stat = z[:, 0].sum(axis=0)                          # (T, D, R)
    bad = ((stat < 0) != wrong[:, None]).reshape(g, trials // g, -1, counted)
    if not ctx.built.all():
        bad &= ctx.built.T[:, None, :, None]
    counts = np.empty((2, len(ctx.built)), dtype=np.int64)
    bad.sum(axis=(0, 1, 3), out=counts[0])
    ctx.built.sum(axis=1, out=counts[1])
    counts[1] *= trials // g
    return counts


def _detect_combined(ctx: _Context, bits, h, y, bound):
    """Type2 detectors without a fixed filter on one chunk, plus its nonconv.

    Combines first, then cancels in the combined domain.  With P = diag of
    per-user combined power p, the paper cancels with R_c P^-1, which is
    similar to the Hermitian H = P^-1/2 R_c P^-1/2 = sum_i D(conj x_i) R_i
    D(x_i), x = h / sqrt(p).  Zeroing a diagonal commutes with a diagonal
    similarity, so each conventional, proposed and decorrelator statistic on
    y_c is sqrt(p_k) times its H form on u = P^-1/2 y_c = sum_i conj(x_i) y_i,
    with the same sign: every helper takes x and u, and nonconv counts the
    trials with lambda_max(H) >= 2.  h and y are the chunk's (2, B, M, K)
    planes; a dense H is formed only for the detectors that need the matrix
    form, or for the trials the low-rank bound leaves open.  bound is that
    bound while the block keeps it, else None; _nonconvergent applies it.
    Returns the (2, C) errors and counted trials of ctx.combined, nonconv,
    and the bound for the block's next chunk.
    """
    wrong = bits[:, ctx.rows] < 0
    dense = any(spec.kind in ("proposed", "decorrelator") for spec in ctx.combined)
    proposed = {spec.stage: spec for spec in ctx.combined if spec.kind == "proposed"}
    mats = ctx.correlations
    # x = h / sqrt(p), p summed from the planes; the helpers take (B, M, K) views
    x_t = _complex(h)
    x_t *= 1.0 / np.sqrt(np.sum(h[0] * h[0] + h[1] * h[1], axis=1))
    u = np.sum(np.conj(x_t) * _complex(y), axis=0)
    x = x_t.transpose(1, 0, 2)
    herm = _combined_matrix(mats, x) if dense else None
    nonconv, bound = _nonconvergent(bound, mats, x, herm)
    stats = _proposed_stats(herm, u, proposed, ctx.rows) if proposed else {}
    counts = np.empty((2, len(ctx.combined)), dtype=np.int64)
    for j, spec in enumerate(ctx.combined):
        solved = None
        if spec.kind == "conventional":
            stat = _conventional_type2(mats, x, u, spec.stage, ctx.rows)
        elif spec.kind == "proposed":
            stat = stats[spec]
        else:
            stat, solved = _decorrelate(herm, u)
            stat = stat[:, ctx.rows]
        bad = (stat.real < 0) != wrong
        if solved is not None:
            bad = bad[solved]
        counts[:, j] = np.count_nonzero(bad), len(bad)
    return counts, nonconv, bound


def _complex(planes):
    """The contiguous (M, B, K) complex array of (2, B, M, K) real planes."""
    out = np.empty(planes.shape[2:3] + planes.shape[1:2] + planes.shape[3:], dtype=complex)
    out.real = planes[0].transpose(1, 0, 2)
    out.imag = planes[1].transpose(1, 0, 2)
    return out


def _combined_matrix(correlations, x):
    """Dense sum_i D(conj x_i) R_i D(x_i) for a (B, M, K) slice of draws.

    That is H for x = h / sqrt(p) (see _detect_combined), R_c for x = h.
    correlations is (M, 1, K, K) shared by the slice, or (M, B, K, K).
    """
    xc = np.conj(x)
    out = xc[:, 0, :, None] * correlations[0]
    out *= x[:, 0, None, :]
    term = np.empty_like(out)
    for i in range(1, correlations.shape[0]):
        np.multiply(xc[:, i, :, None], correlations[i], out=term)
        term *= x[:, i, None, :]
        out += term
    return out


def _nonconvergent(bound, correlations, x, herm):
    """nonconv of one chunk, and the low-rank bound for the block's next chunk.

    bound is the low-rank bound (see _low_rank_bound) while the block keeps
    it, else None.  Only the trials it leaves open (_unsettled; all of them
    without a bound) go to _count_nonconvergent, on their rows of herm,
    which is formed here for those rows alone when the chunk has none.  A
    bound that leaves more than half of the chunk open is dropped.
    """
    if bound is not None:
        open_rows = _unsettled(bound, x)
        if 2 * np.count_nonzero(open_rows) > len(open_rows):
            bound = None  # settles too few trials of this draw to pay for itself
        if not open_rows.any():
            return 0, bound
        x = x[open_rows]
        herm = None if herm is None else herm[open_rows]
    if herm is None:
        herm = _combined_matrix(correlations, x)
    return _count_nonconvergent(herm), bound


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
    x_t = x.transpose(1, 0, 2)
    trace, frob2 = _gram_moments(bound, x_t.real, x_t.imag)
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


def _gram_moments(bound, re, im):
    """tr G and ||G||_F^2 of each trial's G = V^H V (see _unsettled), without G.

    re and im are the (M, B, K) real and imaginary parts of x = h / sqrt(p).
    Block (i, i) of G is |x_i|^2 against the table w_ijk w_ij'k, and block
    (i, i') is x_i conj(x_i') against w_ijk w_i'j'k: one real GEMM per
    subcarrier for |x_i|^2, and one per subcarrier pair i < i' for the real
    and imaginary parts of x_i conj(x_i') stacked.  Block (i', i) is the
    conjugate transpose of (i, i').
    """
    rank, diagonal, pairs = bound[1].shape[1], bound[2], bound[3]
    blocks = np.matmul(re * re + im * im, diagonal)                  # (M, B, r^2)
    trace = np.einsum("mbj,j->b", blocks, np.eye(rank).ravel())
    frob2 = np.einsum("mbj,mbj->b", blocks, blocks)
    if len(pairs):
        # [Re; Im] of x_i conj(x_i') as (pairs, 2, B, K), pairs in triu_indices order
        m, b, k = re.shape
        z = np.empty((len(pairs), 2, b, k))
        at = 0
        for i in range(m - 1):
            out = z[at : at + m - 1 - i]
            np.multiply(re[i], re[i + 1 :], out=out[:, 0])
            out[:, 0] += im[i] * im[i + 1 :]
            np.multiply(im[i], re[i + 1 :], out=out[:, 1])
            out[:, 1] -= re[i] * im[i + 1 :]
            at += m - 1 - i
        parts = np.matmul(z.reshape(len(pairs), 2 * b, k), pairs)       # (pairs, 2B, r^2)
        parts = parts.reshape(len(pairs), 2, b, -1)
        frob2 += 2.0 * np.einsum("pcbj,pcbj->b", parts, parts)
    return trace, frob2


def _proposed_stats(herm, u, proposed, rows) -> dict:
    """rows of the type2 proposed statistics G_m u of every configured stage m.

    proposed maps stage to spec.  One series pass on I - H over the given
    rows alone gives the partial sums of build_filter("proposed", H, m,
    rows=rows), so each filter equals that build.
    """
    index = np.arange(herm.shape[-1])[rows]
    steps = [np.eye(herm.shape[-1], dtype=herm.dtype) - herm] * (max(proposed) - 1)
    series = cancellation_partials(_identities(herm, index), steps, hollow=True, rows=index)
    return {
        proposed[stage]: (g @ u[..., None])[..., 0]
        for stage, g in enumerate(series, 1)
        if stage in proposed
    }


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


def _conventional_type2(correlations, x, u, stage: int, rows):
    """rows of the conventional statistics on H (see _detect_combined), without forming H.

    H v = sum_i conj(x_i) * (R_i (x_i * v)): stacked GEMMs per stage over a
    subcarrier-major view of the draws (see _apply), fastest when x is a
    (B, M, K) view of an (M, B, K) array.  Stages 2..m-1 need every row;
    the last stage applies only the rows of each R_i it returns.
    """
    if stage == 1:
        return u[:, rows]
    x_t = x.transpose(1, 0, 2)
    xc_t = np.conj(x_t)
    stat = u
    for _ in range(stage - 2):
        applied = np.sum(xc_t * _apply(correlations, x_t * stat), axis=0)
        stat = u + stat - applied
    last = _apply(correlations[:, :, rows], x_t * stat)
    return u[:, rows] + stat[:, rows] - np.sum(xc_t[:, :, rows] * last, axis=0)


def _decorrelate(herm, u):
    """Decorrelator statistics H^-1 u and the mask of trials solved.

    A trial whose H fails the pivot threshold (model.singular_draws) is
    left unsolved, as a singular R is for the single-carrier decorrelator.
    The mask is None when every trial was solved.
    """
    ok = ~singular_draws(herm)
    if ok.all():
        return np.linalg.solve(herm, u[:, :, None])[:, :, 0], None
    stat = np.zeros_like(u)
    stat[ok] = np.linalg.solve(herm[ok], u[ok, :, None])[:, :, 0]
    return stat, ok


def _block_fixed(ctx: _Context, seed_seq, size: int):
    """One fixed-mode block: drawn whole, then detected in slices (see _detect).

    The slices keep the temporaries after the draw cache-sized.  Returns
    (counts, nonconv).
    """
    rng = np.random.default_rng(seed_seq)
    bits, planes = _draw_symbols(rng, ctx.cfg, ctx.sigma2, size)
    return _detect(ctx, bits, planes, _COUNT_TRIALS, _CHUNK_TRIALS)


def _block_per_trial(cfg: ExperimentConfig, seed_seq, size: int):
    """Per-trial spreading redraw: sequences, bits, channel, noise per trial.

    Trials are drawn in chunks of _DRAW_CHUNK, each trial as a one-trial
    block would draw it (see _draw_trials); a chunk is then built and
    detected as one stack of draws, in one slice.  Returns (counts, nonconv).
    """
    rng = np.random.default_rng(seed_seq)
    sigma2 = cfg.sigma2()
    counts, nonconv = 0, 0
    for lo in range(0, size, _DRAW_CHUNK):
        correlations, factors, bits, planes = _draw_trials(
            cfg, rng, sigma2, min(_DRAW_CHUNK, size - lo)
        )
        ctx = _prepare_context(cfg, correlations, factors)
        got, more = _detect(ctx, bits, planes, len(bits), len(bits))
        counts += got
        nonconv += more
    return counts, nonconv


def run_ber_experiment(cfg: ExperimentConfig, threads: int | None = None) -> list[BerRecord]:
    """Run the configured Monte Carlo BER experiment.

    Returns one record per detector in (kind, stage) order.  In fixed mode a
    detector whose filters cannot be constructed, or that fails on some trial
    (a singular type2 H), yields a flagged row (trials=0, ber=nan) while
    the others proceed.  In per_trial mode such a detector skips the draws
    it fails on and its row counts the trials it kept; it is flagged only
    when it kept none.
    """
    threads = default_threads() if threads is None else threads
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    root = np.random.SeedSequence(cfg.seed)
    seq_ss, blocks_parent = root.spawn(2)

    fixed = cfg.sequence_mode == "fixed"
    if fixed:
        ctx = _prepare_context(cfg, *_draw_correlations(cfg, np.random.default_rng(seq_ss)))
        work = lambda args: _block_fixed(ctx, *args)
    else:
        work = lambda args: _block_per_trial(cfg, *args)

    sizes = [min(_BLOCK_TRIALS, cfg.trials - lo) for lo in range(0, cfg.trials, _BLOCK_TRIALS)]
    jobs = list(zip(blocks_parent.spawn(len(sizes)), sizes))
    workers = min(threads, len(jobs))  # a worker without a block would only idle
    if workers == 1:
        results = map(work, jobs)
    else:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, jobs))
    counts, nonconv_total = 0, 0
    for got, nonconv in results:
        counts += got
        nonconv_total += nonconv

    suffix = "[all-users]" if cfg.count_all_users else ""
    per_trial_bits = cfg.users if cfg.count_all_users else 1
    matrix, combined = _split(cfg)
    column = {spec: j for j, spec in enumerate(matrix + combined)}
    records = []
    for spec in cfg.detectors:
        errs, trials = counts[:, column[spec]].tolist()
        if trials == 0 or (fixed and trials < cfg.trials):  # flagged: the detector failed
            trials = errs = nonconv = 0
            ber = lo = hi = float("nan")
        else:
            trials *= per_trial_bits
            ber, (lo, hi) = errs / trials, wilson_interval(errs, trials)
            nonconv = nonconv_total if cfg.receiver == "type2" else 0
        records.append(
            BerRecord(
                detector=spec.kind + suffix,
                stage=spec.stage,
                receiver=cfg.receiver,
                snr_db=cfg.snr_db,
                trials=trials,
                bit_errors=errs,
                ber=ber,
                ci_low=lo,
                ci_high=hi,
                nonconv=nonconv,
            )
        )
    return records


def run_sinr_experiment(cfg: ExperimentConfig) -> list[SinrPoint]:
    """Closed-form SINR-vs-weight sweep for the configured user and stages.

    Single carrier only.  Lower stages sit at their closed-form optimal
    weights while the swept stage's weight runs over the grid, so each curve
    is the one the weight optimizer sees.
    """
    if cfg.subcarriers != 1:
        raise ConfigError("SINR sweeps are defined for the single-carrier model (M=1)")
    root = np.random.SeedSequence(cfg.seed)
    seq_ss, _ = root.spawn(2)
    correlations, _factors = _draw_correlations(cfg, np.random.default_rng(seq_ss))
    r = correlations[0, 0]
    amplitudes = cfg.amplitudes()
    sigma2 = cfg.sigma2()
    schedule, _degenerate = compute_weight_schedule(r, amplitudes, sigma2, max(cfg.sweep_stages))
    grid = cfg.weight_grid()
    points = []
    for stage in cfg.sweep_stages:
        curve = sinr_breakdown(r, amplitudes, sigma2, schedule, cfg.sweep_user, stage).sinr(grid)
        for weight, value in zip(grid, curve):
            points.append(
                SinrPoint(
                    user=cfg.sweep_user,
                    stage=stage,
                    weight=float(weight),
                    sinr_db=10.0 * log10(value),
                )
            )
    return points
