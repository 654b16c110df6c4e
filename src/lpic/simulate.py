"""Monte Carlo BER harness and SINR sweep runner.

Determinism contract: a (config, seed) pair fully determines every record.
Trials are partitioned into fixed-size blocks, each block gets its own
SeedSequence child, and worker threads (LPIC_THREADS) only distribute whole
blocks, so results are bit-identical for any worker count.  Near-far profiles
scale amplitudes after the draws, so bit/fading/noise streams are shared
between profiles at the same seed.  A fixed-mode block reads its bits, then
its fading, then its noise, each real plane before its imaginary plane; the
noise is drawn slice by slice as the count reads it, and the slice sizes do
not enter any record.  In per_trial mode each trial reads its block's stream
in a fixed order (sequences, bits, fading, noise); how many trials are then
built and detected together does not enter any record.

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
    _SignDraws,
    _count_nonconvergent,
    _low_rank_bound,
    _unsettled,
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
_DRAW_CHUNK = 64       # per_trial draws built and detected as one stack, in one slice
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
                               # (M, G, D R, K): (F R, F L) when folded (see _fold), read
                               # from the drawn planes, else (F,), applied to y (see _detect)
    built: np.ndarray          # (D, G) draws each detector was built on
    combined: list             # type2 detectors evaluated in the combined domain
    bound: tuple | None        # low-rank nonconv bound (see model._low_rank_bound)


def _draw_correlations(cfg: ExperimentConfig, rng: np.random.Generator):
    """The fixed-mode spreading draw, with the documented redraw policy.

    When require_convergent is set, redraws until every subcarrier satisfies
    lambda_max < 2.  Deterministic given the rng state.  Returns the
    (M, 1, K, K) correlations and noise factors.
    """
    for _ in range(_MAX_REDRAWS):
        chips = [generate_spreading_set(cfg.users, cfg.chips, rng) for _ in range(_sets(cfg))]
        mats, factors = _correlate(cfg, np.stack([chips]))
        if cfg.require_convergent and not all(
            convergence_check(r).converges for r in mats[:, 0]
        ):
            continue
        return mats, factors
    raise RuntimeError(f"no acceptable spreading draw in {_MAX_REDRAWS} attempts")


def _sets(cfg: ExperimentConfig) -> int:
    """Spreading sets in a draw: one per subcarrier, or one for all (identical)."""
    return 1 if cfg.subcarrier_sequences == "identical" else cfg.subcarriers


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
    into R and L when the count then never needs y (see _fold).

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
        filters=_fold(cfg, filters.reshape(cfg.subcarriers, draws, -1, cfg.users),
                      correlations, factors),
        built=built,
        combined=combined,
        bound=_low_rank_bound(correlations[:, 0]) if type2_fixed else None,
    )


def _fold(cfg: ExperimentConfig, filters, correlations, factors):
    """The counted rows F in the form the count applies: (F R, F L), or (F,).

    Every matrix-form statistic is F y = (F R) x + (F L) w, y = R x + L w
    (see _linear), so the folded pair lets the count read the drawn planes
    and never form y.  The count can then take the real noise plane's rows
    (F L) w_re for the whole block first, into an (M, T, D R) stash, so a
    folded block keeps no noise plane (see _detect).  It pays only when all
    of these hold, and otherwise F is applied to y:
    - one draw serves a whole block (fixed mode): a per_trial draw serves
      one trial, and its two products cost more than they save;
    - the receiver is not type2: every type2 slice forms y and
      x = h / sqrt(p) for its combined domain and nonconv (see _detect);
    - the D R stacked rows are fewer than the K users, so the pair is
      thinner than y.
    Each stack is (M, G, D R, K).
    """
    if cfg.sequence_mode == "fixed" and cfg.receiver != "type2" and filters.shape[-2] < cfg.users:
        return filters @ correlations, filters @ factors
    return (filters,)


# --- block simulation -----------------------------------------------------

def _draw_symbols(rng: np.random.Generator, cfg: ExperimentConfig, sigma2: float, size: int,
                  step: int, keep_real: bool, work: int = 0):
    """One fixed-mode block; fixed draw order (bits, h_re, h_im, w_re, w_im).

    The bits are the +/-1 values of integers(0, 2, size=(size, K)), read
    from the generator's raw words (see model._SignDraws).  Each of fading
    and noise then draws its real plane, then its imaginary plane, each
    (size, M, K) standard normals: h_re + 1j h_im is bit for bit what
    sqrt(0.5) (a + 1j b) of the same reads gives, and likewise w.  The
    fading planes are drawn here, and so is w_re when keep_real is set; the
    other noise planes are drawn as the count reads them: standard_normal
    reads the same values whether it fills a plane whole or slice by slice.
    Returns the bits, the (2, size, M, K) fading planes, noise and work
    floats of room for _detect.  noise(plane, part) is the (n, M, K) slice
    part of w_re (plane 0) or w_im (plane 1): a view of the kept w_re, or
    else drawn into one step-trial buffer that the next read overwrites, so
    drawn slices must be read in order, every w_re slice before any w_im
    slice.  All but the bits sit in one allocation: with the buffers split,
    glibc's dynamic mmap threshold stays low and every block page-faults
    its memory in anew.
    """
    m, k = cfg.subcarriers, cfg.users
    signs = _SignDraws(rng)
    signs.read(size * k)
    bits = signs.values().reshape(size, k)
    whole = (3 if keep_real else 2) * size * m * k
    buffer = np.empty(work + whole + step * m * k)
    planes = buffer[work : work + whole].reshape(-1, size, m, k)
    for plane in planes:
        rng.standard_normal(out=plane)
    _scaled(planes, sigma2)
    scale, scratch = sqrt(sigma2 / 2.0), buffer[work + whole :].reshape(step, m, k)

    def noise(plane, part):
        if plane == 0 and keep_real:
            return planes[2, part]
        out = scratch[: part.stop - part.start]
        rng.standard_normal(out=out)
        out *= scale
        return out

    return bits, planes[:2], noise, buffer[:work]


def _scaled(normals, sigma2: float):
    """Fading, then noise planes of (P, T, M, K) standard normals, scaled in place."""
    normals[:2] *= sqrt(0.5)
    normals[2:] *= sqrt(sigma2 / 2.0)
    return normals


def _draw_trials(cfg: ExperimentConfig, rng: np.random.Generator, sigma2: float, count: int):
    """count trials, each with its own spreading draw.

    Every trial reads the stream of a one-trial block: its sequences, then
    what a one-trial block reads (see _draw_symbols).  Its sequences and bits
    are consecutive integers(0, 2) reads, so they come from one raw read of
    sets K P + K values (see model._SignDraws), and its four normal arrays
    from one call.  The chunk's sequences are correlated and factored as one
    stack.  Returns (M, count, K, K) correlations and factors, then the bits
    and the (4, count, M, K) planes h_re, h_im, w_re, w_im.
    """
    shape = (count, _sets(cfg), cfg.users, cfg.chips)
    chips = shape[1] * cfg.users * cfg.chips  # a trial's chip values; its K bits follow
    signs = _SignDraws(rng)
    normals = np.empty((count, 4, cfg.subcarriers, cfg.users))
    for normal in normals:
        signs.read(chips + cfg.users)
        rng.standard_normal(out=normal)
    values = signs.values().reshape(count, -1)
    correlations, factors = _correlate(cfg, values[:, :chips].reshape(shape))
    planes = np.ascontiguousarray(normals.swapaxes(0, 1))
    return correlations, factors, values[:, chips:], _scaled(planes, sigma2)


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


def _users(mats, v):
    """Per-draw products A v of real mats (M, G, R, K) and user-major complex v (M, K, B).

    The result is (M, R, B) complex, C-contiguous.  With one draw (G = 1)
    each subcarrier's product is one real GEMM, (R, K) @ (K, 2B), on v's
    interleaved float view: no cast and no copy.  With one draw per trial
    (G = B) it is a stacked product per draw on a trial-major copy of v.
    v's last axis must be contiguous.
    """
    m, g = mats.shape[:2]
    if g == 1:
        return np.matmul(mats[:, 0], v.view(float)).view(complex)
    per = np.ascontiguousarray(v.transpose(0, 2, 1)).view(float).reshape(m, g, -1, 2)
    out = np.matmul(mats, per).view(complex)[..., 0].transpose(0, 2, 1)
    return np.ascontiguousarray(out)


def _linear(pair, scale, h, w):
    """A x + B w of the (2, T, M, K) fading planes h, with x = scale * h.

    pair is (A, B), each (M, G, R, K), and w the two (T, M, K) noise
    planes, read in place; a plane given as None is left for the caller to
    add (see _detect).  Real GEMMs (see _apply) apply A_i and B_i to each
    plane; the result is (M, 2, T, R).
    """
    out = _apply(pair[0], scale * h.transpose(2, 0, 1, 3))
    for plane, noise in zip(out.swapaxes(0, 1), w, strict=True):
        if noise is not None:
            plane += _apply(pair[1], noise.swapaxes(0, 1))
    return out


def _detect(ctx: _Context, bits, h, noise, step: int, room=None):
    """Evaluate every detector on the T trials of a block or per_trial stack.

    h is their (2, T, M, K) fading planes and noise(plane, part) a slice of
    their noise planes, read in stream order (see _draw_symbols).  They are
    counted step trials a slice: a per_trial stack, whose G draws serve one
    trial each, in one.  room is the spare room of a fixed-mode block's
    buffer (see _block_fixed), else None.  ctx fixes each slice's receive
    form:
    - the folded count (see _fold) makes two passes over the slices: the
      first stashes the real noise plane's rows F L w_re in room, the
      second reads w_im and adds the stash, so no noise plane is kept;
    - every other count reads both noise planes of a slice and applies F
      to the real planes of y = R x + L w (see _linear).  A type2 slice
      then takes the combined-domain step, which counts nonconv with or
      without a combined-domain detector (see _detect_combined).  The
      low-rank bound (see model._low_rank_bound) carries from slice to
      slice.
    Returns (counts, nonconv): counts is the (2, D + C) array of bit errors
    and counted trials per detector in _split order.  A detector keeps the
    trials whose draws it was built on (and, for the type2 decorrelator,
    whose H was invertible).
    """
    cfg, matrix, size = ctx.cfg, len(ctx.built), len(bits)
    type2, folded = cfg.receiver == "type2", len(ctx.filters) == 2
    parts = [slice(lo, min(lo + step, size)) for lo in range(0, size, step)]
    counts = np.zeros((2, matrix + len(ctx.combined)), dtype=np.int64)
    nonconv, bound = 0, ctx.bound
    if folded:
        stash = room.reshape(cfg.subcarriers, size, -1)
        for part in parts:
            stash[:, part] = _apply(ctx.filters[1], noise(0, part).swapaxes(0, 1))
    for part in parts:
        scale, fading = ctx.amplitudes * bits[part], h[:, part]
        w = [None if folded else noise(0, part), noise(1, part)]
        # z = F y is dropped once counted: it is D R / K times the size of y
        if folded:
            z = _linear(ctx.filters, scale, fading, w)
            z[:, 0] += stash[:, part]
        else:
            y = _linear((ctx.correlations, ctx.factors), scale, fading, w)
            z = _apply(ctx.filters[0], y) if matrix else None
        if matrix:
            counts[:, :matrix] += _count_matrix_forms(ctx, bits[part], fading, z)
        if type2:
            got, more, bound = _detect_combined(ctx, bits[part], fading, y, bound)
            counts[:, matrix:] += got
            nonconv += more
    return counts, nonconv


def _count_matrix_forms(ctx: _Context, bits, h, z):
    """Bit errors and counted trials of every matrix-form detector, in _split order.

    h is the (2, T, M, K) fading planes and z the (M, 2, T, D R) rows F y
    of every detector on every subcarrier and plane (see _detect); z is
    overwritten.  The statistic Re(conj(h_i) z) = h_re z_re + h_im z_im
    accumulates in subcarrier order 0..M-1.  A computed zero (or NaN)
    decides +1: a statistic that is zero in exact arithmetic takes the sign
    of its rounding, which tests/reference.py counts as a tie.
    """
    wrong = bits[:, ctx.rows] < 0                       # (T, R)
    trials, counted = wrong.shape
    g = ctx.built.shape[1]
    z = z.reshape(z.shape[:3] + (-1, counted))
    z *= h[..., ctx.rows].transpose(2, 0, 1, 3)[:, :, :, None]
    z[:, 0] += z[:, 1]
    stat = _subcarrier_sum(z[:, 0])                     # (T, D, R)
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
    with the same sign, and nonconv counts the trials with lambda_max(H) >= 2.
    h is the chunk's (2, B, M, K) fading planes and y its (M, 2, B, K) real
    planes (see _linear).  Each is copied into a user-major complex
    (M, K, B) array, the layout the chains take (see _cancel_step): h is
    scaled into x in place, and u is summed in y's copy.  H is formed only
    for the decorrelator, all-users proposed (see _series_stats) and the
    trials that the low-rank bound leaves open (model._unsettled; None once
    _nonconvergent drops it).  Returns the (2, C) errors and counted trials
    of ctx.combined, nonconv, and the bound.
    """
    wrong = bits[:, ctx.rows] < 0
    kinds = {spec.kind: spec for spec in ctx.combined}  # the decorrelator has one spec
    dense = "decorrelator" in kinds or ("proposed" in kinds and ctx.cfg.count_all_users)
    b, m, k = h.shape[1:]
    x, u = np.empty((2, m, k, b), dtype=complex)
    x.real, x.imag = h.transpose(0, 2, 3, 1)
    u.real, u.imag = y.transpose(1, 0, 3, 2)
    # p = sum_i |h_i|^2, then x = h / sqrt(p) in place and u = sum_i conj(x_i) y_i
    square = np.square(x.view(float))
    x *= 1.0 / np.sqrt(_subcarrier_sum(square[..., ::2] + square[..., 1::2]))
    xc = np.conj(x)
    u = _subcarrier_sum(np.multiply(xc, u, out=u))
    herm = _combined_matrix(ctx.correlations, x.transpose(2, 0, 1)) if dense else None
    nonconv, bound = _nonconvergent(bound, ctx.correlations, x.transpose(2, 0, 1), herm)
    stats, solved = _series_stats(ctx, x, xc, u, herm), None
    if "decorrelator" in kinds:
        stat, solved = _decorrelate(herm, np.ascontiguousarray(u.T))
        stats[kinds["decorrelator"]] = stat[:, ctx.rows]
    counts = np.empty((2, len(ctx.combined)), dtype=np.int64)
    for j, spec in enumerate(ctx.combined):
        bad = (stats[spec].real < 0) != wrong
        if spec.kind == "decorrelator" and solved is not None:
            bad = bad[solved]
        counts[:, j] = np.count_nonzero(bad), len(bad)
    return counts, nonconv, bound


def _subcarrier_sum(terms):
    """terms[0] + terms[1] + ... of an (M, ...) stack, added in subcarrier order into terms[0]."""
    out = terms[0]
    for term in terms[1:]:
        out += term
    return out


def _combined_matrix(correlations, x):
    """Dense sum_i D(conj x_i) R_i D(x_i) for a (B, M, K) slice of draws.

    That is H for x = h / sqrt(p) (see _detect_combined), R_c for x = h.
    correlations is (M, 1, K, K) shared by the slice, or (M, B, K, K).
    """
    trials, _, users = x.shape
    x = np.ascontiguousarray(x)  # trial-major rows, when x views user-major memory
    xc = np.conj(x)
    out = np.empty((trials, users, users), dtype=complex)
    np.multiply(xc[:, 0, :, None], correlations[0], out=out)
    out *= x[:, 0, None, :]
    term = np.empty_like(out)
    for i in range(1, correlations.shape[0]):
        np.multiply(xc[:, i, :, None], correlations[i], out=term)
        term *= x[:, i, None, :]
        out += term
    return out


def _nonconvergent(bound, correlations, x, herm):
    """nonconv of one chunk, and the low-rank bound for the block's next chunk.

    bound is the low-rank bound (see model._low_rank_bound) while the block
    keeps it, else None.  Only the trials it leaves open (model._unsettled;
    all of them without a bound) go to model._count_nonconvergent, on their
    rows of herm, formed here for those rows alone when the chunk has none.
    A bound that leaves more than half of the chunk open is dropped.
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


def _series_stats(ctx: _Context, x, xc, u, herm) -> dict:
    """Every configured conventional and proposed statistic, (B, R) counted rows by spec.

    x, xc = conj(x) and the (K, B) u are _detect_combined's, herm H or None.
    One cancellation_partials pass per kind yields every stage: conventional
    sums the columns G u by _cancel_step, the last term in the counted rows
    alone; proposed sums the hollow (B, 1, K) rows e_0 G by t (I - H), that
    step with x and xc swapped, or with count_all_users the dense I - H.
    """
    mats, rows, k = ctx.correlations, ctx.rows, x.shape[1]
    index, out = np.arange(k)[rows], {}
    for kind in sorted({spec.kind for spec in ctx.combined} - {"decorrelator"}):
        specs = {spec.stage: spec for spec in ctx.combined if spec.kind == kind}
        top, hollow = max(specs), kind == "proposed"
        if hollow:
            columns = _cancel_step(mats, xc, x)  # t (I - H) is this step on t^T
            rowwise = lambda t: columns(t[:, 0].T).T[:, None]
            step = np.eye(k) - herm if ctx.cfg.count_all_users else rowwise
            first, steps = _identities(x.transpose(2, 0, 1), index), [step] * top
            u_col = np.ascontiguousarray(u.T)[..., None]
        else:
            first = u
            steps = [_cancel_step(mats, x, xc)] * (top - 2) + [_cancel_step(mats, x, xc, rows)]
        series = cancellation_partials(first, steps[: top - 1], hollow, rows=index)
        for stage, total in enumerate(series, 1):
            if stage in specs:
                out[specs[stage]] = (total @ u_col)[..., 0] if hollow else total[rows].T.copy()
    return out


def _cancel_step(correlations, x, xc, rows=slice(None)):
    """The step v -> v - H v of user-major (K, B) columns, H = sum_i D(xc_i) R_i D(x_i).

    x is (M, K, B) and xc = conj(x).  H v = sum_i xc_i (R_i (x_i v)) takes
    one real GEMM per R_i (see _users).  rows, a slice, applies only those
    rows of each R_i, and the other rows come back zero.
    """

    def step(v):
        applied = _users(correlations[:, :, rows], x * v)
        hv = _subcarrier_sum(np.multiply(xc[:, rows], applied, out=applied))
        out = hv if len(hv) == len(v) else np.zeros(v.shape, dtype=complex)
        np.subtract(v[rows], hv, out=out[rows])
        return out

    return step


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
    """One fixed-mode block: bits and fading drawn whole, noise as _detect reads it.

    The folded count (see _fold) reads _COUNT_TRIALS trials a slice, keeps
    no noise plane and takes its (M, T, D R) stash as the buffer's work
    room.  The other forms need both noise planes of a slice at once: they
    read _CHUNK_TRIALS trials a slice, keep w_re and take no work room.
    The slices keep the temporaries cache-sized, and their size enters no
    record.  Returns (counts, nonconv).
    """
    cfg, folded = ctx.cfg, len(ctx.filters) == 2
    step = min(_COUNT_TRIALS if folded else _CHUNK_TRIALS, size)
    work = cfg.subcarriers * size * ctx.filters[0].shape[2] if folded else 0
    rng = np.random.default_rng(seed_seq)
    bits, h, noise, room = _draw_symbols(rng, cfg, ctx.sigma2, size, step, not folded, work)
    return _detect(ctx, bits, h, noise, step, room)


def _block_per_trial(cfg: ExperimentConfig, seed_seq, size: int):
    """Per-trial spreading redraw: sequences, bits, channel, noise per trial.

    Trials are drawn in chunks of _DRAW_CHUNK, each trial as a one-trial
    block would draw it (see _draw_trials); a chunk is then built and
    detected as one stack of draws, in one slice.  Each build and schedule
    has a fixed cost per stack, so a chunk of 64 draws pays it half as often
    as one of 32; chunks of 128 or more ran no faster and took more
    memory.  Returns (counts, nonconv).
    """
    rng = np.random.default_rng(seed_seq)
    sigma2 = cfg.sigma2()
    counts, nonconv = 0, 0
    for lo in range(0, size, _DRAW_CHUNK):
        correlations, factors, bits, planes = _draw_trials(
            cfg, rng, sigma2, min(_DRAW_CHUNK, size - lo)
        )
        ctx = _prepare_context(cfg, correlations, factors)
        noise = lambda plane, part: planes[2 + plane, part]
        got, more = _detect(ctx, bits, planes[:2], noise, len(bits))
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
