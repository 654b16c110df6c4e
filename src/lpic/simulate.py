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
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil, log10, sqrt

import numpy as np

from .config import ConfigError, ExperimentConfig
from .filters import (
    _PIVOT_RTOL,
    SPECTRAL_KINDS,
    build_filter,
    cancellation_partials,
    singular_draws,
)
from .model import convergence_check, correlation_matrix, generate_spreading_set, noise_transform
from .sinr import compute_weight_schedule, sinr_breakdown

THREADS_ENV = "LPIC_THREADS"

_BLOCK_TRIALS = 8192   # fixed: part of the deterministic draw structure
_CHUNK_TRIALS = 256    # cache-sized slice for dense combined-domain matrices
_DRAW_CHUNK = 32       # per_trial draws built as one stack; bounds the build temporaries
_CERT_MARGIN = 1e-9    # nonconv certificate margin, far above rounding
_CERT_RANK = 3         # eigenpairs per subcarrier in the low-rank nonconv bound
_MAX_REDRAWS = 1000    # sequence redraw attempts before giving up
# what a detector build raises on a draw it cannot serve (singular or
# indefinite matrix, non-finite weight schedule)
_BUILD_ERRORS = (ValueError, np.linalg.LinAlgError)
_Z95 = 1.959963984540054

BER_CSV_HEADER = "detector,stage,receiver,snr_db,trials,bit_errors,ber,ci_low,ci_high,nonconv"
SINR_CSV_HEADER = "user,stage,weight,sinr_db"


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
    nonconv: int = 0   # draws with lambda_max(R_eff) >= 2; combined-domain runs only


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

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def render_ber_csv(records: list[BerRecord]) -> str:
    lines = [BER_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.detector},{r.stage},{r.receiver},{_fmt(r.snr_db)},{r.trials},"
            f"{r.bit_errors},{_fmt(r.ber)},{_fmt(r.ci_low)},{_fmt(r.ci_high)},{r.nonconv}"
        )
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> list[BerRecord]:
    """Inverse of render_ber_csv; floats round-trip exactly at 17 digits."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != BER_CSV_HEADER:
        raise ValueError("not a BER record CSV (bad header)")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise ValueError(f"bad record line: {ln!r}")
        out.append(
            BerRecord(
                detector=parts[0],
                stage=int(parts[1]),
                receiver=parts[2],
                snr_db=float(parts[3]),
                trials=int(parts[4]),
                bit_errors=int(parts[5]),
                ber=float(parts[6]),
                ci_low=float(parts[7]),
                ci_high=float(parts[8]),
                nonconv=int(parts[9]),
            )
        )
    return out


def render_sinr_csv(points: list[SinrPoint]) -> str:
    lines = [SINR_CSV_HEADER]
    for p in points:
        lines.append(f"{p.user},{p.stage},{_fmt(p.weight)},{_fmt(p.sinr_db)}")
    return "\n".join(lines) + "\n"


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
    specs: list                # matrix-form detectors, in filters order
    filters: np.ndarray        # (D, G, M, R, K) their counted filter rows
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


def _prepare_context(cfg: ExperimentConfig, correlations, factors) -> _Context:
    """Build every detector on a stack of G spreading draws.

    correlations and factors are (M, G, K, K): G = 1 for the one draw of a
    fixed-mode run, or G per-trial draws, which every build and the weight
    schedule take as one stack.  A matrix-form detector builds only the
    counted rows of its filter on each subcarrier (single carrier is M = 1),
    stacked over detectors into one (D, G, M, R, K) tensor: R = K with
    count_all_users, else 1.  Type2 detectors other than mmse have no fixed
    filter and run per trial in the combined domain.

    Failures are isolated.  A detector that cannot be built on the stack is
    rebuilt draw by draw and marked as not built on the draws that fail.
    """
    amplitudes, sigma2 = cfg.amplitudes(), cfg.sigma2()
    rows = slice(None) if cfg.count_all_users else slice(0, 1)
    counted = cfg.users if cfg.count_all_users else 1
    weighted_stages = [d.stage for d in cfg.detectors if d.kind == "weighted_proposed"]
    top = max(max(weighted_stages), 2) if weighted_stages else 0

    def counted_rows(spec, mats, schedule, spectra=None):
        """(..., M, R, K) counted rows of one detector on (M, ..., K, K) draws."""
        if spec.kind == "weighted_proposed" and isinstance(schedule, Exception):
            raise schedule
        out = np.empty(mats.shape[1:-2] + (cfg.subcarriers, counted, cfg.users), dtype=complex)
        for i in range(cfg.subcarriers):
            out[..., i, :, :] = build_filter(
                spec.kind,
                mats[i],
                spec.stage,
                sigma2=sigma2,
                schedule=schedule[i] if spec.kind == "weighted_proposed" else None,
                eigenvalues=None if spectra is None else spectra[i],
                rows=rows,
            )
        return out

    def schedule_of(mats):
        if not top:
            return None
        try:
            return compute_weight_schedule(mats, amplitudes, sigma2, top)[0]
        except _BUILD_ERRORS as exc:  # schedule failure downs only the weighted detectors
            return exc

    draws = correlations.shape[1]
    schedule = schedule_of(correlations)
    spectra = None  # eigvalsh of each subcarrier's correlations, shared by SPECTRAL_KINDS
    specs, stacks, built, combined = [], [], [], []
    for spec in cfg.detectors:
        if cfg.receiver == "type2" and spec.kind != "mmse":
            combined.append(spec)
            continue
        try:
            if spec.kind in SPECTRAL_KINDS and spectra is None:
                spectra = [np.linalg.eigvalsh(mats) for mats in correlations]
            given = spectra if spec.kind in SPECTRAL_KINDS else None
            stacks.append(counted_rows(spec, correlations, schedule, given))
            built.append(np.ones(draws, dtype=bool))
        except _BUILD_ERRORS:
            # rebuild draw by draw, so one bad draw costs only itself
            rebuilt = np.zeros((draws, cfg.subcarriers, counted, cfg.users), dtype=complex)
            ok = np.zeros(draws, dtype=bool)
            weighted = spec.kind == "weighted_proposed"
            for b in range(draws):
                one = correlations[:, b]
                try:
                    rebuilt[b] = counted_rows(spec, one, schedule_of(one) if weighted else None)
                    ok[b] = True
                except _BUILD_ERRORS:
                    pass
            stacks.append(rebuilt)
            built.append(ok)
        specs.append(spec)

    filters = np.array(stacks, dtype=complex).reshape(
        len(specs), draws, cfg.subcarriers, counted, cfg.users
    )
    # per_trial draws are used once each: nothing to share the eigenpairs over
    type2_fixed = cfg.receiver == "type2" and cfg.sequence_mode == "fixed"
    return _Context(
        cfg=cfg,
        correlations=correlations,
        factors=factors,
        amplitudes=amplitudes,
        sigma2=sigma2,
        rows=rows,
        specs=specs,
        filters=filters,
        built=np.array(built, dtype=bool).reshape(len(specs), draws),
        combined=combined,
        bound=_low_rank_bound(correlations[:, 0]) if type2_fixed else None,
    )


def _low_rank_bound(correlations):
    """What the low-rank nonconv certificate needs of one fixed (M, K, K) draw.

    With the top r = _CERT_RANK eigenpairs (lambda_ij, u_ij) of each R_i and
    c = max_i lambda_{r+1}(R_i), every R_i <= c I + sum_j (lambda_ij - c)^+
    u_ij u_ij^T.  Returns (2 - margin - c, W), W the (M, r, K) stack of the
    rows u_ij sqrt((lambda_ij - c)^+); see _unsettled.  None when the bound could
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
    weights = u[:, :, -_CERT_RANK:] * scale[:, None, :]
    # C order, so that each chunk's product with it reshapes to V^H in place
    return headroom, np.ascontiguousarray(weights.transpose(0, 2, 1))


# --- block simulation -----------------------------------------------------

def _draw_symbols(rng: np.random.Generator, cfg: ExperimentConfig, sigma2: float, size: int):
    """Bits, fading and noise of size trials; fixed draw order (bits, channel, noise).

    Each of fading and noise draws its real parts, then its imaginary parts.
    """
    k, m = cfg.users, cfg.subcarriers
    bits = (rng.integers(0, 2, size=(size, k)) * 2 - 1).astype(np.float64)
    h = sqrt(0.5) * (
        rng.standard_normal((size, m, k)) + 1j * rng.standard_normal((size, m, k))
    )
    w = sqrt(sigma2 / 2.0) * (
        rng.standard_normal((size, m, k)) + 1j * rng.standard_normal((size, m, k))
    )
    return bits, h, w


def _draw_trials(cfg: ExperimentConfig, rng: np.random.Generator, sigma2: float, count: int):
    """count trials, each with its own spreading draw.

    Every trial reads the stream of a one-trial block: its sequences, then
    what _draw_symbols(rng, cfg, sigma2, 1) reads, taking the four normal
    arrays in one call.  The chunk's sequences are correlated and factored
    as one stack.  Returns (M, count, K, K) correlations and factors, then
    bits, fading and noise.
    """
    chips, raw_bits, normals = [], [], []
    for _ in range(count):
        chips.append(_spreading_sets(cfg, rng))
        raw_bits.append(rng.integers(0, 2, size=(1, cfg.users)))
        normals.append(rng.standard_normal((4, 1, cfg.subcarriers, cfg.users)))
    correlations, factors = _correlate(cfg, np.array(chips))
    normals = np.concatenate(normals, axis=1)
    # the arithmetic of _draw_symbols on the stacked draws
    bits = (np.concatenate(raw_bits) * 2 - 1).astype(np.float64)
    h = sqrt(0.5) * (normals[0] + 1j * normals[1])
    w = sqrt(sigma2 / 2.0) * (normals[2] + 1j * normals[3])
    return correlations, factors, bits, h, w


def _apply(mats, v):
    """Per-draw products v_t R^T: v is (M, T, K), mats (M, G, K, K).

    Each of the G draws serves T / G consecutive trials, so the products run
    as one stacked GEMM per subcarrier and draw; the result is (M, T, K).
    """
    m, g, k = mats.shape[0], mats.shape[1], mats.shape[-1]
    out = np.matmul(v.reshape(m, g, -1, k), mats.transpose(0, 1, 3, 2))
    return out.reshape(m, -1, k)


def _receive(ctx: _Context, bits, h, w):
    """Matched-filter outputs y = R x + L w.

    y comes back as a (T, M, K) view of an (M, T, K) array.
    """
    x = (ctx.amplitudes * bits)[:, None, :] * h
    y = _apply(ctx.correlations, x.transpose(1, 0, 2))
    y += _apply(ctx.factors, w.transpose(1, 0, 2))
    return y.transpose(1, 0, 2)


def _detect_block(ctx: _Context, bits, h, y):
    """Evaluate every prepared detector on one drawn block.

    Returns (errors, kept, nonconv): bit errors and counted trials per
    detector, and the nonconv diagnostic.  A detector keeps the trials whose
    draws it was built on (and, for the type2 decorrelator, whose R_eff was
    invertible).
    """
    errors, kept = Counter(), Counter()
    _count_matrix_forms(ctx, bits, h, y, errors, kept)
    if ctx.cfg.receiver != "type2":
        return errors, kept, 0
    return errors, kept, _detect_combined(ctx, bits, h, y, errors, kept)


def _count_matrix_forms(ctx: _Context, bits, h, y, errors, kept) -> None:
    """Bit errors of every matrix-form detector from its counted filter rows.

    One GEMM per subcarrier and draw evaluates a group of detectors at once,
    and the coherent combination accumulates in subcarrier order 0..M-1.  A
    group has at most K output columns, so counting every user holds no
    more per GEMM than one full filter does.  An exact zero (or NaN)
    decides +1.
    """
    detectors, g, m, counted, k = ctx.filters.shape
    n = len(y) // g                                  # trials per draw
    hc = np.conj(h[:, :, ctx.rows]).reshape(g, n, m, counted)
    wrong = (bits[:, None, ctx.rows] < 0).reshape(g, n, 1, counted)
    step = k // counted
    for lo in range(0, detectors, step):
        group = ctx.filters[lo : lo + step]
        stat = None
        for i in range(m):
            rows_t = group[:, :, i].transpose(1, 0, 2, 3).reshape(g, -1, k).transpose(0, 2, 1)
            z = np.matmul(y[:, i, :].reshape(g, n, k), rows_t).reshape(g, n, -1, counted)
            np.multiply(hc[:, :, i, None, :], z, out=z)
            if stat is None:
                stat = z
            else:
                stat += z
        bad = (stat.real < 0) != wrong               # (G, n, D', R)
        built = ctx.built[lo : lo + step].T          # (G, D')
        if not built.all():
            bad &= built[:, None, :, None]
        specs = ctx.specs[lo : lo + step]
        errors.update(dict(zip(specs, np.count_nonzero(bad, axis=(0, 1, 3)).tolist())))
        kept.update(dict(zip(specs, (n * np.count_nonzero(built, axis=0)).tolist())))


def _detect_combined(ctx: _Context, bits, h, y, errors, kept) -> int:
    """Type2 detectors without a fixed filter, plus the nonconv diagnostic.

    Combines first, then cancels in the combined domain, where
    R_eff = R_c P^-1 (P = diag of per-user combined power) changes per trial.
    Adds each detector's errors and counted trials; returns nonconv.
    """
    shared = ctx.correlations.shape[1] == 1
    wrong = bits[:, ctx.rows] < 0
    dense = any(spec.kind in ("proposed", "decorrelator") for spec in ctx.combined)
    proposed = {spec.stage: spec for spec in ctx.combined if spec.kind == "proposed"}
    bound = ctx.bound
    nonconv = 0

    # cache-sized chunks; a dense R_c is formed only for the detectors that
    # need the matrix form, or for the trials the low-rank bound leaves open
    for lo in range(0, len(y), _CHUNK_TRIALS):
        chunk = slice(lo, lo + _CHUNK_TRIALS)
        mats = ctx.correlations if shared else ctx.correlations[:, chunk]
        h_c = h[chunk]
        hc = np.conj(h_c)
        y_c = np.sum(hc * y[chunk], axis=1)
        power = np.sum(np.abs(h_c) ** 2, axis=1)                 # (B, K)
        r_c = _combined_matrix(mats, h_c, hc) if dense else None
        open_rows = None if bound is None else _unsettled(bound, h_c, power)
        if open_rows is not None and 2 * np.count_nonzero(open_rows) > len(open_rows):
            bound = None  # settles too few trials of this draw to pay for itself
        nonconv += _nonconvergent(open_rows, mats, h_c, hc, power, r_c)
        stats = _proposed_stats(r_c, power, y_c, proposed) if proposed else {}
        for spec in ctx.combined:
            solved = None
            if spec.kind == "mf":
                stat = y_c
            elif spec.kind == "conventional":
                stat = _conventional_type2(mats, h_c, hc, power, y_c, spec.stage)
            elif spec.kind == "proposed":
                stat = stats[spec]
            else:
                stat, solved = _decorrelate(r_c, power, y_c)
            bad = (stat[:, ctx.rows].real < 0) != wrong[chunk]
            if solved is not None:
                bad = bad[solved]
            errors[spec] += int(np.count_nonzero(bad))
            kept[spec] += len(bad)
    return nonconv


def _combined_matrix(correlations, h, hc):
    """Dense R_c = sum_i D(conj h_i) R_i D(h_i) for a (B, M, K) slice of draws.

    correlations is (M, 1, K, K) shared by the slice, or (M, B, K, K).
    """
    r_c = hc[:, 0, :, None] * correlations[0]
    r_c *= h[:, 0, None, :]
    term = np.empty_like(r_c)
    for i in range(1, correlations.shape[0]):
        np.multiply(hc[:, i, :, None], correlations[i], out=term)
        term *= h[:, i, None, :]
        r_c += term
    return r_c


def _nonconvergent(open_rows, mats, h, hc, power, r_c) -> int:
    """nonconv of one chunk whose other trials the low-rank bound settled.

    open_rows masks the trials it left open (None: all of them, as without
    a bound).  Only those go to _count_nonconvergent, on their rows of r_c,
    which is formed here for those rows alone when the chunk has none.
    """
    if open_rows is not None:
        if not open_rows.any():
            return 0
        h, hc, power = h[open_rows], hc[open_rows], power[open_rows]
        r_c = None if r_c is None else r_c[open_rows]
    if r_c is None:
        r_c = _combined_matrix(mats, h, hc)
    return _count_nonconvergent(r_c, power)


def _unsettled(bound, h, power):
    """Mask of the trials that the low-rank bound does not prove convergent.

    With D_i = diag(h_i / sqrt(p)), H = P^-1/2 R_c P^-1/2 = sum_i D_i^H R_i D_i
    and sum_i D_i^H D_i = I, so the bound on each R_i (see _low_rank_bound)
    gives H <= c I + V V^H, V = [conj(h_i) / sqrt(p) * w_ij], K x Mr per
    trial.  Hence lambda_max(H) <= c + lambda_max(V^H V), and a Cholesky
    factor of (2 - margin - c) I - V^H V proves lambda_max(H) < 2 - margin.
    One batched factorisation settles a whole chunk.  A chunk where it fails
    is split per trial by lambda_max(G) <= ||G^2||_F^(1/2), G = V^H V, which
    settles all but a few of its trials at a fraction of eigvalsh's cost.
    Rounding in eigh of R_i and in these Mr x Mr products and factorisations
    moves the bound by O(K eps), a few 1e-15 at lambda ~ 1: six orders
    inside the 1e-9 margin.  So a settled trial's lambda_max(H) is below 2
    by far more than eigvalsh's own error: the dense test would count none
    of them, and the chunk's count stays exact.
    """
    headroom, weights = bound                                 # weights (M, r, K)
    vh = (h / np.sqrt(power)[:, None, :])[:, :, None, :] * weights
    vh = vh.reshape(len(h), -1, weights.shape[-1])            # V^H, (B, Mr, K)
    gram = vh @ np.conj(vh).transpose(0, 2, 1)
    if _factorizes(-gram, headroom):
        return np.zeros(len(h), dtype=bool)
    return np.sqrt(np.linalg.norm(gram @ gram, axis=(1, 2))) >= headroom


def _proposed_stats(r_c, power, y_c, proposed) -> dict:
    """Type2 proposed statistics G_m y_c of every configured stage m, one series pass.

    proposed maps stage to spec.  The filters are the partial sums of the
    build_filter("proposed", R_eff, m) series, so each equals that build.
    """
    r_eff = r_c / power[:, None, :]
    eye = np.eye(r_eff.shape[-1], dtype=r_eff.dtype)
    steps = [eye - r_eff] * (max(proposed) - 1)
    series = cancellation_partials(np.broadcast_to(eye, r_eff.shape), steps, hollow=True)
    return {
        proposed[stage]: (g @ y_c[..., None])[..., 0]
        for stage, g in enumerate(series, 1)
        if stage in proposed
    }


def _count_nonconvergent(r_c, power) -> int:
    """Count draws with lambda_max(R_eff) >= 2, exactly.

    R_eff = R_c P^-1 is similar to the Hermitian P^-1/2 R_c P^-1/2, and by
    congruence (2 - margin) P - R_c is positive definite exactly when that
    matrix's lambda_max < 2 - margin.  So one successful batched Cholesky
    proves every draw convergent; only a chunk where it fails pays for
    eigvalsh.  The margin dwarfs the factorisation's rounding, so the count
    equals eigvalsh's on every draw.
    """
    if _factorizes(-r_c, (2.0 - _CERT_MARGIN) * power):
        return 0
    lam_max = np.linalg.eigvalsh(_hermitian(r_c, power))[:, -1]
    return int(np.count_nonzero(lam_max >= 2.0))


def _factorizes(shifted, shift) -> bool:
    """Whether every draw of shifted + diag(shift) has a Cholesky factor; overwrites shifted."""
    diag = np.arange(shifted.shape[-1])
    shifted[:, diag, diag] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _hermitian(r_c, power):
    """P^-1/2 R_c P^-1/2, the Hermitian matrix similar to R_eff = R_c P^-1."""
    s = np.sqrt(power)
    return r_c / (s[:, :, None] * s[:, None, :])


def _conventional_type2(correlations, h, hc, power, y_c, stage: int):
    """Conventional combined-domain series without forming R_eff.

    R_eff v = sum_i conj(h_i) * (R_i (h_i * v / p)): stacked GEMMs per stage
    over a subcarrier-major view of the draws (see _apply).
    """
    h_t, hc_t = h.transpose(1, 0, 2), hc.transpose(1, 0, 2)
    stat = y_c.copy()
    for _ in range(stage - 1):
        applied = np.sum(hc_t * _apply(correlations, h_t * (stat / power)), axis=0)
        stat = y_c + stat - applied
    return stat


def _decorrelate(r_c, power, y_c):
    """Decorrelator statistics R_eff^-1 y_c and the mask of trials solved.

    A trial whose Hermitian form H (see _hermitian) fails the filters' pivot
    threshold is left unsolved, as a singular R is for the single-carrier
    decorrelator.  H is PSD, so lambda_max(H) <= tr(H) = tr(R_eff), and one
    batched Cholesky of R_c - (rtol tr(H) + margin) P proves a chunk regular;
    only a chunk where it fails pays for eigvalsh, whose mask it equals.
    The mask is None when every trial was solved.
    """
    r_eff = r_c / power[:, None, :]
    trace = np.trace(r_eff, axis1=1, axis2=2).real
    if _factorizes(r_c.copy(), -(_PIVOT_RTOL * trace + _CERT_MARGIN)[:, None] * power):
        return np.linalg.solve(r_eff, y_c[:, :, None])[:, :, 0], None
    ok = ~singular_draws(np.linalg.eigvalsh(_hermitian(r_c, power)))
    stat = np.zeros_like(y_c)
    stat[ok] = np.linalg.solve(r_eff[ok], y_c[ok, :, None])[:, :, 0]
    return stat, None if ok.all() else ok


def _block_fixed(ctx: _Context, seed_seq, size: int):
    rng = np.random.default_rng(seed_seq)
    bits, h, w = _draw_symbols(rng, ctx.cfg, ctx.sigma2, size)
    return _detect_block(ctx, bits, h, _receive(ctx, bits, h, w))


def _block_per_trial(cfg: ExperimentConfig, seed_seq, size: int):
    """Per-trial spreading redraw: sequences, bits, channel, noise per trial.

    Trials are drawn in chunks of _DRAW_CHUNK, each trial as a one-trial
    block would draw it (see _draw_trials); a chunk is then built and
    detected as one stack of draws.
    """
    rng = np.random.default_rng(seed_seq)
    sigma2 = cfg.sigma2()
    errors, kept, nonconv = Counter(), Counter(), 0
    for lo in range(0, size, _DRAW_CHUNK):
        correlations, factors, bits, h, w = _draw_trials(
            cfg, rng, sigma2, min(_DRAW_CHUNK, size - lo)
        )
        ctx = _prepare_context(cfg, correlations, factors)
        y = _receive(ctx, bits, h, w)
        got_errors, got_kept, got_nonconv = _detect_block(ctx, bits, h, y)
        errors.update(got_errors)
        kept.update(got_kept)
        nonconv += got_nonconv
    return errors, kept, nonconv


def run_ber_experiment(cfg: ExperimentConfig, threads: int | None = None) -> list[BerRecord]:
    """Run the configured Monte Carlo BER experiment.

    Returns one record per detector in (kind, stage) order.  In fixed mode a
    detector whose filters cannot be constructed, or that fails on some trial
    (a singular type2 R_eff), yields a flagged row (trials=0, ber=nan) while
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
        correlations, factors = _draw_correlations(cfg, np.random.default_rng(seq_ss))
        ctx = _prepare_context(cfg, correlations, factors)

    n_blocks = ceil(cfg.trials / _BLOCK_TRIALS)
    sizes = [
        min(_BLOCK_TRIALS, cfg.trials - i * _BLOCK_TRIALS) for i in range(n_blocks)
    ]
    block_seeds = blocks_parent.spawn(n_blocks)

    if fixed:
        work = lambda args: _block_fixed(ctx, args[0], args[1])
    else:
        work = lambda args: _block_per_trial(cfg, args[0], args[1])

    errors, kept, nonconv_total = Counter(), Counter(), 0
    jobs = list(zip(block_seeds, sizes))
    workers = min(threads, len(jobs))  # a worker without a block would only idle
    if workers == 1:
        results = map(work, jobs)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, jobs))
    for block_errors, block_kept, nonconv in results:
        errors.update(block_errors)
        kept.update(block_kept)
        nonconv_total += nonconv

    suffix = "[all-users]" if cfg.count_all_users else ""
    per_trial_bits = cfg.users if cfg.count_all_users else 1
    records = []
    for spec in cfg.detectors:
        trials = kept[spec]
        if trials == 0 or (fixed and trials < cfg.trials):  # flagged: the detector failed
            trials = errs = nonconv = 0
            ber = lo = hi = float("nan")
        else:
            trials *= per_trial_bits
            errs = errors[spec]
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
