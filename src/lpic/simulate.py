"""Monte Carlo BER harness and SINR sweep runner.

Determinism contract: a (config, seed) pair fully determines every record.
Trials are partitioned into fixed-size blocks, each block gets its own
SeedSequence child, and worker threads (LPIC_THREADS) only distribute whole
blocks, so results are bit-identical for any worker count.  Near-far profiles
scale amplitudes after the draws, so bit/fading/noise streams are shared
between profiles at the same seed.

Error counting uses the desired user 0 only unless count_all_users is set,
in which case the detector label gains an "[all-users]" suffix and the
trials field counts bits (trials x K).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil, log10, sqrt

import numpy as np

from .config import ConfigError, ExperimentConfig
from .filters import build_filter
from .model import (
    NotPositiveSemidefiniteError,
    convergence_check,
    correlation_matrix,
    generate_spreading_set,
    noise_transform,
)
from .sinr import compute_weight_schedule, sinr_sweep

THREADS_ENV = "LPIC_THREADS"

_BLOCK_TRIALS = 8192   # fixed: part of the deterministic draw structure
_CHUNK_TRIALS = 256    # cache-sized slice for dense combined-domain matrices
_CERT_MARGIN = 1e-9    # nonconv certificate margin, far above rounding
_MAX_REDRAWS = 1000    # sequence redraw attempts before giving up
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


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default).

    Always contains errors/trials; collapses sensibly at 0 and trials.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must be in 0..trials")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
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


def emit_csv(records: list[BerRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_ber_csv(records))


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
    """Everything fixed across the trials drawn on one spreading draw."""

    cfg: ExperimentConfig
    correlations: np.ndarray   # (M, K, K)
    factors: np.ndarray        # (M, K, K) noise shaping
    amplitudes: np.ndarray
    sigma2: float
    rows: slice                # counted users: all K, or user 0 alone
    specs: list                # matrix-form detectors, in filters order
    filters: np.ndarray        # (D, M, R, K) their counted filter rows
    combined: list             # type2 detectors evaluated in the combined domain
    failed: dict               # DetectorSpec -> reason


def _draw_correlations(cfg: ExperimentConfig, rng: np.random.Generator):
    """Spreading draw with the documented redraw policy.

    Redraws on a non-factorizable correlation matrix, and (when
    require_convergent is set) until every subcarrier satisfies
    lambda_max < 2.  Deterministic given the rng state.
    """
    draws = 1 if cfg.subcarrier_sequences == "identical" else cfg.subcarriers
    for _ in range(_MAX_REDRAWS):
        mats = [
            correlation_matrix(generate_spreading_set(cfg.users, cfg.chips, rng))
            for _ in range(draws)
        ]
        if draws == 1 and cfg.subcarriers > 1:
            mats = mats * cfg.subcarriers
        try:
            factors = [noise_transform(r) for r in mats]
        except NotPositiveSemidefiniteError:
            continue
        if cfg.require_convergent and not all(
            convergence_check(r).converges for r in mats
        ):
            continue
        return np.stack(mats), np.stack(factors)
    raise RuntimeError(f"no acceptable spreading draw in {_MAX_REDRAWS} attempts")


def _prepare_context(cfg: ExperimentConfig, correlations, factors) -> _Context:
    """Build every detector for one spreading draw; failures are isolated.

    A matrix-form detector keeps only the counted rows of its filter on each
    subcarrier (single carrier is M = 1), stacked over detectors into one
    (D, M, R, K) tensor: R = K with count_all_users, else 1.  Type2
    detectors other than mmse have no fixed filter and run per draw in the
    combined domain.
    """
    amplitudes, sigma2 = cfg.amplitudes(), cfg.sigma2()
    rows = slice(None) if cfg.count_all_users else slice(0, 1)
    weighted_stages = [d.stage for d in cfg.detectors if d.kind == "weighted_proposed"]
    schedules = None
    if weighted_stages:
        top = max(max(weighted_stages), 2)
        try:
            schedules = [
                compute_weight_schedule(r, amplitudes, sigma2, top) for r in correlations
            ]
        except Exception as exc:  # schedule failure downs only the weighted detectors
            schedules = exc

    specs, stacks, combined, failed = [], [], [], {}
    for spec in cfg.detectors:
        try:
            if spec.kind == "weighted_proposed" and isinstance(schedules, Exception):
                raise schedules
            if cfg.receiver == "type2" and spec.kind != "mmse":
                if spec.kind not in ("mf", "conventional", "proposed", "decorrelator"):
                    raise ConfigError(
                        f"{spec.kind} has no combined-domain form (receiver=type2)"
                    )
                combined.append(spec)
                continue
            stacks.append(
                [
                    build_filter(
                        spec.kind,
                        correlations[i],
                        spec.stage,
                        sigma2=sigma2,
                        schedule=schedules[i] if spec.kind == "weighted_proposed" else None,
                    ).matrix[rows]
                    for i in range(cfg.subcarriers)
                ]
            )
            specs.append(spec)
        except Exception as exc:
            failed[spec] = f"{type(exc).__name__}: {exc}"
    counted = cfg.users if cfg.count_all_users else 1
    filters = np.array(stacks, dtype=complex).reshape(
        len(specs), cfg.subcarriers, counted, cfg.users
    )
    return _Context(
        cfg=cfg,
        correlations=correlations,
        factors=factors,
        amplitudes=amplitudes,
        sigma2=sigma2,
        rows=rows,
        specs=specs,
        filters=filters,
        combined=combined,
        failed=failed,
    )


# --- block simulation -----------------------------------------------------

def _draw_block(rng: np.random.Generator, ctx: _Context, size: int):
    """Draw one block of trials; fixed draw order (bits, channel, noise).

    The per-subcarrier products run as stacked GEMMs over a subcarrier-major
    view, so y comes back as a (size, M, K) view of an (M, size, K) array.
    """
    k, m = ctx.cfg.users, ctx.cfg.subcarriers
    bits = (rng.integers(0, 2, size=(size, k)) * 2 - 1).astype(np.float64)
    h = sqrt(0.5) * (
        rng.standard_normal((size, m, k)) + 1j * rng.standard_normal((size, m, k))
    )
    w = sqrt(ctx.sigma2 / 2.0) * (
        rng.standard_normal((size, m, k)) + 1j * rng.standard_normal((size, m, k))
    )
    x = (ctx.amplitudes * bits)[:, None, :] * h
    y = np.matmul(x.transpose(1, 0, 2), ctx.correlations.transpose(0, 2, 1))
    y += np.matmul(w.transpose(1, 0, 2), ctx.factors.transpose(0, 2, 1))
    return bits, h, y.transpose(1, 0, 2)


def _detect_block(ctx: _Context, bits, h, y):
    """Evaluate every prepared detector on one drawn block.

    Returns (bit errors per detector, nonconv, failed); failed names the
    combined-domain detectors that could not be evaluated on this block.
    """
    counts = _count_matrix_forms(ctx, bits, h, y)
    if ctx.cfg.receiver != "type2":
        return counts, 0, {}
    nonconv, failed = _detect_combined(ctx, bits, h, y, counts)
    return counts, nonconv, failed


def _count_matrix_forms(ctx: _Context, bits, h, y) -> dict:
    """Bit errors of every matrix-form detector from its counted filter rows.

    One GEMM per subcarrier evaluates a group of detectors at once, and the
    coherent combination accumulates in subcarrier order 0..M-1.  A group
    has at most K output columns, so counting every user holds no more per
    GEMM than one full filter does.  An exact zero (or NaN) decides +1.
    """
    detectors, m, counted, k = ctx.filters.shape
    hc = np.conj(h[:, :, ctx.rows])                  # (B, M, R)
    wrong = bits[:, None, ctx.rows] < 0              # (B, 1, R)
    step = k // counted
    counts = {}
    for lo in range(0, detectors, step):
        group = ctx.filters[lo : lo + step]
        stat = None
        for i in range(m):
            z = (y[:, i, :] @ group[:, i].reshape(-1, k).T).reshape(len(y), -1, counted)
            np.multiply(hc[:, i, None, :], z, out=z)
            if stat is None:
                stat = z
            else:
                stat += z
        errors = np.count_nonzero((stat.real < 0) != wrong, axis=(0, 2))
        counts.update(zip(ctx.specs[lo : lo + step], errors.tolist()))
    return counts


def _detect_combined(ctx: _Context, bits, h, y, counts: dict):
    """Type2 detectors without a fixed filter, plus the nonconv diagnostic.

    Combines first, then cancels in the combined domain, where
    R_eff = R_c P^-1 (P = diag of per-user combined power) changes per draw.
    Adds each detector's errors to counts; returns (nonconv, failed).
    """
    hc = np.conj(h)
    y_c = np.sum(hc * y, axis=1)
    power = np.sum(np.abs(h) ** 2, axis=1)                       # (B, K)
    stats = {
        spec: y_c if spec.kind == "mf" else np.empty_like(y_c) for spec in ctx.combined
    }
    dense = any(spec.kind in ("proposed", "decorrelator") for spec in ctx.combined)
    failed = {}
    nonconv = 0

    # cache-sized chunks; one dense R_c per chunk serves the nonconv
    # diagnostic and the detectors that need the matrix form
    for lo in range(0, y_c.shape[0], _CHUNK_TRIALS):
        chunk = slice(lo, lo + _CHUNK_TRIALS)
        r_c = _combined_matrix(ctx.correlations, h[chunk], hc[chunk])
        nonconv += _count_nonconvergent(r_c, power[chunk])
        r_eff = r_c / power[chunk, None, :] if dense else None
        for spec in ctx.combined:
            if spec.kind == "conventional":
                stats[spec][chunk] = _conventional_type2(
                    ctx.correlations, h[chunk], hc[chunk], power[chunk], y_c[chunk], spec.stage
                )
            elif spec.kind == "proposed":
                stats[spec][chunk] = _proposed_type2(r_eff, y_c[chunk], spec.stage)
            elif spec.kind == "decorrelator" and spec not in failed:
                try:
                    stats[spec][chunk] = np.linalg.solve(r_eff, y_c[chunk, :, None])[:, :, 0]
                except np.linalg.LinAlgError as exc:  # singular R_eff in this chunk
                    failed[spec] = f"{type(exc).__name__}: {exc}"

    wrong = bits[:, ctx.rows] < 0
    for spec, stat in stats.items():
        if spec not in failed:
            counts[spec] = int(np.count_nonzero((stat[:, ctx.rows].real < 0) != wrong))
    return nonconv, failed


def _combined_matrix(correlations, h, hc):
    """Dense R_c = sum_i D(conj h_i) R_i D(h_i) for a (B, M, K) slice of draws."""
    r_c = hc[:, 0, :, None] * correlations[0]
    r_c *= h[:, 0, None, :]
    term = np.empty_like(r_c)
    for i in range(1, correlations.shape[0]):
        np.multiply(hc[:, i, :, None], correlations[i], out=term)
        term *= h[:, i, None, :]
        r_c += term
    return r_c


def _count_nonconvergent(r_c, power) -> int:
    """Count draws with lambda_max(R_eff) >= 2, exactly.

    R_eff = R_c P^-1 is similar to the Hermitian P^-1/2 R_c P^-1/2, and by
    congruence (2 - margin) P - R_c is positive definite exactly when that
    matrix's lambda_max < 2 - margin.  So one successful batched Cholesky
    proves every draw convergent; only a chunk where it fails pays for
    eigvalsh.  The margin dwarfs the factorisation's rounding, so the count
    equals eigvalsh's on every draw.
    """
    shifted = -r_c
    diag = np.arange(r_c.shape[-1])
    shifted[:, diag, diag] += (2.0 - _CERT_MARGIN) * power
    try:
        np.linalg.cholesky(shifted)
        return 0
    except np.linalg.LinAlgError:
        pass
    s = np.sqrt(power)
    herm = r_c / (s[:, :, None] * s[:, None, :])
    lam_max = np.linalg.eigvalsh(herm)[:, -1]
    return int(np.count_nonzero(lam_max >= 2.0))


def _conventional_type2(correlations, h, hc, power, y_c, stage: int):
    """Conventional combined-domain series without forming R_eff.

    R_eff v = sum_i conj(h_i) * (R_i (h_i * v / p)): M stacked (B,K)@(K,K)
    GEMMs per stage over a subcarrier-major view of the draws.
    """
    h_t, hc_t = h.transpose(1, 0, 2), hc.transpose(1, 0, 2)
    r_t = correlations.transpose(0, 2, 1)
    stat = y_c.copy()
    for _ in range(stage - 1):
        applied = np.sum(hc_t * np.matmul(h_t * (stat / power), r_t), axis=0)
        stat = y_c + stat - applied
    return stat


def _proposed_type2(r_eff, y_c, stage: int):
    """Zero-diagonal combined-domain series on a dense (B, K, K) R_eff."""
    k = r_eff.shape[-1]
    step = np.eye(k)[None] - r_eff
    part = None
    stat = y_c.copy()
    for _ in range(stage - 1):
        part = step.copy() if part is None else part @ step
        part[:, np.arange(k), np.arange(k)] = 0.0
        stat = stat + np.einsum("bkl,bl->bk", part, y_c)
    return stat


def _block_fixed(ctx: _Context, seed_seq, size: int):
    rng = np.random.default_rng(seed_seq)
    bits, h, y = _draw_block(rng, ctx, size)
    return _detect_block(ctx, bits, h, y)


def _block_per_trial(cfg: ExperimentConfig, seed_seq, size: int):
    """Per-trial spreading redraw: sequences, bits, channel, noise per trial.

    Orders of magnitude slower than fixed mode (filters are rebuilt every
    trial); intended for small desk checks of sequence-averaged behavior.
    """
    rng = np.random.default_rng(seed_seq)
    counts: dict = {}
    failed: dict = {}
    nonconv = 0
    for _ in range(size):
        trial_ctx = _prepare_context(cfg, *_draw_correlations(cfg, rng))
        failed.update(trial_ctx.failed)
        bits, h, y = _draw_block(rng, trial_ctx, 1)
        got, nc, fail_now = _detect_block(trial_ctx, bits, h, y)
        nonconv += nc
        failed.update(fail_now)
        for spec, errs in got.items():
            counts[spec] = counts.get(spec, 0) + errs
    return counts, nonconv, failed


def run_ber_experiment(cfg: ExperimentConfig, threads: int | None = None) -> list[BerRecord]:
    """Run the configured Monte Carlo BER experiment.

    Returns one record per detector in (kind, stage) order.  A detector whose
    filters cannot be constructed, or that fails on some block (a singular
    type2 R_eff), yields a flagged row (trials=0, ber=nan) while the others
    proceed.
    """
    threads = default_threads() if threads is None else threads
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    root = np.random.SeedSequence(cfg.seed)
    seq_ss, blocks_parent = root.spawn(2)

    ctx = None
    failed_fixed: dict = {}
    if cfg.sequence_mode == "fixed":
        ctx = _prepare_context(cfg, *_draw_correlations(cfg, np.random.default_rng(seq_ss)))
        failed_fixed = ctx.failed

    n_blocks = ceil(cfg.trials / _BLOCK_TRIALS)
    sizes = [
        min(_BLOCK_TRIALS, cfg.trials - i * _BLOCK_TRIALS) for i in range(n_blocks)
    ]
    block_seeds = blocks_parent.spawn(n_blocks)

    if cfg.sequence_mode == "fixed":
        work = lambda args: _block_fixed(ctx, args[0], args[1])
    else:
        work = lambda args: _block_per_trial(cfg, args[0], args[1])

    totals: dict = {}
    nonconv_total = 0
    failed = dict(failed_fixed)
    jobs = list(zip(block_seeds, sizes))
    if threads == 1:
        results = map(work, jobs)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, jobs))
    for counts, nonconv, fail_now in results:
        nonconv_total += nonconv
        failed.update(fail_now)
        for spec, errs in counts.items():
            totals[spec] = totals.get(spec, 0) + errs

    suffix = "[all-users]" if cfg.count_all_users else ""
    records = []
    for spec in cfg.detectors:
        label = spec.kind + suffix
        if spec in failed:
            records.append(
                BerRecord(
                    detector=label,
                    stage=spec.stage,
                    receiver=cfg.receiver,
                    snr_db=cfg.snr_db,
                    trials=0,
                    bit_errors=0,
                    ber=float("nan"),
                    ci_low=float("nan"),
                    ci_high=float("nan"),
                    nonconv=0,
                )
            )
            continue
        bits_counted = cfg.trials * (cfg.users if cfg.count_all_users else 1)
        errs = totals.get(spec, 0)
        lo, hi = wilson_interval(errs, bits_counted)
        records.append(
            BerRecord(
                detector=label,
                stage=spec.stage,
                receiver=cfg.receiver,
                snr_db=cfg.snr_db,
                trials=bits_counted,
                bit_errors=errs,
                ber=errs / bits_counted,
                ci_low=lo,
                ci_high=hi,
                nonconv=nonconv_total if cfg.receiver == "type2" else 0,
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
    r = correlations[0]
    amplitudes = cfg.amplitudes()
    sigma2 = cfg.sigma2()
    schedule = compute_weight_schedule(r, amplitudes, sigma2, max(cfg.sweep_stages))
    grid = cfg.weight_grid()
    points = []
    for stage in cfg.sweep_stages:
        for weight, value in sinr_sweep(
            r, amplitudes, sigma2, schedule, cfg.sweep_user, stage, grid
        ):
            points.append(
                SinrPoint(
                    user=cfg.sweep_user,
                    stage=stage,
                    weight=float(weight),
                    sinr_db=10.0 * log10(value),
                )
            )
    return points
