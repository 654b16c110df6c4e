"""A plain reference simulator: run_ber_experiment's documented stream, one trial at a time.

replay(cfg) draws what the harness documents and decides each trial in
complex arithmetic, with public lpic functions only:

- the stream: SeedSequence(seed).spawn(2).  The first child feeds the
  fixed-mode spreading draw, redrawn while require_convergent refuses it; the
  second spawns one child per block of BLOCK_TRIALS trials.  A fixed-mode
  block reads its bits, then the fading's real and imaginary normals, then
  the noise's; a per_trial trial reads its sets, its bits, then those four.
- y_i = R_i (A b h_i) + L_i w_i, with L_i = noise_transform(R_i).
- matrix forms (all single-carrier and type1 detectors, type2 mf and mmse):
  sum_i Re(conj(h_i) F_i y_i), F_i the counted rows of build_filter on R_i.
- the other type2 detectors: chain(H, m, hollow) applied to
  u = sum_i conj(x_i) y_i, with x = h / sqrt(p), p = sum_i |h_i|^2 and
  H = sum_i D(conj x_i) R_i D(x_i).  chain is this module's own loop, so the
  reference shares no series code with the harness.  The decorrelator
  solves H and skips a trial whose H singular_draws flags.  nonconv counts
  lambda_max(H) >= 2.
- a detector skips the draws it cannot be built on; a fixed-mode row that
  skipped any trial, or a row that kept none, is flagged (trials = 0,
  ber = nan, nonconv = 0).

A statistic below zero decides -1, any other +1.  It is a tie when
|stat| <= 4 n eps scale: scale is the sum of the magnitudes of its terms
and n the length of its longest chain of roundings.  Two evaluations in
any order differ by less than that band, so only a tie can decide
differently in the harness.  A nonconv draw is a tie when
|lambda_max(H) - 2| is inside the band of H's terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from lpic import (
    BerRecord,
    build_filter,
    compute_weight_schedule,
    convergence_check,
    correlation_matrix,
    generate_spreading_set,
    noise_transform,
    wilson_interval,
)
from lpic.model import singular_draws

BLOCK_TRIALS = 8192
EPS = np.finfo(float).eps


def fading(rng, shape, variance=1.0):
    """sqrt(variance / 2) (a + 1j b) of two standard normal arrays, a drawn first."""
    return sqrt(variance / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def power(h):
    """The combined power p = sum_i |h_i|^2 of (..., M, K) draws."""
    return np.sum(np.abs(h) ** 2, axis=-2)


def scaled(h):
    """The scaled channel x = h / sqrt(p) of (..., M, K) draws."""
    return h / np.sqrt(power(h))[..., None, :]


def hermitian(correlations, x):
    """sum_i D(conj x_i) R_i D(x_i) of (..., M, K) x: H for x = scaled(h), R_c for x = h.

    The products run left to right and the sum in subcarrier order, as the
    harness forms H.
    """
    return sum(
        np.conj(x[..., i, :, None]) * correlations[i] * x[..., i, None, :]
        for i in range(len(correlations))
    )


def effective(correlations, h):
    """The paper's R_eff = R_c P^-1 of one (M, K) draw."""
    return hermitian(correlations, h) / power(h)[None, :]


def chain(herm, stage, hollow):
    """The stage-m type2 filter sum_{n<m} T_n of one complex (K, K) matrix, by a plain loop.

    T_0 = I and T_n = T_{n-1} (I - H), with the diagonal of each T_n zeroed
    when hollow is set (proposed), summed in complex arithmetic.  It takes
    R_eff as well as H.
    """
    if stage < 1:
        raise ValueError("stage must be >= 1")
    eye = np.eye(len(herm), dtype=complex)
    step = eye - herm
    term, total = eye, eye.copy()
    for _ in range(stage - 1):
        term = term @ step
        if hollow:
            np.fill_diagonal(term, 0)
        total = total + term
    return total


def nonconvergent(herm):
    """The draws of a (B, K, K) stack with lambda_max >= 2."""
    return int(np.count_nonzero(np.linalg.eigvalsh(herm)[:, -1] >= 2.0))


# --- the stream ------------------------------------------------------------

def draw_sets(cfg, rng):
    """One draw's (M, K, K) correlations and noise factors; identical sets repeat one."""
    sets = 1 if cfg.subcarrier_sequences == "identical" else cfg.subcarriers
    chips = (generate_spreading_set(cfg.users, cfg.chips, rng) for _ in range(sets))
    rs = np.stack([correlation_matrix(c) for c in chips] * (cfg.subcarriers // sets))
    return rs, np.stack([noise_transform(r) for r in rs])


def draw_correlations(cfg, rng):
    """The fixed-mode draw, redrawn while require_convergent refuses it."""
    while True:
        rs, ls = draw_sets(cfg, rng)
        if not cfg.require_convergent or all(convergence_check(r).converges for r in rs):
            return rs, ls


def draw_symbols(cfg, rng, sigma2, size):
    """A fixed-mode block: (size, K) bits, then (size, M, K) fading, then noise."""
    shape = (size, cfg.subcarriers, cfg.users)
    bits = (rng.integers(0, 2, size=(size, cfg.users)) * 2 - 1).astype(np.float64)
    return bits, fading(rng, shape), fading(rng, shape, sigma2)


def draw_trial(cfg, rng, sigma2):
    """One per_trial trial: its correlations and factors, (K,) bits, (M, K) fading and noise."""
    rs, ls = draw_sets(cfg, rng)
    bits, h, w = draw_symbols(cfg, rng, sigma2, 1)
    return rs, ls, bits[0], h[0], w[0]


# --- the replay ------------------------------------------------------------

@dataclass
class Replay:
    """replay's records, and per detector spec the (T, R) statistics and their bands.

    R is K with count_all_users, else 1; a skipped trial's row is NaN.
    nonconv_ties lists the type2 trials whose lambda_max(H) is a tie.
    """

    records: list
    stats: dict
    bands: dict
    nonconv_ties: list

    def ties(self, spec):
        """The tied decisions of a detector, and the trials that hold them."""
        tied = np.abs(self.stats[spec]) <= self.bands[spec]
        return int(np.count_nonzero(tied)), np.flatnonzero(tied.any(axis=1)).tolist()


def _band(terms, scale):
    return 4 * terms * EPS * scale


def _apply(mats, v):
    """Per-subcarrier products: (M, R, K) mats times (M, K) v, as (M, R)."""
    return (mats @ v[..., None])[..., 0]


def _matrix_forms(cfg, rs, rows):
    """The counted rows F of every matrix form on one draw's (M, K, K) correlations.

    Maps each spec to its (M, R, K) rows, or to None when its build, its
    weight schedule included, fails on the draw.
    """
    sigma2, amps = cfg.sigma2(), cfg.amplitudes()
    top = max([2] + [d.stage for d in cfg.detectors if d.kind == "weighted_proposed"])
    schedule, out = None, {}
    for spec in cfg.detectors:
        if cfg.receiver == "type2" and spec.kind not in ("mf", "mmse"):
            continue
        try:
            if spec.kind == "weighted_proposed" and schedule is None:
                schedule = compute_weight_schedule(rs, amps, sigma2, top)[0]
            out[spec] = build_filter(
                spec.kind, rs, spec.stage, sigma2=sigma2, rows=rows,
                schedule=schedule if spec.kind == "weighted_proposed" else None,
            )
        except (ValueError, np.linalg.LinAlgError):
            out[spec] = None
    return out


def _decide(cfg, rows, rs, ls, forms, bits, h, w):
    """One trial: {spec: (stat, band)} of the detectors that kept it, and (lambda_max(H), band)."""
    users, subs = cfg.users, cfg.subcarriers
    a = cfg.amplitudes() * bits * h
    y = _apply(rs, a) + _apply(ls, w)
    mag_y = _apply(np.abs(rs), np.abs(a)) + _apply(np.abs(ls), np.abs(w))
    out = {}
    for spec, form in forms.items():
        if form is not None:
            stat = (np.conj(h[:, rows]) * _apply(form, y)).sum(axis=0).real
            scale = (np.abs(h[:, rows]) * _apply(np.abs(form), mag_y)).sum(axis=0)
            out[spec] = stat, _band(3 * users + 2 * subs, scale)
    if cfg.receiver != "type2":
        return out, (np.nan, np.nan)
    x = scaled(h)
    u = (np.conj(x) * y).sum(axis=0)
    herm = hermitian(rs, x)
    mag_u = (np.abs(x) * mag_y).sum(axis=0)
    mag_h = hermitian(np.abs(rs), np.abs(x))
    depth = 2 * users + 3 * subs + 3        # roundings of u and of each entry of H
    for spec in cfg.detectors:
        if spec.kind in ("conventional", "proposed"):
            stat = (chain(herm, spec.stage, spec.kind == "proposed")[rows] @ u).real
            # every term of stage j is bounded by the terms of (I + |H|)^j |u|
            term, scale = mag_u, mag_u.copy()
            for _ in range(spec.stage - 1):
                term = term + mag_h @ term
                scale += term
            out[spec] = stat, _band(depth + (spec.stage - 1) * (users + 2 * subs + 4), scale[rows])
        elif spec.kind == "decorrelator" and not singular_draws(herm[None])[0]:
            z = np.linalg.solve(herm, u)
            scale = np.abs(np.linalg.inv(herm)) @ (mag_h @ np.abs(z) + mag_u)
            out[spec] = z[rows].real, _band(depth + 3 * users, scale[rows])
    lam = np.linalg.eigvalsh(herm)[-1]
    return out, (lam, _band(users + 2 * subs + 3, np.linalg.norm(mag_h)))


def replay(cfg) -> Replay:
    """The records of cfg, trial by trial, with every statistic and its band."""
    fixed, trials = cfg.sequence_mode == "fixed", cfg.trials
    counted = cfg.users if cfg.count_all_users else 1
    rows, sigma2 = slice(0, counted), cfg.sigma2()
    stats = {spec: np.full((trials, counted), np.nan) for spec in cfg.detectors}
    bands = {spec: np.full((trials, counted), np.nan) for spec in cfg.detectors}
    wrong = np.empty((trials, counted), dtype=bool)
    spectra = np.empty((trials, 2))             # lambda_max(H) and its band; NaN but type2

    seq_ss, blocks_parent = np.random.SeedSequence(cfg.seed).spawn(2)
    if fixed:
        rs, ls = draw_correlations(cfg, np.random.default_rng(seq_ss))
        forms = _matrix_forms(cfg, rs, rows)
    starts = range(0, trials, BLOCK_TRIALS)
    for lo, block_ss in zip(starts, blocks_parent.spawn(len(starts))):
        rng = np.random.default_rng(block_ss)
        size = min(BLOCK_TRIALS, trials - lo)
        symbols = zip(*draw_symbols(cfg, rng, sigma2, size)) if fixed else None
        for t in range(lo, lo + size):
            if fixed:
                bits, h, w = next(symbols)
            else:
                rs, ls, bits, h, w = draw_trial(cfg, rng, sigma2)
                forms = _matrix_forms(cfg, rs, rows)
            got, spectra[t] = _decide(cfg, rows, rs, ls, forms, bits, h, w)
            for spec, (stat, band) in got.items():
                stats[spec][t], bands[spec][t] = stat, band
            wrong[t] = bits[rows] < 0

    nonconv = int(np.count_nonzero(spectra[:, 0] >= 2.0))
    records = []
    for spec in cfg.detectors:
        kept = ~np.isnan(stats[spec][:, 0])
        errors = int(np.count_nonzero((stats[spec][kept] < 0) != wrong[kept]))
        total = int(np.count_nonzero(kept)) * counted
        if total == 0 or (fixed and total < trials * counted):
            total = errors = count = 0
            ber = lo = hi = float("nan")
        else:
            ber, (lo, hi), count = errors / total, wilson_interval(errors, total), nonconv
        records.append(BerRecord(
            detector=spec.kind + ("[all-users]" if cfg.count_all_users else ""),
            stage=spec.stage, receiver=cfg.receiver, snr_db=cfg.snr_db, trials=total,
            bit_errors=errors, ber=ber, ci_low=lo, ci_high=hi, nonconv=count,
        ))
    ties = np.flatnonzero(np.abs(spectra[:, 0] - 2.0) <= spectra[:, 1]).tolist()
    return Replay(records, stats, bands, ties)
