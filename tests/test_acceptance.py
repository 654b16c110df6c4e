"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every numeric expectation here is either a closed form computed in
tests/oracles.py, an independent reimplementation (explicit series, literal
chain sums, per-trial loops), or an invariant of the construction itself.
The Monte Carlo checks run at fixed seeds, so their pass/fail state is
reproducible bit for bit.  Criteria 7-9 are minutes-scale and carry the
`slow` marker; they still run by default.
"""

import math
import time

import numpy as np
import pytest

from lpic.config import parse_config
from lpic.filters import build_filter
from lpic.model import (
    convergence_check,
    correlation_matrix,
    equicorrelated_matrix,
    generate_spreading_set,
)
from lpic.simulate import run_ber_experiment
from lpic.sinr import compute_weight_schedule, equicorr_sir_report, sinr_breakdown

from expanded import stage3_terms, stagem_expanded_conventional, stagem_expanded_proposed
from limit_scaling import limit_scaling_matrix
from oracles import central_difference, mrc_bpsk_ber, random_correlation, rayleigh_bpsk_ber


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    # verdict lines must reach the terminal even when the test passes, so
    # _verdict prints through capsys.disabled(); stash the handle per test
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print("\n" + line)
    else:
        print(line)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_recursion_and_expansion_match_matrix_forms():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        users = int(rng.integers(2, 5))
        stage = int(rng.integers(2, 6))
        r = random_correlation(rng, users, 32)
        x = rng.standard_normal(users) + 1j * rng.standard_normal(users)
        n = rng.standard_normal(users) + 1j * rng.standard_normal(users)
        y1 = r @ x + n

        # stagewise cancellation recursion vs the one-shot matrix
        stat = y1.copy()
        eye = np.eye(users)
        for _ in range(stage - 1):
            stat = y1 + (eye - r) @ stat
        gm = build_filter("conventional", r, stage) @ y1
        worst = max(worst, float(np.max(np.abs(stat - gm)) / np.max(np.abs(gm))))

        # literal chain-sum expansions vs both matrix filters
        gp = build_filter("proposed", r, stage) @ y1
        for k in range(users):
            ec = stagem_expanded_conventional(r, y1, k, stage)
            ep = stagem_expanded_proposed(r, y1, k, stage)
            worst = max(worst, abs(ec - gm[k]) / max(abs(gm[k]), 1e-30))
            worst = max(worst, abs(ep - gp[k]) / max(abs(gp[k]), 1e-30))
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"200 instances, worst relative error {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_third_stage_term_identities():
    rng = np.random.default_rng(2025)
    pairs_exact = True
    worst = 0.0
    for _ in range(50):
        users = int(rng.integers(3, 6))
        r = random_correlation(rng, users, 32)
        x = rng.standard_normal(users) + 1j * rng.standard_normal(users)
        n = rng.standard_normal(users) + 1j * rng.standard_normal(users)
        zeros = np.zeros(users, dtype=complex)
        for k in range(users):
            noisy = stage3_terms(r, x, n, k)
            pairs_exact &= noisy.loss_restored == noisy.loss_outgoing
            pairs_exact &= noisy.carried_removed == noisy.carried_interference

            # noiseless zero-diagonal output = (1 - loss + ring-back) x_k
            # plus the surviving third-order interference, assembled here
            # from its own literal sums
            terms = stage3_terms(r, x, zeros, k)
            others = [j for j in range(users) if j != k]
            loss = sum(r[k, j] * r[j, k] for j in others)
            ring_back = sum(
                r[k, i] * r[i, j] * r[j, k] for i in others for j in others if j != i
            )
            survivors = sum(
                r[k, i] * r[i, j] * r[j, l] * x[l]
                for i in others
                for j in others
                if j != i
                for l in others
                if l != j
            )
            structure = (1.0 - loss + ring_back) * x[k] + survivors
            got = terms.zero_diag_total()
            worst = max(worst, abs(got - structure) / max(abs(structure), 1.0))
    _verdict(
        2,
        pairs_exact and worst <= 1e-12,
        f"cancellation pairs exact: {pairs_exact}, structure worst relative error {worst:.2e}",
    )


def test_criterion_03_stage_limits_and_diagonal_scaling():
    t0 = time.monotonic()
    r = equicorrelated_matrix(10, 0.05)
    inv = np.linalg.inv(r)
    conv_gap = float(np.linalg.norm(build_filter("conventional", r, 200) - inv))
    scaling = limit_scaling_matrix(r)
    prop_gap = float(
        np.linalg.norm(build_filter("proposed", r, 200) - np.diag(scaling) @ inv)
    )
    f_closed = 1.0 - 9 * 0.05**2 / (1.0 + 8 * 0.05)
    f_gap = float(np.max(np.abs(scaling - f_closed)))
    elapsed = time.monotonic() - t0
    _verdict(
        3,
        conv_gap < 1e-6 and prop_gap < 1e-6 and f_gap < 1e-8 and elapsed < 1.0,
        f"stage-200 gaps conv {conv_gap:.2e} / prop {prop_gap:.2e}, "
        f"scaling-factor error {f_gap:.2e}, {elapsed:.2f} s",
    )


def test_criterion_04_weighted_recursion_reaches_mmse_in_k_stages():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for users in (2, 3, 4, 5, 6):
        for sigma2 in (0.01, 0.1, 1.0):
            for _ in range(4):
                r = random_correlation(rng, users, 32)
                g = build_filter("mmse_converging", r, users, sigma2=sigma2)
                gap = np.linalg.norm(g - np.linalg.inv(r + sigma2 * np.eye(users)))
                worst = max(worst, float(gap))
    _verdict(4, worst < 1e-8, f"worst stage-K gap {worst:.2e} over K<=6, three noise levels")


def test_criterion_05_interference_ratio_gain():
    rng = np.random.default_rng(2027)
    t0 = time.monotonic()
    all_above_one = True
    count = 0
    while count < 100:
        users = int(rng.integers(3, 11))
        rho = float(rng.uniform(1e-3, 0.999 / (users - 1)))
        if (users - 1) * rho >= 1.0:
            continue
        all_above_one &= equicorr_sir_report(users, rho).sir_gain > 1.0
        count += 1

    # Monte Carlo cross-check of the closed form at K=3, rho=0.2:
    # measure output signal and interference powers over fading draws,
    # noiseless, and compare the amplitude-domain ratio
    report = equicorr_sir_report(3, 0.2)
    r = equicorrelated_matrix(3, 0.2)
    gc = build_filter("conventional", r, 3) @ r
    gp = build_filter("proposed", r, 3) @ r
    mc_rng = np.random.default_rng(77)
    draws = 1_000_000
    bits = (mc_rng.integers(0, 2, (draws, 3)) * 2 - 1).astype(float)
    h = math.sqrt(0.5) * (
        mc_rng.standard_normal((draws, 3)) + 1j * mc_rng.standard_normal((draws, 3))
    )
    x = bits * h
    sir_c = np.mean(np.abs(gc[0, 0] * x[:, 0]) ** 2) / np.mean(np.abs(x[:, 1:] @ gc[0, 1:]) ** 2)
    sir_p = np.mean(np.abs(gp[0, 0] * x[:, 0]) ** 2) / np.mean(np.abs(x[:, 1:] @ gp[0, 1:]) ** 2)
    mc_gain = float(np.sqrt(sir_p / sir_c))
    rel = abs(mc_gain - report.sir_gain) / report.sir_gain
    elapsed = time.monotonic() - t0
    _verdict(
        5,
        all_above_one and rel < 0.02 and elapsed < 30.0,
        f"100 random ratios > 1: {all_above_one}; Monte Carlo gain {mc_gain:.4f} vs "
        f"closed form {report.sir_gain:.4f} (rel {rel:.4f}), {elapsed:.1f} s",
    )


def test_criterion_06_weight_optimality_and_late_stage_flattening():
    rng = np.random.default_rng(555)
    worst_deriv = 0.0
    worst_grid = 0.0
    checked = 0
    grid = np.arange(-1.0, 3.0 + 0.0025, 0.005)
    while checked < 100:
        users = int(rng.integers(3, 9))
        r = random_correlation(rng, users, 32)
        amps = rng.uniform(0.5, 2.0, users)
        sigma2 = float(rng.uniform(0.05, 0.8))
        stage = int(rng.integers(2, 5))
        prior = compute_weight_schedule(r, amps, sigma2, stage - 1)[0] if stage > 2 else None
        bd = sinr_breakdown(r, amps, sigma2, prior, 0, stage)
        if bd.degenerate:
            continue
        deriv = central_difference(lambda w: float(bd.sinr(w)), bd.w_opt, 1e-6)
        worst_deriv = max(worst_deriv, abs(deriv) / float(bd.sinr(bd.w_opt)))
        best = grid[int(np.argmax(bd.sinr(grid)))]
        worst_grid = max(worst_grid, abs(best - bd.w_opt))
        checked += 1

    # two users, equal amplitudes: the closed form collapses to a ratio of
    # powers and must come out exact
    k2_exact = True
    for amp in (1.0, 2.0):
        for rho in (0.2, 0.6):
            for sigma2 in (0.05, 0.5):
                bd = sinr_breakdown(
                    equicorrelated_matrix(2, rho), np.array([amp, amp]), sigma2, None, 0, 2
                )
                k2_exact &= abs(bd.w_opt - amp**2 / (amp**2 + sigma2)) < 1e-12

    # heavy load, high SNR: optimal weights flatten to 1 as the stage grows
    draw_rng = np.random.default_rng(42)
    while True:
        r = correlation_matrix(generate_spreading_set(20, 64, draw_rng))
        if convergence_check(r).converges:
            break
    sched, _degenerate = compute_weight_schedule(r, np.ones(20), 10 ** (-2.0), 12)
    late_gap = float(np.max(np.abs(sched[8 - 2 :] - 1.0)))  # stages 8..12

    _verdict(
        6,
        worst_deriv < 1e-6 and worst_grid <= 0.005 + 1e-12 and k2_exact and late_gap < 0.05,
        f"derivative worst {worst_deriv:.2e}, grid worst {worst_grid:.4f}, "
        f"two-user closed case exact: {k2_exact}, late-stage |w-1| max {late_gap:.4f}",
    )


def _ber_map(text: str):
    return {(r.detector, r.stage): r for r in run_ber_experiment(parse_config(text))}


@pytest.mark.slow
def test_criterion_07_zero_diagonal_beats_conventional_at_scale():
    lines = []
    ok = True
    decorr_ber = None
    for profile in ("none", "tenfold"):
        recs = _ber_map(
            "K = 20\nP = 64\nsnr_db = 15\ntrials = 1000000\nseed = 1\n"
            f"near_far = {profile}\n"
            "detectors = conventional:2..5, proposed:2..5, decorrelator\n"
        )
        for m in (3, 4, 5):
            conv, prop = recs[("conventional", m)], recs[("proposed", m)]
            gap = prop.ci_high < conv.ci_low
            ok &= prop.ber < conv.ber and gap
            lines.append(f"{profile} m={m}: {prop.ber:.5f} < {conv.ber:.5f} (CI gap {gap})")
        # later stages keep improving toward the decorrelating limit
        for kind in ("conventional", "proposed"):
            ok &= recs[(kind, 5)].ber < recs[(kind, 2)].ber
        if profile == "none":
            decorr_ber = recs[("decorrelator", 1)].ber
            ok &= recs[("proposed", 5)].ber <= 2.0 * decorr_ber
            lines.append(f"prop(5) {recs[('proposed', 5)].ber:.5f} <= 2x decorr {decorr_ber:.5f}")
    _verdict(7, ok, "; ".join(lines))


@pytest.mark.slow
def test_criterion_08_weighted_zero_diagonal_orders_below_plain():
    recs = _ber_map(
        "K = 20\nP = 64\nsnr_db = 15\ntrials = 1000000\nseed = 1\n"
        "detectors = mmse_converging:3..5, mmse_converging:20, "
        "modified_mmse:3..5, modified_mmse:20, mmse\n"
    )
    lines = []
    ok = True
    for m in (3, 4, 5):
        plain, hollow = recs[("mmse_converging", m)], recs[("modified_mmse", m)]
        ok &= hollow.ber <= plain.ber
        lines.append(f"m={m}: {hollow.ber:.5f} <= {plain.ber:.5f}")
    mmse = recs[("mmse", 1)]
    se = math.sqrt(mmse.ber * (1.0 - mmse.ber) / mmse.trials)
    for kind in ("mmse_converging", "modified_mmse"):
        final_gap = abs(recs[(kind, 20)].ber - mmse.ber)
        early_gap = abs(recs[(kind, 3)].ber - mmse.ber)
        ok &= final_gap <= 0.25 * early_gap + 4.0 * se
        lines.append(f"{kind} stage-K gap {final_gap:.2e}")
    _verdict(8, ok, "; ".join(lines))


@pytest.mark.slow
def test_criterion_09_combining_order_at_four_subcarriers():
    t0 = time.monotonic()
    base = (
        "K = 20\nP = 64\nM = 4\nsnr_db = 14\nnear_far = tenfold\nseed = 1\n"
        "detectors = conventional:4\nreceiver = %s\ntrials = %d\n"
    )
    t1 = run_ber_experiment(parse_config(base % ("type1", 1_000_000)))[0]
    t2 = run_ber_experiment(parse_config(base % ("type2", 5_000_000)))[0]
    elapsed = time.monotonic() - t0
    ratio = t1.ber / t2.ber
    ok = (
        ratio >= 100.0
        and 4e-2 <= t1.ber <= 1.6e-1
        and t2.ber < 1e-3
        and t2.trials >= 5_000_000
        and elapsed < 900.0
    )
    _verdict(
        9,
        ok,
        f"filter-then-combine {t1.ber:.4f}, combine-then-filter {t2.ber:.6f} "
        f"({t2.trials} bits), ratio {ratio:.0f}x, {elapsed:.0f} s",
    )


@pytest.mark.slow
def test_criterion_10_single_user_fading_calibration():
    lines = []
    ok = True
    for subs, oracle in ((1, rayleigh_bpsk_ber), (4, lambda s: mrc_bpsk_ber(s, 4))):
        for snr_db in (5, 10, 15):
            extra = "" if subs == 1 else "M = 4\nreceiver = type2\n"
            rec = run_ber_experiment(
                parse_config(
                    f"K = 1\nP = 64\nsnr_db = {snr_db}\ntrials = 1000000\nseed = 1\n"
                    f"detectors = mf\n{extra}"
                )
            )[0]
            want = oracle(10 ** (snr_db / 10.0))
            se = math.sqrt(want * (1.0 - want) / rec.trials)
            sigmas = abs(rec.ber - want) / se
            ok &= sigmas <= 3.0
            lines.append(f"M={subs} {snr_db}dB: {sigmas:.2f} SE")
    _verdict(10, ok, "; ".join(lines))
