"""Closed-form SINR coefficients, optimal weights, and the equicorrelated SIR gap.

The load-bearing oracle here extracts the output statistic's coefficients
directly: for z(w) = y_k - w sum_i q_ki y_i with y = R x + n, the signal,
per-interferer, and noise coefficients are explicit linear forms in R, so
the interference and noise powers can be rebuilt term by term and compared
against the package's (a, b, c, d, e) quadratics.
"""

import numpy as np
import pytest

from lpic.filters import build_filter
from lpic.model import equicorrelated_matrix
from lpic.sinr import (
    EquicorrSirReport,
    SinrBreakdown,
    compute_weight_schedule,
    equicorr_sir_report,
    q_matrix,
    sinr_breakdown,
)

from oracles import central_difference, random_correlation


def powers_by_coefficient_extraction(r, q_row, amps, sigma2, user, w):
    """Interference and noise power of z(w) rebuilt from explicit coefficients."""
    k = r.shape[0]
    c_vec = np.zeros(k)
    c_vec[user] = 1.0
    c_vec -= w * q_row          # z = c_vec . y,  y = R x + n
    x_coef = c_vec @ r          # coefficient of x_l in z
    interference = sum(
        amps[l] ** 2 * x_coef[l] ** 2 for l in range(k) if l != user
    )
    noise = sigma2 * (c_vec @ r @ c_vec)   # noise covariance sigma2 R
    signal = amps[user] ** 2 * x_coef[user] ** 2
    return signal, interference, noise


class TestQMatrix:
    def test_stage_two_is_cross_correlations(self, rng):
        r = random_correlation(rng, 5, 32)
        q = q_matrix(r, None, 2)
        assert np.allclose(q, r - np.eye(5), atol=0)

    def test_coefficients_row_extraction(self, rng):
        # unit prior weights: user k's stage-3 row is the nested interference
        # sum q_ki = rho_ki - sum_{l != k, i} rho_kl rho_li, zero at i = k
        r = random_correlation(rng, 4, 16)
        for user in range(4):
            row = q_matrix(r, None, 3)[user]
            assert row[user] == 0.0
            for i in range(4):
                if i != user:
                    middle = sum(r[user, l] * r[l, i] for l in range(4) if l not in (user, i))
                    assert row[i] == pytest.approx(r[user, i] - middle, abs=1e-14)

    def test_stage_three_hand_values(self):
        # unit prior weights: q_01 at stage 3 is rho - rho^2 for three
        # equicorrelated users (one middle index), and just rho for two
        # users (the middle sum is empty)
        rho = 0.3
        q3 = q_matrix(equicorrelated_matrix(3, rho), None, 3)
        assert q3[0, 1] == pytest.approx(rho - rho**2, abs=1e-15)
        q2 = q_matrix(equicorrelated_matrix(2, rho), None, 3)
        assert q2[0, 1] == pytest.approx(rho, abs=1e-15)

    def test_diagonal_is_always_zero(self, rng):
        r = random_correlation(rng, 6, 32)
        sched, _degenerate = compute_weight_schedule(r, np.ones(6), 0.2, 5)
        for stage in (2, 3, 4, 5):
            q = q_matrix(r, sched, stage)
            assert np.allclose(np.diag(q), 0.0, atol=0)

    def test_validation(self, rng):
        r = random_correlation(rng, 3, 16)
        with pytest.raises(ValueError):
            q_matrix(r, None, 1)
        with pytest.raises(ValueError):
            q_matrix(r, np.ones((1, 3)), 5)  # covers only up to 2

    def test_weighted_filter_identity(self, rng):
        # the stage-m weighted filter is exactly I - diag(W_m) Q_m
        for users, stage in [(3, 2), (4, 3), (5, 5)]:
            r = random_correlation(rng, users, 32)
            sched = rng.uniform(-0.5, 1.5, (stage - 1, users))
            q = q_matrix(r, sched, stage)
            want = np.eye(users) - sched[stage - 2][:, None] * q
            got = build_filter("weighted_proposed", r, stage, schedule=sched)
            assert np.allclose(got, want, atol=1e-12)


class TestSinrBreakdown:
    def test_powers_match_coefficient_extraction(self, rng):
        for _ in range(25):
            users = int(rng.integers(2, 7))
            r = random_correlation(rng, users, 32)
            amps = rng.uniform(0.5, 3.0, users)
            sigma2 = float(rng.uniform(0.05, 1.0))
            user = int(rng.integers(0, users))
            for stage, prior in ((2, None), (3, None),
                                 (3, compute_weight_schedule(r, amps, sigma2, 2)[0])):
                bd = sinr_breakdown(r, amps, sigma2, prior, user, stage)
                q_row = q_matrix(r, prior, stage)[user]
                for w in (-0.5, 0.0, 0.7, 1.0, 1.9):
                    sig, intf, noise = powers_by_coefficient_extraction(
                        r, q_row, amps, sigma2, user, w
                    )
                    assert abs(bd.interference_power(w) - intf) < 1e-10 * max(1, intf)
                    assert abs(bd.noise_power(w) - noise) < 1e-10 * max(1, noise)
                    want = sig / (intf + noise)
                    assert abs(bd.sinr(w) - want) < 1e-10 * want

    def test_two_user_equal_amplitude_closed_form(self, rng):
        # w_opt = A^2 / (A^2 + sigma2), independent of the cross-correlation
        for amplitude in (1.0, 2.5):
            for sigma2 in (0.1, 0.5, 2.0):
                for _ in range(5):
                    r = random_correlation(rng, 2, 16)
                    if abs(r[0, 1]) < 1e-9:
                        continue  # orthogonal draw is the degenerate case
                    bd = sinr_breakdown(
                        r, np.full(2, amplitude), sigma2, None, 0, 2
                    )
                    want = amplitude**2 / (amplitude**2 + sigma2)
                    assert bd.w_opt == pytest.approx(want, abs=1e-12)

    def test_orthogonal_sequences_are_degenerate(self):
        bd = sinr_breakdown(np.eye(4), np.ones(4), 0.3, None, 0, 2)
        assert bd.degenerate
        assert bd.w_opt is None
        # flat curve: the SINR does not depend on the weight at all
        vals = bd.sinr(np.array([0.0, 0.5, 1.3]))
        assert np.allclose(vals, vals[0])

    def test_optimum_is_stationary_and_grid_maximal(self, rng):
        grid = np.arange(-1.0, 3.0 + 0.0025, 0.005)
        checked = 0
        while checked < 20:
            users = int(rng.integers(3, 8))
            r = random_correlation(rng, users, 32)
            amps = rng.uniform(0.5, 2.0, users)
            sigma2 = float(rng.uniform(0.05, 0.8))
            bd = sinr_breakdown(r, amps, sigma2, None, 0, 2)
            if bd.degenerate:
                continue
            deriv = central_difference(lambda w: float(bd.sinr(w)), bd.w_opt, 1e-6)
            assert abs(deriv) < 1e-6 * float(bd.sinr(bd.w_opt))
            best = grid[np.argmax(bd.sinr(grid))]
            assert abs(best - bd.w_opt) <= 0.005 + 1e-12
            checked += 1

    def test_powers_nonnegative_everywhere(self, rng):
        w_grid = np.linspace(-2.0, 4.0, 61)
        for _ in range(30):
            users = int(rng.integers(2, 7))
            r = random_correlation(rng, users, 16)
            amps = rng.uniform(0.2, 3.0, users)
            sigma2 = float(rng.uniform(0.01, 2.0))
            bd = sinr_breakdown(r, amps, sigma2, None, 0, 2)
            assert np.all(bd.interference_power(w_grid) >= -1e-12)
            assert np.all(bd.noise_power(w_grid) >= -1e-12)

    def test_validation(self, rng):
        r = random_correlation(rng, 3, 16)
        with pytest.raises(ValueError):
            sinr_breakdown(r, np.ones(2), 0.1, None, 0, 2)
        with pytest.raises(ValueError):
            sinr_breakdown(r, np.ones(3), -0.1, None, 0, 2)
        with pytest.raises(ValueError):
            sinr_breakdown(r, np.ones(3), 0.1, None, 5, 2)


class TestWeightSchedules:
    def test_shape_and_prefix_property(self, rng):
        r = random_correlation(rng, 5, 32)
        amps = np.ones(5)
        full, full_degenerate = compute_weight_schedule(r, amps, 0.2, 5)
        assert full.shape == full_degenerate.shape == (4, 5)
        assert full.dtype == float and full_degenerate.dtype == bool
        short, _degenerate = compute_weight_schedule(r, amps, 0.2, 3)
        # lower stages are computed bottom-up, so they agree between schedules
        assert np.array_equal(full[:2], short)

    def test_identity_falls_back_to_unit_weights(self):
        weights, degenerate = compute_weight_schedule(np.eye(4), np.ones(4), 0.3, 4)
        assert np.allclose(weights, 1.0)
        assert np.all(degenerate)

    def test_random_schedule_not_degenerate(self, rng):
        r = random_correlation(rng, 4, 16)
        _weights, degenerate = compute_weight_schedule(r, np.ones(4), 0.2, 4)
        assert not np.all(degenerate)

    def test_max_stage_validation(self, rng):
        with pytest.raises(ValueError):
            compute_weight_schedule(random_correlation(rng, 3, 16), np.ones(3), 0.1, 1)

    def test_non_square_correlation_is_refused(self):
        # a (1, K) row would broadcast against the identity in I - R
        row = np.full((1, 4), 0.25)
        with pytest.raises(ValueError, match="square"):
            compute_weight_schedule(row, np.ones(4), 0.1, 3)
        with pytest.raises(ValueError, match="square"):
            q_matrix(row, None, 2)


class TestSinrSweep:
    def test_sweep_shape_and_values(self, rng):
        r = random_correlation(rng, 4, 32)
        amps = np.ones(4)
        grid = np.arange(0.0, 2.0, 0.25)
        bd = sinr_breakdown(r, amps, 0.2, None, 1, 2)
        curve = bd.sinr(grid)
        assert curve.shape == grid.shape
        assert np.array_equal(curve, [bd.sinr(w) for w in grid])


class TestEquicorrReport:
    def test_frozen_reference_point(self):
        rep = equicorr_sir_report(3, 0.2)
        assert rep.sir_gain == pytest.approx(2.7637795275590546, rel=1e-12)
        assert rep.converges

    def test_gain_is_sqrt_of_sir_ratio(self):
        for users, rho in [(3, 0.2), (5, 0.1), (4, -0.15), (10, 0.05), (6, 0.19)]:
            rep = equicorr_sir_report(users, rho)
            assert rep.sir_gain == pytest.approx(
                np.sqrt(rep.sir_proposed / rep.sir_conventional), rel=1e-10
            )

    def test_gain_exceeds_one_whenever_convergent(self):
        # positive rho with (K-1) rho < 1 guarantees a gain above unity; the
        # converse does not hold and is not claimed
        for users in (3, 4, 6, 10):
            limit = 1.0 / (users - 1)
            for rho in np.linspace(0.01, 0.99 * limit, 23):
                rep = equicorr_sir_report(users, float(rho))
                assert rep.sir_gain > 1.0, (users, rho)
                assert rep.converges
            rep = equicorr_sir_report(users, 1.5 * limit)
            assert not rep.converges

    def test_proposed_signal_shrinks_but_interference_shrinks_more(self):
        rep = equicorr_sir_report(5, 0.1)
        assert rep.sir_proposed > rep.sir_conventional

    def test_validation(self):
        with pytest.raises(ValueError):
            equicorr_sir_report(2, 0.3)
        with pytest.raises(ValueError):
            equicorr_sir_report(4, 0.0)
        with pytest.raises(ValueError):
            equicorr_sir_report(4, -0.5)  # below -1/(K-1)


class TestStackedSchedule:
    def test_stack_equals_per_draw_schedules(self, rng):
        users = 6
        rs = [random_correlation(rng, users, 16) for _ in range(7)]
        rs.insert(3, np.eye(users))  # orthogonal draw: every optimum degenerate
        amps = np.where(np.arange(users) % 2, 10.0, 1.0)
        weights, degenerate = compute_weight_schedule(np.stack(rs), amps, 0.05, 5)
        assert weights.shape == degenerate.shape == (8, 4, users)
        for b, r in enumerate(rs):
            want_weights, want_degenerate = compute_weight_schedule(r, amps, 0.05, 5)
            assert np.array_equal(weights[b], want_weights)
            assert np.array_equal(degenerate[b], want_degenerate)
        assert degenerate[3].all()
        assert not degenerate[np.arange(8) != 3].any()

    def test_q_matrix_stack_equals_per_draw(self, rng):
        rs = np.stack([random_correlation(rng, 5, 16) for _ in range(4)])
        prior, _degenerate = compute_weight_schedule(rs, np.ones(5), 0.1, 3)
        got = q_matrix(rs, prior, 4)
        for b in range(4):
            assert np.array_equal(got[b], q_matrix(rs[b], prior[b], 4))

    def test_non_finite_draw_fails_the_stack(self, rng):
        rs = np.stack([random_correlation(rng, 4, 16) for _ in range(3)])
        rs[1, 0, 1] = rs[1, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            compute_weight_schedule(rs, np.ones(4), 0.1, 3)
