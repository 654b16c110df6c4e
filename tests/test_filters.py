"""Matrix-filter constructions against explicit-power and inverse oracles."""

import numpy as np
import pytest

from lpic.filters import (
    FILTER_KINDS,
    SPECTRAL_KINDS,
    STAGED_KINDS,
    SingularMatrixError,
    build_filter,
    cancellation_partials,
    mmse_stage_weights,
)
from lpic.model import _PIVOT_RTOL, equicorrelated_matrix, singular_draws
from lpic.sinr import q_matrix

from limit_scaling import limit_scaling_matrix
from oracles import explicit_power_series, mmse_series, random_correlation, zero_diagonal


class TestConventional:
    def test_matches_explicit_powers(self, rng):
        for users in (2, 4, 7):
            r = random_correlation(rng, users, 32)
            for stage in range(1, 7):
                got = build_filter("conventional", r, stage)
                want = explicit_power_series(r, stage)
                assert np.allclose(got, want, atol=1e-12)

    def test_stage_one_is_identity(self, rng):
        r = random_correlation(rng, 3, 16)
        assert np.array_equal(build_filter("conventional", r, 1), np.eye(3))

    def test_equicorrelated_hand_value(self):
        # K=2, rho=0.5, m=3: I + (I-R) + (I-R)^2 with (I-R) = [[0,-.5],[-.5,0]]
        r = equicorrelated_matrix(2, 0.5)
        got = build_filter("conventional", r, 3)
        assert np.allclose(got, [[1.25, -0.5], [-0.5, 1.25]], atol=1e-15)

    def test_converges_to_inverse(self):
        r = equicorrelated_matrix(6, 0.1)  # lambda_max = 1.5
        g = build_filter("conventional", r, 120)
        assert np.linalg.norm(g - np.linalg.inv(r)) < 1e-10

    def test_rejects_bad_stage(self, rng):
        with pytest.raises(ValueError):
            build_filter("conventional", random_correlation(rng, 2, 8), 0)


class TestProposed:
    def test_agrees_with_conventional_below_stage_three(self, rng):
        r = random_correlation(rng, 5, 32)
        for stage in (1, 2):
            assert np.array_equal(
                build_filter("proposed", r, stage), build_filter("conventional", r, stage)
            )

    def test_explicit_zero_diagonal_series(self, rng):
        # independent accumulation with explicit matrix powers of the parts
        for users in (3, 5):
            r = random_correlation(rng, users, 32)
            eye = np.eye(users)
            parts = [eye]
            for _ in range(5):
                parts.append(zero_diagonal(parts[-1] @ (eye - r)))
            for stage in range(1, 7):
                got = build_filter("proposed", r, stage)
                assert np.allclose(got, sum(parts[:stage]), atol=1e-12)

    def test_diagonal_of_partials_never_feeds_forward(self, rng):
        # the stage-m filter minus the stage-(m-1) filter has zero diagonal
        # beyond stage 2 (each new term B_n is explicitly hollow)
        r = random_correlation(rng, 4, 16)
        for stage in (3, 4, 5):
            diff = build_filter("proposed", r, stage) - build_filter("proposed", r, stage - 1)
            assert np.allclose(np.diag(diff), 0.0, atol=0)

    @staticmethod
    def _partials(r, rows, matrix_free):
        """Every stage of the hollow series on a (B, K, K) stack, one pass, copied."""
        eye = np.eye(r.shape[-1], dtype=r.dtype)
        step = eye - r
        first = eye if rows is None else eye[rows]
        series = cancellation_partials(
            np.broadcast_to(first, r.shape[:1] + first.shape),
            [(lambda t: t @ step) if matrix_free else step] * 5, hollow=True, rows=rows,
        )
        return [total.copy() for total in series]

    def test_one_series_pass_gives_every_stage(self, rng):
        # the type2 harness takes the statistics of all configured stages
        # from one pass with a callable step, on the complex combined-domain
        # matrix; the matrix step gives the same partial sums bit for bit,
        # in the given rows alone, and on a real R each is build_filter's
        # filter of its stage
        rs = np.stack([random_correlation(rng, 6, 24) for _ in range(2)])
        h = np.sqrt(0.5) * (rng.standard_normal((16, 2, 6)) + 1j * rng.standard_normal((16, 2, 6)))
        r_c = np.einsum("bik,ikl,bil->bkl", np.conj(h), rs, h)
        r_eff = r_c / np.sum(np.abs(h) ** 2, axis=1)[:, None, :]
        for rows in (None, np.array([0, 3])):
            free = self._partials(r_eff, rows, matrix_free=True)
            dense = self._partials(r_eff, rows, matrix_free=False)
            assert len(free) == len(dense) == 6
            for stage, (got, want) in enumerate(zip(free, dense), 1):
                assert got.dtype == complex
                assert np.array_equal(got, want), (stage, rows)
            for matrix_free in (True, False):
                for stage, got in enumerate(self._partials(rs, rows, matrix_free), 1):
                    want = build_filter("proposed", rs, stage, rows=rows)
                    assert np.array_equal(got, want), (stage, rows, matrix_free)


class TestMmseFamily:
    def test_stage_weights_are_descending_eigenvalue_reciprocals(self, rng):
        r = random_correlation(rng, 5, 64)
        sigma2 = 0.3
        lams = np.sort(np.linalg.eigvalsh(r))[::-1]
        assert np.allclose(mmse_stage_weights(r, sigma2), 1.0 / (lams + sigma2))

    def test_stage_k_reaches_exact_mmse_inverse(self, rng):
        for users in (2, 4, 6):
            r = random_correlation(rng, users, 64)
            for sigma2 in (0.01, 0.5):
                g = build_filter("mmse_converging", r, users, sigma2=sigma2)
                inv = np.linalg.inv(r + sigma2 * np.eye(users))
                assert np.linalg.norm(g - inv) < 1e-10
                # both eigenvalue orders reach the same limit
                g2 = mmse_series(r, sigma2, users, hollow=False, ascending=True)
                assert np.linalg.norm(g2 - inv) < 1e-10

    def test_stage_one_is_scalar_weight(self, rng):
        r = random_correlation(rng, 4, 32)
        g = build_filter("mmse_converging", r, 1, sigma2=0.2)
        mu = mmse_stage_weights(r, 0.2)
        assert np.allclose(g, mu[0] * np.eye(4))

    def test_stage_bounds_enforced(self, rng):
        r = random_correlation(rng, 3, 16)
        with pytest.raises(ValueError, match="1..K=3"):
            build_filter("mmse_converging", r, 4, sigma2=0.1)
        with pytest.raises(ValueError, match="stage"):
            build_filter("mmse_converging", r, 0, sigma2=0.1)
        with pytest.raises(ValueError, match="1..K=3"):
            build_filter("modified_mmse", r, 4, sigma2=0.1)

    def test_identity_correlation_collapses_to_scalar(self):
        # R = I: every eigenvalue is 1, all mu equal, filter = mu-weighted sum
        r = np.eye(5)
        sigma2 = 0.4
        mu = 1.0 / (1.0 + sigma2)
        for stage in (1, 3, 5):
            g = build_filter("mmse_converging", r, stage, sigma2=sigma2)
            # telescoping with equal weights: stage-independent only at K
            assert np.allclose(g, g.T)
        g_full = build_filter("mmse_converging", r, 5, sigma2=sigma2)
        assert np.allclose(g_full, mu * np.eye(5), atol=1e-12)

    def test_modified_hand_expansion_k2(self):
        # two users: total = mu_m I + mu_{m-2} zero_diag(I - mu_m S) at m=2
        r = equicorrelated_matrix(2, 0.4)
        sigma2 = 0.25
        mu = mmse_stage_weights(r, sigma2)
        s = r + sigma2 * np.eye(2)
        want = mu[1] * np.eye(2) + mu[0] * zero_diagonal(np.eye(2) - mu[1] * s)
        got = build_filter("modified_mmse", r, 2, sigma2=sigma2)
        assert np.allclose(got, want, atol=1e-14)

    def test_modified_equals_plain_at_stage_one_given_same_order(self, rng):
        # stage 1 is mu_1 I under either formula once the weight list matches
        r = random_correlation(rng, 4, 32)
        a = build_filter("modified_mmse", r, 1, sigma2=0.3)
        b = build_filter("mmse_converging", r, 1, sigma2=0.3)
        assert np.array_equal(a, b)
        a = mmse_series(r, 0.3, 1, hollow=True, ascending=True)
        b = mmse_series(r, 0.3, 1, hollow=False, ascending=True)
        assert np.array_equal(a, b)

    def test_modified_stage_k_is_row_scaled_inverse(self, rng):
        # hollowing breaks the exact telescoping, so the stage-K filter is
        # not (R + sigma2 I)^-1 itself; it lands on a positive row scaling
        # of it (same sign decisions), with small off-diagonal leakage
        for users in (4, 6, 12):
            r = random_correlation(rng, users, 64)
            s = r + 0.2 * np.eye(users)
            for g in (
                build_filter("modified_mmse", r, users, sigma2=0.2),
                mmse_series(r, 0.2, users, hollow=True, ascending=True),
            ):
                prod = g @ s
                diag = np.diag(prod)
                off = prod - np.diag(diag)
                assert np.all(diag > 0)
                assert np.abs(off).max() < 0.05 * diag.min()

    def test_modified_intermediate_stages_track_the_inverse(self, rng):
        # the default schedule applies the small steps first, keeping the
        # hollow products tame; the reversed order leads with the largest
        # step and the mid-stage filters land much farther from the limit
        r = random_correlation(rng, 12, 64)
        sigma2 = 0.05
        inv = np.linalg.inv(r + sigma2 * np.eye(12))
        good = build_filter("modified_mmse", r, 6, sigma2=sigma2)
        # the plain loop agrees with the package in the package's order
        assert np.allclose(
            mmse_series(r, sigma2, 6, hollow=True, ascending=False), good, atol=1e-9
        )
        bad = mmse_series(r, sigma2, 6, hollow=True, ascending=True)
        assert np.linalg.norm(good - inv) < 10 * np.linalg.norm(inv)
        assert np.linalg.norm(bad - inv) > np.linalg.norm(good - inv)


class TestWeightedProposed:
    def test_unit_weights_reproduce_proposed(self, rng):
        r = random_correlation(rng, 5, 32)
        sched = np.ones((5, 5))
        for stage in (2, 4, 6):
            got = build_filter("weighted_proposed", r, stage, schedule=sched)
            want = build_filter("proposed", r, stage)
            assert np.allclose(got, want, atol=1e-13)

    def test_zero_weights_collapse_to_identity(self, rng):
        r = random_correlation(rng, 4, 16)
        sched = np.zeros((4, 4))
        for stage in (2, 3, 5):
            assert np.allclose(
                build_filter("weighted_proposed", r, stage, schedule=sched), np.eye(4)
            )

    def test_scalar_weight_hand_value(self):
        # K=2, rho=0.5, m=2, w=0.5 everywhere: I + 0.5 zero_diag(I-R)
        r = equicorrelated_matrix(2, 0.5)
        sched = np.full((1, 2), 0.5)
        got = build_filter("weighted_proposed", r, 2, schedule=sched)
        assert np.allclose(got, [[1.0, -0.25], [-0.25, 1.0]], atol=1e-15)

    def test_schedule_coverage_enforced(self, rng):
        r = random_correlation(rng, 3, 16)
        sched = np.ones((2, 3))
        with pytest.raises(ValueError, match="covers stages up to 3"):
            build_filter("weighted_proposed", r, 4, schedule=sched)
        with pytest.raises(ValueError, match="K=3"):
            build_filter("weighted_proposed", r, 3, schedule=np.ones((4, 4)))

    def test_schedule_validation(self, rng):
        # a schedule is a (..., stages-1, K) finite array covering the stage
        r = random_correlation(rng, 3, 16)
        cases = [
            (np.ones(3), "K=3"),                         # 1-D
            (np.ones((2, 4)), "K=3"),                    # wrong K
            (np.ones((1, 3)), "covers stages up to 2"),  # too few stages for stage 3
            (np.array([[1.0, np.inf, 1.0], [1.0, 1.0, 1.0]]), "finite"),
            (np.array([[1.0, 1.0, 1.0], [np.nan, 1.0, 1.0]]), "finite"),
        ]
        for schedule, match in cases:
            with pytest.raises(ValueError, match=match):
                build_filter("weighted_proposed", r, 3, schedule=schedule)
            with pytest.raises(ValueError, match=match):
                q_matrix(r, schedule, 4)  # needs the prior stages 2..3


class TestInverseFilters:
    def test_decorrelator_inverts(self, rng):
        r = random_correlation(rng, 6, 64)
        g = build_filter("decorrelator", r, 1)
        assert np.allclose(g @ r, np.eye(6), atol=1e-10)

    def test_decorrelator_rejects_singular(self):
        # duplicated sequences make R exactly singular
        chips = np.array([[1, 1, -1, 1], [1, 1, -1, 1], [1, -1, 1, 1]])
        r = chips @ chips.T / 4
        with pytest.raises(SingularMatrixError):
            build_filter("decorrelator", r, 1)

    def test_mmse_matches_solve(self, rng):
        r = random_correlation(rng, 5, 32)
        sigma2 = 0.7
        g = build_filter("mmse", r, 1, sigma2=sigma2)
        assert np.allclose(
            g, np.linalg.solve(r + sigma2 * np.eye(5), np.eye(5)), atol=1e-12
        )

    def test_mmse_regularizes_singular_r(self):
        chips = np.array([[1, 1, -1, 1], [1, 1, -1, 1]])
        r = chips @ chips.T / 4
        g = build_filter("mmse", r, 1, sigma2=0.5)  # R + sigma2 I is well conditioned
        assert np.allclose(g @ (r + 0.5 * np.eye(2)), np.eye(2), atol=1e-12)


class TestSingularDraws:
    """singular_draws proves a stack regular by Cholesky, with eigvalsh's mask."""

    @staticmethod
    def _eigvalsh_mask(a):
        vals = np.abs(np.linalg.eigvalsh(a))
        return vals.min(axis=-1) <= _PIVOT_RTOL * vals.max(axis=-1)

    @pytest.mark.parametrize("users", [3, 20, 64])
    def test_matches_eigvalsh_at_the_threshold(self, rng, users):
        # lambda_min just below and just above rtol lambda_max, and at the
        # certificate's own shift rtol tr(A).  The other eigenvalues sit just
        # above the threshold (tr(A) ~ lambda_max, where the certificate is
        # tightest) or spread over (0, lambda_max].
        for scale in 10.0 ** np.arange(-6, 7, 2):
            floor = _PIVOT_RTOL * scale
            for rest in ("tiny", "spread"):
                if rest == "tiny":
                    others = floor * np.linspace(1.01, 2.0, users - 2)
                else:
                    others = scale * rng.uniform(0.01, 1.0, users - 2)
                traced = _PIVOT_RTOL * (scale + others.sum())
                for lam_min in (floor * (1 - 1e-3), floor * (1 + 1e-3), traced):
                    lams = np.concatenate([[lam_min], others, [scale]])
                    q, _ = np.linalg.qr(rng.standard_normal((8, users, users)))
                    a = (q * lams) @ q.swapaxes(-1, -2)
                    a = (a + a.swapaxes(-1, -2)) / 2
                    want = self._eigvalsh_mask(a)
                    assert np.array_equal(singular_draws(a), want), (scale, rest)
                    for draw, singular in zip(a, want):
                        assert singular_draws(draw) == singular

    def test_a_regular_stack_needs_no_eigvalsh(self, rng, monkeypatch):
        rs = np.stack([random_correlation(rng, 6, 24) for _ in range(12)])
        builds = [(kind, rows) for kind in ("decorrelator", "mmse") for rows in (None, [0])]
        want = [build_filter(kind, rs, 1, sigma2=0.1, rows=rows) for kind, rows in builds]
        assert not self._eigvalsh_mask(rs).any()
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        for (kind, rows), filters in zip(builds, want):
            assert np.array_equal(build_filter(kind, rs, 1, sigma2=0.1, rows=rows), filters)
        assert not singular_draws(rs).any()


class TestLimitScaling:
    def test_equicorrelated_closed_form(self):
        # f_k = 1 - (K-1) rho^2 / (1 + (K-2) rho)
        for users, rho in [(10, 0.05), (3, 0.5), (4, -0.2), (2, 0.5)]:
            r = equicorrelated_matrix(users, rho)
            if not np.linalg.eigvalsh(r)[-1] < 2:
                continue
            scaling = limit_scaling_matrix(r)
            want = 1 - (users - 1) * rho**2 / (1 + (users - 2) * rho)
            assert scaling.shape == (users,)
            assert np.allclose(scaling, want, atol=1e-8)

    def test_limit_relation_to_decorrelator(self, rng):
        # high-stage zero-diagonal filter -> diag(f) R^-1 for a convergent draw
        while True:
            r = random_correlation(rng, 6, 128)
            if np.linalg.eigvalsh(r)[-1] < 1.8:
                break
        scaling = limit_scaling_matrix(r, tol=1e-13)
        limit = np.diag(scaling) @ np.linalg.inv(r)
        g = build_filter("proposed", r, 400)
        assert np.linalg.norm(g - limit) < 1e-9

    def test_rejects_divergent_series(self):
        r = equicorrelated_matrix(10, 0.15)  # lambda_max = 2.35
        with pytest.raises(ValueError):
            limit_scaling_matrix(r)

    def test_identity_settles_immediately(self):
        scaling = limit_scaling_matrix(np.eye(4))
        assert np.allclose(scaling, 1.0)


class TestDispatchAndTypes:
    def test_kind_lists(self):
        assert set(STAGED_KINDS) < set(FILTER_KINDS)
        assert SPECTRAL_KINDS == ("mmse_converging", "modified_mmse")
        assert len(FILTER_KINDS) == 8

    def test_mf_identity(self, rng):
        r = random_correlation(rng, 4, 16)
        assert np.array_equal(build_filter("mf", r, 1), np.eye(4))
        assert np.array_equal(build_filter("mf", r, 3), np.eye(4))  # stage has no effect

    def test_build_filter_dispatch(self, rng):
        r = random_correlation(rng, 4, 32)
        assert np.array_equal(build_filter("mf", r, 1), np.eye(4))
        step = np.eye(4) - r
        assert np.allclose(build_filter("conventional", r, 3), explicit_power_series(r, 3))
        assert np.allclose(
            build_filter("proposed", r, 3), np.eye(4) + step + zero_diagonal(step @ step)
        )
        assert np.allclose(
            build_filter("mmse", r, 1, sigma2=0.2),
            np.linalg.inv(r + 0.2 * np.eye(4)),
        )
        with pytest.raises(ValueError):
            build_filter("mmse", r, 1)  # sigma2 missing
        with pytest.raises(ValueError):
            build_filter("warp", r, 1)
        with pytest.raises(ValueError):
            build_filter("weighted_proposed", r, 3)  # schedule missing

    def test_weighted_stage_one_defaults_to_identity(self, rng):
        r = random_correlation(rng, 3, 16)
        f = build_filter("weighted_proposed", r, 1)
        assert np.allclose(f, np.eye(3))

    def test_build_filter_validation(self, rng):
        # every kind runs the same shape and stage checks
        r = random_correlation(rng, 3, 16)
        with pytest.raises(ValueError, match="unknown filter kind 'bogus'"):
            build_filter("bogus", r, 1)
        for kind in FILTER_KINDS:
            with pytest.raises(ValueError, match="square"):
                build_filter(kind, np.ones((2, 3)), 1, sigma2=0.1)
            with pytest.raises(ValueError, match="square"):
                build_filter(kind, np.ones(3), 1, sigma2=0.1)
            with pytest.raises(ValueError, match="stage must be >= 1"):
                build_filter(kind, r, 0, sigma2=0.1)
        for kind in ("mmse", "mmse_converging", "modified_mmse"):
            with pytest.raises(ValueError, match="requires sigma2"):
                build_filter(kind, r, 1)
            with pytest.raises(ValueError, match="nonnegative"):
                build_filter(kind, r, 1, sigma2=-0.1)

    def test_zero_diagonal(self):
        m = np.arange(9.0).reshape(3, 3)
        z = zero_diagonal(m)
        assert np.all(np.diag(z) == 0)
        assert m[1, 1] == 4.0  # input untouched
        with pytest.raises(ValueError):
            zero_diagonal(np.ones((2, 3)))


class TestStackedBuilds:
    """A (..., K, K) stack builds exactly the per-draw filters, stacked."""

    SIGMA2 = 0.1

    def _draws(self, rng, count=12, users=6, chips=24):
        return np.stack([random_correlation(rng, users, chips) for _ in range(count)])

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_stack_equals_per_draw_builds(self, rng, kind):
        from lpic.sinr import compute_weight_schedule

        rs = self._draws(rng)
        amps = np.where(np.arange(6) % 2, 10.0, 1.0)
        schedule, _degenerate = compute_weight_schedule(rs, amps, self.SIGMA2, 6)
        for stage in (1, 2, 4, 6) if kind in STAGED_KINDS else (1,):
            got = build_filter(kind, rs, stage, sigma2=self.SIGMA2, schedule=schedule)
            want = np.stack(
                [
                    build_filter(kind, r, stage, sigma2=self.SIGMA2, schedule=schedule[b])
                    for b, r in enumerate(rs)
                ]
            )
            assert got.shape == want.shape
            assert np.array_equal(got, want), (kind, stage)
            # a precomputed spectrum changes nothing
            shared = build_filter(
                kind, rs, stage, sigma2=self.SIGMA2, schedule=schedule,
                eigenvalues=np.linalg.eigvalsh(rs),
            )
            assert np.array_equal(shared, want)
            # two leading axes (subcarrier, draw) give the same filters
            grid = build_filter(
                kind, rs.reshape(3, 4, 6, 6), stage, sigma2=self.SIGMA2,
                schedule=schedule.reshape(3, 4, 5, 6),
            )
            assert np.array_equal(grid.reshape(want.shape), want)

    def test_one_singular_draw_fails_the_stack(self, rng):
        rs = self._draws(rng)
        rs[5] = equicorrelated_matrix(6, 1.0)  # rank one
        with pytest.raises(SingularMatrixError, match="at draw 5 "):
            build_filter("decorrelator", rs, 1)
        with pytest.raises(SingularMatrixError):
            build_filter("decorrelator", rs[5], 1)
        kept = np.delete(rs, 5, axis=0)
        assert np.array_equal(
            build_filter("decorrelator", kept, 1),
            np.stack([build_filter("decorrelator", r, 1) for r in kept]),
        )

    def test_one_indefinite_draw_fails_the_mmse_weights(self, rng):
        rs = self._draws(rng)
        rs[3] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -0.5])
        with pytest.raises(ValueError, match="PSD"):
            mmse_stage_weights(rs, self.SIGMA2)
        with pytest.raises(ValueError, match="PSD"):
            build_filter("mmse_converging", rs, 2, sigma2=self.SIGMA2)

    @pytest.mark.parametrize("sigma2", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("kind", ["mf", "decorrelator", "mmse"])
    def test_only_the_mmse_series_read_the_spectrum(self, rng, kind, sigma2):
        # the inverses test their own matrix for singularity, so like mf they
        # ignore eigenvalues, even one of the wrong shape
        rs = self._draws(rng).reshape(3, 4, 6, 6)
        want = build_filter(kind, rs, 1, sigma2=sigma2)
        for spectrum in (np.linalg.eigvalsh(rs), np.ones((3, 4, 5))):
            got = build_filter(kind, rs, 1, sigma2=sigma2, eigenvalues=spectrum)
            assert np.array_equal(got, want)

    def test_mmse_guard_on_a_singular_draw(self, rng):
        # noise makes a singular R invertible; without it the build refuses
        rs = self._draws(rng)
        rs[7] = equicorrelated_matrix(6, 1.0)  # rank one
        assert np.all(np.isfinite(build_filter("mmse", rs, 1, sigma2=0.5)))
        with pytest.raises(SingularMatrixError, match="at draw 7 "):
            build_filter("mmse", rs, 1, sigma2=0.0)

    def test_stage_bounds_and_shape_checks_hold_for_stacks(self, rng):
        rs = self._draws(rng)
        with pytest.raises(ValueError, match="eigenvalues"):
            build_filter(
                "mmse_converging", rs, 2, sigma2=self.SIGMA2, eigenvalues=np.ones((12, 5))
            )
        with pytest.raises(ValueError):
            build_filter("mmse_converging", rs, 7, sigma2=self.SIGMA2)  # stage > K
        with pytest.raises(ValueError):
            build_filter("conventional", rs, 0)
        with pytest.raises(ValueError):
            build_filter("conventional", np.ones((4, 6, 5)), 2)
        with pytest.raises(ValueError):
            build_filter("mf", np.ones((4, 6, 5)), 1)
        with pytest.raises(ValueError):
            zero_diagonal(np.ones((4, 6, 5)))

    def test_stacked_helpers(self, rng):
        rs = self._draws(rng, count=4)
        z = zero_diagonal(rs)
        assert np.array_equal(z, np.stack([zero_diagonal(r) for r in rs]))
        assert rs[0, 0, 0] == 1.0  # input untouched
        mf = build_filter("mf", rs, 1)
        assert mf.shape == rs.shape
        assert np.array_equal(mf, np.broadcast_to(np.eye(6), rs.shape))


class TestRowBuilds:
    """build_filter(..., rows=...) gives the full build's rows without forming the rest."""

    SIGMA2 = 0.1
    ROWS = [slice(0, 1), slice(None), [3, 0]]
    # row-local products of +-1/64 entries are exact; solves and the
    # eigenvalue-weighted products round differently in fewer rows
    EXACT = ("mf", "conventional", "proposed")

    def _close(self, kind, got, want):
        assert got.shape == want.shape
        if kind in self.EXACT:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("rows", ROWS, ids=["first", "all", "picked"])
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_rows_equal_the_full_build_rows(self, rng, kind, rows):
        from lpic.sinr import compute_weight_schedule

        rs = np.stack([random_correlation(rng, 6, 64) for _ in range(8)])
        amps = np.where(np.arange(6) % 2, 10.0, 1.0)
        schedule, _degenerate = compute_weight_schedule(rs, amps, self.SIGMA2, 5)
        for stage in (1, 2, 5) if kind in STAGED_KINDS else (1,):
            args = dict(sigma2=self.SIGMA2, schedule=schedule)
            full = build_filter(kind, rs, stage, **args)
            self._close(kind, build_filter(kind, rs, stage, rows=rows, **args), full[..., rows, :])
            one = dict(sigma2=self.SIGMA2, schedule=schedule[2])
            self._close(
                kind, build_filter(kind, rs[2], stage, rows=rows, **one), full[2][..., rows, :]
            )

    def test_singular_draw_raises_with_and_without_rows(self, rng):
        rs = np.stack([random_correlation(rng, 6, 64) for _ in range(8)])
        rs[5] = equicorrelated_matrix(6, 1.0)  # rank one
        for kind, sigma2 in (("decorrelator", None), ("mmse", 0.0)):
            for rows in (None, slice(0, 1), [3, 0]):
                with pytest.raises(SingularMatrixError, match="at draw 5 "):
                    build_filter(kind, rs, 1, sigma2=sigma2, rows=rows)

    def test_conventional_power_sum_equals_horner(self, rng):
        # the power sum against the recursion G <- I + (I-R) G: equal on
        # +-1/64 entries, equal up to last-digit rounding otherwise
        for chips, tol in ((64, 0.0), (48, 1e-14), (17, 1e-14)):
            r = random_correlation(rng, 8, chips)
            eye = np.eye(8)
            horner = eye.copy()
            for stage in range(2, 7):
                horner = (eye - r) @ horner + eye
                got = build_filter("conventional", r, stage)
                assert np.abs(got - horner).max() <= tol * np.abs(horner).max(), (chips, stage)

    def test_rows_validation(self, rng):
        r = random_correlation(rng, 4, 16)
        with pytest.raises(ValueError, match="rows"):
            build_filter("proposed", r, 3, rows=[[0, 1]])
        with pytest.raises(IndexError):
            build_filter("proposed", r, 3, rows=[4])
