"""Multicarrier reception: combined-domain matrices, filters and receivers.

The type2 (combine first) receiver combines the matched-filter banks into
y_c and cancels with R_eff = R_c P^-1, R_c = sum_i D(conj h_i) R_i D(h_i),
P = diag of the combined power p.  simulate runs it on the similar
Hermitian H = P^-1/2 R_c P^-1/2 = sum_i D(conj x_i) R_i D(x_i), x = h /
sqrt(p), against u = P^-1/2 y_c, in its own forms (_combined_matrix,
_series_stats, which sums the conventional and proposed stages through
filters.cancellation_partials with a matrix-free step, and _decorrelate):
each statistic is sqrt(p_k) times smaller than its R_eff form.
reference.chain, a plain loop on a complex R_eff, is their reference here,
compared after scaling by sqrt(p).  R_c, R_eff, H and chain come from
tests/reference.py; build_filter takes a real R only.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from lpic import simulate
from lpic.config import ConfigError, DetectorSpec, parse_config
from lpic.simulate import run_ber_experiment

from blocks import block_planes
from oracles import explicit_power_series, random_correlation, zero_diagonal
from reference import chain, effective, fading, hermitian, power, scaled


def draw_setup(rng, m, users, chips=32, unit_channel=False):
    corrs = np.stack([random_correlation(rng, users, chips) for _ in range(m)])
    h = np.ones((m, users), dtype=complex) if unit_channel else fading(rng, (m, users))
    return corrs, h


def series_stats(corrs, x, u, specs, rows, herm=None):
    """simulate._series_stats on (M, G, K, K) correlations, (M, B, K) x and (B, K) u.

    rows is slice(None) (count_all_users, which takes herm for proposed) or
    slice(0, 1); the harness's arrays are user-major, so x and u go in as
    C-contiguous (M, K, B) and (K, B) copies.
    """
    ctx = SimpleNamespace(
        correlations=corrs, combined=specs, rows=rows,
        cfg=SimpleNamespace(count_all_users=rows == slice(None)),
    )
    x = np.ascontiguousarray(x.transpose(0, 2, 1))
    return simulate._series_stats(ctx, x, np.conj(x), np.ascontiguousarray(u.T), herm)


class TestEffectiveMatrices:
    def test_combined_correlation_triple_loop(self, rng):
        corrs, h = draw_setup(rng, 3, 4)
        want = np.array([
            [sum(np.conj(h[i, k]) * corrs[i, k, j] * h[i, j] for i in range(3)) for j in range(4)]
            for k in range(4)
        ])
        # the harness takes a (B, M, K) slice of draws and (M, 1, K, K) shared R_i
        # (x = h gives R_c itself)
        got = simulate._combined_matrix(corrs[:, None], h[None])
        assert got.shape == (1, 4, 4)
        assert np.allclose(got[0], want, atol=1e-13)
        # one R_i stack per draw gives the same matrices
        per_draw = simulate._combined_matrix(np.repeat(corrs[:, None], 2, axis=1), np.stack([h, h]))
        assert np.array_equal(per_draw, np.concatenate([got, got]))

    def test_single_carrier_unit_channel_is_identity_map(self, rng):
        corrs, h = draw_setup(rng, 1, 5, unit_channel=True)
        assert np.allclose(effective(corrs, h), corrs[0], atol=1e-15)
        assert np.allclose(power(h), 1.0)
        got = simulate._combined_matrix(corrs[:, None], h[None])
        assert np.array_equal(got[0], corrs[0].astype(complex))

    def test_effective_matrix_has_real_spectrum(self, rng):
        # R_eff is similar to the Hermitian P^-1/2 R_c P^-1/2, which the
        # harness forms from x = h / sqrt(p)
        corrs, h = draw_setup(rng, 4, 6)
        eigs = np.linalg.eigvals(effective(corrs, h))
        assert np.max(np.abs(eigs.imag)) < 1e-10
        herm = hermitian(corrs, scaled(h))
        p = power(h)
        assert np.allclose(herm, hermitian(corrs, h) / np.sqrt(np.outer(p, p)), atol=1e-14)
        assert np.allclose(herm, herm.conj().T, atol=1e-15)
        assert np.allclose(np.sort(eigs.real), np.linalg.eigvalsh(herm), atol=1e-10)

    def test_combined_noise_covariance(self):
        # combining noise of per-subcarrier covariance sigma2 R_i, drawn and
        # shaped as the harness does, gives covariance sigma2 R_c for a fixed
        # channel realization
        rng = np.random.default_rng(55)
        users, m, sigma2, draws = 3, 2, 0.6, 150_000
        corrs, h = draw_setup(rng, m, users)
        cfg = parse_config(
            f"K = {users}\nP = 32\nM = {m}\nreceiver = type2\nsnr_db = 0\ndetectors = mf\n"
        )
        _, planes = block_planes(rng, cfg, sigma2, draws)
        factors = np.stack([np.linalg.cholesky(r) for r in corrs])[:, None]
        noise = simulate._apply(factors, planes[2:].transpose(2, 0, 1, 3))  # (M, 2, T, K)
        noise = noise[:, 0] + 1j * noise[:, 1]
        z = np.sum(np.conj(h)[:, None, :] * noise, axis=0)
        emp = (z.conj().T @ z).T / draws
        se = sigma2 * np.max(power(h)) / np.sqrt(draws)
        assert np.max(np.abs(emp - sigma2 * hermitian(corrs, h))) < 6 * se


class TestCombinedDomainFilters:
    """reference.chain on the complex R_eff and H, against explicit series."""

    def test_conventional_explicit_series(self, rng):
        corrs, h = draw_setup(rng, 2, 4)
        for r in (effective(corrs, h), hermitian(corrs, scaled(h))):
            for stage in (1, 2, 4):
                got = chain(r, stage, hollow=False)
                assert got.dtype == complex
                assert np.allclose(got, explicit_power_series(r, stage), atol=1e-12)

    def test_proposed_agrees_at_stage_two(self, rng):
        # R_eff's diagonal is 1 only up to rounding, so the two differ there;
        # each later term of the hollow chain is zero_diagonal of the last
        # one times I - R_eff
        corrs, h = draw_setup(rng, 2, 4)
        r = effective(corrs, h)
        assert np.allclose(chain(r, 2, hollow=False), chain(r, 2, hollow=True), atol=1e-15)
        eye = np.eye(4, dtype=complex)
        parts = [eye]
        for stage in range(1, 6):
            got = chain(r, stage, hollow=True)
            assert np.allclose(got, sum(parts), atol=1e-12)
            parts.append(zero_diagonal(parts[-1] @ (eye - r)))

    def test_stage_bounds(self, rng):
        corrs, h = draw_setup(rng, 2, 3)
        r = effective(corrs, h)
        assert np.array_equal(chain(r, 1, hollow=True), np.eye(3))
        for hollow in (False, True):
            with pytest.raises(ValueError, match="stage"):
                chain(r, 0, hollow)


def _records(text, receiver):
    recs = run_ber_experiment(parse_config(text + f"receiver = {receiver}\n"))
    return [(r.detector, r.stage, r.trials, r.bit_errors) for r in recs]


class TestReceivers:
    def test_single_carrier_reduction(self):
        # at M = 1, R_eff = D(conj h) R D(conj h)^-1 is similar to R by a
        # diagonal, which commutes with hollowing; both arrangements make the
        # single-carrier decisions on the same draws
        text = (
            "K = 6\nP = 24\nM = 1\nsnr_db = 6\ntrials = 20000\nseed = 2\n"
            "near_far = tenfold\ndetectors = mf, conventional:3, proposed:3, decorrelator, mmse\n"
        )
        want = _records(text, "single")
        assert _records(text, "type1") == want
        assert _records(text, "type2") == want

    def test_mf_is_arrangement_independent(self):
        # the matched filter commutes with combining, so both types agree
        text = "K = 5\nP = 24\nM = 3\nsnr_db = 4\ntrials = 20000\nseed = 3\ndetectors = mf\n"
        assert _records(text, "type1") == _records(text, "type2")

    def test_type2_decorrelator_noiseless_recovery(self, rng):
        # y_c = R_c A b, so solving R_eff recovers P A b whose signs are b;
        # solving H against u = P^-1/2 y_c recovers it over sqrt(p)
        m, users = 4, 8
        corrs, h = draw_setup(rng, m, users)
        bits = rng.integers(0, 2, users) * 2 - 1
        amps = rng.uniform(0.5, 3.0, users)
        y = np.einsum("ikl,il->ik", corrs, (amps * bits) * h)
        x, p = scaled(h), power(h)
        u = np.sum(np.conj(x) * y, axis=0)
        stat, solved = simulate._decorrelate(hermitian(corrs, x)[None], u[None])
        assert solved is None
        assert np.array_equal(np.where(stat[0].real < 0, -1, 1), bits)
        assert np.allclose(np.sqrt(p) * stat[0], p * amps * bits, atol=1e-9)

    def test_type2_conventional_approaches_decorrelator(self, rng):
        # on a convergent draw the high-stage series matches the exact solve,
        # built as a matrix and run matrix-free as the harness does
        users = 4
        while True:
            corrs, h = draw_setup(rng, 2, users, chips=128)
            if np.linalg.eigvalsh(hermitian(corrs, scaled(h)))[-1] < 1.8:
                break
        y_c = rng.standard_normal(users) + 1j * rng.standard_normal(users)
        exact = np.linalg.solve(effective(corrs, h), y_c)
        series = chain(effective(corrs, h), 120, hollow=False) @ y_c
        assert np.allclose(series, exact, atol=1e-8)
        x, root = scaled(h), np.sqrt(power(h))
        spec = DetectorSpec("conventional", 120)
        free = series_stats(corrs[:, None], x[:, None], (y_c / root)[None], [spec], slice(None))
        assert np.allclose(root * free[spec][0], exact, atol=1e-8)

    @staticmethod
    def _chains(rng, per_draw):
        """(M, G, K, K) correlations, (M, B, K) scaled channel and (B, K) u of 64 trials."""
        m, users, trials = 4, 20, 64
        corrs = np.stack(
            [[random_correlation(rng, users, 64) for _ in range(trials if per_draw else 1)]
             for _ in range(m)]
        )
        h = fading(rng, (m, trials, users))
        x = h / np.sqrt(np.sum(np.abs(h) ** 2, axis=0))
        return corrs, x, fading(rng, (trials, users))

    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_trial"])
    @pytest.mark.parametrize("rows", [slice(0, 1), slice(None)], ids=["user0", "all"])
    def test_counted_last_stage_keeps_the_full_chains_rows(self, rng, per_draw, rows):
        # one pass gives every stage; the top stage's last term applies only
        # the counted rows of each R_i, and every stage before it, and the
        # full chain here, applies whole matrices
        corrs, x, u = self._chains(rng, per_draw)
        specs = [DetectorSpec("conventional", stage) for stage in range(1, 6)]
        got = series_stats(corrs, x, u, specs, rows)
        stat = u
        for spec in specs:
            want = stat[:, rows]
            assert got[spec].shape == want.shape
            assert np.array_equal(got[spec].real < 0, want.real < 0)
            assert np.allclose(got[spec], want, rtol=1e-13, atol=0)
            applied = np.sum(np.conj(x) * simulate._apply(corrs, x * stat), axis=0)
            stat = u + stat - applied

    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_trial"])
    def test_matrix_free_proposed_row_is_the_dense_row(self, rng, per_draw):
        # user 0's proposed statistics, summed matrix-free on the hollow rows
        # e_0 G (the step with x and conj(x) swapped), against row 0 of the
        # dense series on H that count_all_users takes
        corrs, x, u = self._chains(rng, per_draw)
        specs = [DetectorSpec("proposed", stage) for stage in range(1, 6)]
        herm = simulate._combined_matrix(corrs, x.transpose(1, 0, 2))
        free = series_stats(corrs, x, u, specs, slice(0, 1))
        dense = series_stats(corrs, x, u, specs, slice(None), herm)
        for spec in specs:
            assert free[spec].shape == (len(u), 1)
            assert np.array_equal(free[spec].real < 0, dense[spec][:, :1].real < 0)
            assert np.allclose(free[spec], dense[spec][:, :1], rtol=1e-13, atol=0)

    def test_type2_rejects_unsupported_kinds(self):
        for kind in ("mmse_converging", "modified_mmse", "weighted_proposed"):
            text = f"K = 3\nP = 8\nM = 2\nsnr_db = 5\nreceiver = type2\ndetectors = {kind}:2\n"
            with pytest.raises(ConfigError, match="combined-domain"):
                parse_config(text)
