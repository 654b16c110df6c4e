"""Multicarrier reception: combined-domain matrices, filters and receivers.

The type2 (combine first) receiver runs in simulate: it combines the
matched-filter banks into y_c, forms R_c = sum_i D(conj h_i) R_i D(h_i) and
cancels with R_eff = R_c P^-1, P = diag of the combined power.  Its staged
filters are the filters-module builders fed a complex R_eff.  These checks
build R_c and R_eff independently and compare.
"""

import numpy as np
import pytest

from lpic import simulate
from lpic.config import ConfigError, parse_config
from lpic.filters import build_filter
from lpic.simulate import run_ber_experiment

from oracles import random_correlation


def _fading(rng, shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def draw_setup(rng, m, users, chips=32, unit_channel=False):
    corrs = np.stack([random_correlation(rng, users, chips) for _ in range(m)])
    h = np.ones((m, users), dtype=complex) if unit_channel else _fading(rng, (m, users))
    return corrs, h


def combined(corrs, h):
    """R_c of one draw by the triple loop, and the combined power."""
    m, users = h.shape
    r_c = np.zeros((users, users), dtype=complex)
    for i in range(m):
        for k in range(users):
            for j in range(users):
                r_c[k, j] += np.conj(h[i, k]) * corrs[i, k, j] * h[i, j]
    return r_c, np.sum(np.abs(h) ** 2, axis=0)


def effective(corrs, h):
    r_c, power = combined(corrs, h)
    return r_c / power[None, :]


class TestEffectiveMatrices:
    def test_combined_correlation_triple_loop(self, rng):
        corrs, h = draw_setup(rng, 3, 4)
        want, _ = combined(corrs, h)
        # the harness takes a (B, M, K) slice of draws and (M, 1, K, K) shared R_i
        got = simulate._combined_matrix(corrs[:, None], h[None], np.conj(h)[None])
        assert got.shape == (1, 4, 4)
        assert np.allclose(got[0], want, atol=1e-13)
        # one R_i stack per draw gives the same matrices
        per_draw = simulate._combined_matrix(
            np.repeat(corrs[:, None], 2, axis=1), np.stack([h, h]), np.conj(np.stack([h, h]))
        )
        assert np.array_equal(per_draw, np.concatenate([got, got]))

    def test_single_carrier_unit_channel_is_identity_map(self, rng):
        corrs, h = draw_setup(rng, 1, 5, unit_channel=True)
        r_c, power = combined(corrs, h)
        assert np.allclose(r_c / power[None, :], corrs[0], atol=1e-15)
        assert np.allclose(power, 1.0)
        got = simulate._combined_matrix(corrs[:, None], h[None], np.conj(h)[None])
        assert np.array_equal(got[0], corrs[0].astype(complex))

    def test_effective_matrix_has_real_spectrum(self, rng):
        # R_eff is similar to the Hermitian P^-1/2 R_c P^-1/2
        corrs, h = draw_setup(rng, 4, 6)
        r_c, power = combined(corrs, h)
        eigs = np.linalg.eigvals(r_c / power[None, :])
        assert np.max(np.abs(eigs.imag)) < 1e-10
        herm = simulate._hermitian(r_c[None], power[None])[0]
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
        _, _, w = simulate._draw_symbols(rng, cfg, sigma2, draws)
        factors = np.stack([np.linalg.cholesky(r) for r in corrs])[:, None]
        noise = simulate._apply(factors, w.transpose(1, 0, 2))   # (M, T, K)
        z = np.sum(np.conj(h)[:, None, :] * noise, axis=0)
        emp = (z.conj().T @ z).T / draws
        r_c, power = combined(corrs, h)
        se = sigma2 * np.max(power) / np.sqrt(draws)
        assert np.max(np.abs(emp - sigma2 * r_c)) < 6 * se


class TestCombinedDomainFilters:
    def test_conventional_explicit_series(self, rng):
        corrs, h = draw_setup(rng, 2, 4)
        r = effective(corrs, h)
        eye = np.eye(4, dtype=complex)
        for stage in (1, 2, 4):
            want = sum(np.linalg.matrix_power(eye - r, j) for j in range(stage))
            got = build_filter("conventional", r, stage)
            assert got.dtype == complex
            assert np.allclose(got, want, atol=1e-12)

    def test_proposed_agrees_at_stage_two(self, rng):
        # R_eff's diagonal is 1 only up to rounding, so the two differ there
        corrs, h = draw_setup(rng, 2, 4)
        r = effective(corrs, h)
        a = build_filter("conventional", r, 2)
        b = build_filter("proposed", r, 2)
        assert np.allclose(a, b, atol=1e-15)

    def test_stage_bounds(self, rng):
        corrs, h = draw_setup(rng, 2, 3)
        r = effective(corrs, h)
        with pytest.raises(ValueError):
            build_filter("conventional", r, 0)
        with pytest.raises(ValueError):
            build_filter("proposed", r, 0)


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
        # y_c = R_c A b, so solving R_eff recovers P A b whose signs are b
        m, users = 4, 8
        corrs, h = draw_setup(rng, m, users)
        bits = rng.integers(0, 2, users) * 2 - 1
        amps = rng.uniform(0.5, 3.0, users)
        y = np.einsum("ikl,il->ik", corrs, (amps * bits) * h)
        y_c = np.sum(np.conj(h) * y, axis=0)
        r_c, power = combined(corrs, h)
        stat, solved = simulate._decorrelate(r_c[None], power[None], y_c[None])
        assert solved is None
        assert np.array_equal(np.where(stat[0].real < 0, -1, 1), bits)
        assert np.allclose(stat[0], power * amps * bits, atol=1e-9)

    def test_type2_conventional_approaches_decorrelator(self, rng):
        # on a convergent draw the high-stage series matches the exact solve,
        # built as a matrix and run matrix-free as the harness does
        users = 4
        while True:
            corrs, h = draw_setup(rng, 2, users, chips=128)
            r_c, power = combined(corrs, h)
            if np.linalg.eigvalsh(simulate._hermitian(r_c[None], power[None]))[0, -1] < 1.8:
                break
        y_c = rng.standard_normal(users) + 1j * rng.standard_normal(users)
        exact = np.linalg.solve(r_c / power[None, :], y_c)
        series = build_filter("conventional", r_c / power[None, :], 120) @ y_c
        assert np.allclose(series, exact, atol=1e-8)
        free = simulate._conventional_type2(
            corrs[:, None], h[None], np.conj(h)[None], power[None], y_c[None], 120
        )
        assert np.allclose(free[0], exact, atol=1e-8)

    def test_type2_rejects_unsupported_kinds(self):
        for kind in ("mmse_converging", "modified_mmse", "weighted_proposed"):
            text = f"K = 3\nP = 8\nM = 2\nsnr_db = 5\nreceiver = type2\ndetectors = {kind}:2\n"
            with pytest.raises(ConfigError, match="combined-domain"):
                parse_config(text)
