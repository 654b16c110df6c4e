"""System model: spreading, correlation, fading, shaped noise, decisions.

Bits, fading and noise are drawn, and y = R x + n formed and decided, by the
BER harness (simulate); those checks run on its draw and detect steps.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from lpic import simulate
from lpic.config import parse_config
from lpic.model import (
    ConvergenceReport,
    NotPositiveSemidefiniteError,
    SpreadingSet,
    convergence_check,
    correlation_matrix,
    equicorrelated_matrix,
    generate_spreading_set,
    noise_transform,
)


def _cfg(users, subcarriers=1):
    rx = "single" if subcarriers == 1 else "type1"
    return parse_config(
        f"K = {users}\nP = 16\nM = {subcarriers}\nreceiver = {rx}\n"
        "snr_db = 0\ndetectors = mf\n"
    )


class TestSpreading:
    def test_generate_shapes_and_values(self, rng):
        s = generate_spreading_set(5, 31, rng)
        assert s.users == 5
        assert s.length == 31
        assert s.chips.dtype == np.int8
        assert set(np.unique(s.chips)) <= {-1, 1}

    def test_generate_is_deterministic(self):
        a = generate_spreading_set(4, 16, np.random.default_rng(9))
        b = generate_spreading_set(4, 16, np.random.default_rng(9))
        assert np.array_equal(a.chips, b.chips)

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(ValueError):
            generate_spreading_set(0, 8, rng)
        with pytest.raises(ValueError):
            generate_spreading_set(3, 0, rng)

    def test_spreading_set_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SpreadingSet(np.array([[1, 0], [1, -1]]))
        with pytest.raises(ValueError):
            SpreadingSet(np.ones(4))

    def test_chip_statistics(self):
        # means ~0 and pairwise correlations ~1/P across many draws
        rng = np.random.default_rng(100)
        draws = 20000
        chips = rng.integers(0, 2, size=(draws, 8)) * 2 - 1
        mean = chips.mean()
        se = 1.0 / np.sqrt(draws * 8)
        assert abs(mean) < 5 * se


class TestCorrelation:
    def test_matches_direct_product(self, rng):
        s = generate_spreading_set(6, 32, rng)
        r = correlation_matrix(s)
        c = s.chips.astype(float)
        assert np.allclose(r, c @ c.T / 32, atol=0, rtol=0)

    def test_unit_diagonal_symmetric_psd(self, rng):
        for _ in range(20):
            r = correlation_matrix(generate_spreading_set(7, 16, rng))
            assert np.allclose(np.diag(r), 1.0)
            assert np.array_equal(r, r.T)
            assert np.linalg.eigvalsh(r)[0] > -1e-12

    def test_offdiagonal_variance(self):
        # E[rho_kj] = 0, Var[rho_kj] = 1/P for independent random sequences
        rng = np.random.default_rng(7)
        chips = 64
        vals = []
        for _ in range(4000):
            r = correlation_matrix(generate_spreading_set(2, chips, rng))
            vals.append(r[0, 1])
        vals = np.asarray(vals)
        se_mean = np.sqrt(1.0 / chips / len(vals))
        assert abs(vals.mean()) < 5 * se_mean
        assert abs(vals.var() - 1.0 / chips) < 5 * (1.0 / chips) * np.sqrt(2.0 / len(vals))

    def test_equicorrelated_values(self):
        r = equicorrelated_matrix(4, 0.3)
        assert np.allclose(np.diag(r), 1.0)
        off = r[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.3)

    def test_equicorrelated_psd_range(self):
        equicorrelated_matrix(5, -1.0 / 4)  # boundary allowed
        with pytest.raises(ValueError):
            equicorrelated_matrix(5, -0.26)
        with pytest.raises(ValueError):
            equicorrelated_matrix(5, 1.01)
        assert equicorrelated_matrix(1, 0.9).shape == (1, 1)


class TestChannel:
    def test_shapes(self, rng):
        bits, h, w = simulate._draw_symbols(rng, _cfg(4, 2), 0.5, 10)
        assert bits.shape == (10, 4)
        assert set(np.unique(bits)) <= {-1.0, 1.0}
        assert h.shape == w.shape == (10, 2, 4)
        assert h.dtype == w.dtype == complex

    def test_unit_power(self):
        rng = np.random.default_rng(3)
        _, h, _ = simulate._draw_symbols(rng, _cfg(3), 0.5, 200_000)
        power = np.abs(h) ** 2
        # |h|^2 is exponential(1): mean 1, var 1
        se = 1.0 / np.sqrt(power.size)
        assert abs(power.mean() - 1.0) < 5 * se
        re_var = np.var(h.real)
        assert abs(re_var - 0.5) < 5 * 0.5 * np.sqrt(2.0 / h.size)


def _shaped_noise(rng, r, sigma2, size):
    """Noise L w as the harness draws and shapes it, (size, K)."""
    _, _, w = simulate._draw_symbols(rng, _cfg(r.shape[0]), sigma2, size)
    factors = noise_transform(r)[None, None]
    return simulate._apply(factors, w.transpose(1, 0, 2))[0]


class TestNoise:
    def test_transform_factorizes_positive_definite(self, rng):
        r = correlation_matrix(generate_spreading_set(5, 64, rng))
        ell = noise_transform(r)
        assert np.allclose(ell @ ell.T, r, atol=1e-12)

    def test_transform_handles_singular_psd(self):
        # equicorrelated at the lower PSD boundary has an exact zero eigenvalue
        r = equicorrelated_matrix(4, -1.0 / 3)
        ell = noise_transform(r)
        assert np.allclose(ell @ ell.T, r, atol=1e-10)

    def test_transform_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            noise_transform(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_sample_shapes_and_zero_variance(self, rng):
        r = equicorrelated_matrix(3, 0.4)
        assert _shaped_noise(rng, r, 0.5, 7).shape == (7, 3)
        assert np.all(_shaped_noise(rng, r, 0.0, 4) == 0)

    def test_covariance_matches_sigma2_r(self):
        rng = np.random.default_rng(17)
        r = equicorrelated_matrix(3, 0.5)
        sigma2 = 0.8
        n = _shaped_noise(rng, r, sigma2, 200_000)
        emp = (n.conj().T @ n) / n.shape[0]
        se = sigma2 / np.sqrt(n.shape[0])
        assert np.max(np.abs(emp - sigma2 * r)) < 6 * se
        # pseudo-covariance E[n n^T] vanishes for circular noise
        pseudo = (n.T @ n) / n.shape[0]
        assert np.max(np.abs(pseudo)) < 6 * se


class TestMatchedFilter:
    def test_component_form(self, rng):
        # y_k = x_k + sum_{j != k} rho_kj x_j + n_k with x_k = A_k b_k h_k
        users, subs, trials = 6, 2, 5
        rs = np.stack(
            [correlation_matrix(generate_spreading_set(users, 32, rng)) for _ in range(subs)]
        )
        amps = rng.uniform(0.5, 2.0, users)
        bits, h, w = simulate._draw_symbols(rng, _cfg(users, subs), 0.3, trials)
        ells = np.stack([noise_transform(r) for r in rs])
        ctx = SimpleNamespace(amplitudes=amps, correlations=rs[:, None], factors=ells[:, None])
        y = simulate._receive(ctx, bits, h, w)
        assert y.shape == (trials, subs, users)
        for t in range(trials):
            for i in range(subs):
                x = amps * bits[t] * h[t, i]
                n = ells[i] @ w[t, i]
                for k in range(users):
                    direct = sum(rs[i, k, j] * x[j] for j in range(users) if j != k)
                    assert abs(y[t, i, k] - (x[k] + direct + n[k])) < 1e-12


def _errors(h, y, bits):
    """Bit errors of one identity (matched-filter) row as the harness counts them."""
    trials, subs, users = y.shape
    rows = np.broadcast_to(np.eye(users)[:1], (1, 1, subs, 1, users)).astype(complex)
    spec = object()
    built = np.ones((1, 1), dtype=bool)
    ctx = SimpleNamespace(filters=rows, built=built, specs=[spec], rows=slice(0, 1))
    errors, kept = Counter(), Counter()
    simulate._count_matrix_forms(ctx, bits, h, y, errors, kept)
    assert kept[spec] == trials
    return errors[spec]


class TestDecision:
    def test_signs(self):
        # decisions are sign(Re(conj(h) y)) for user 0, here (2, -0.5, 3)
        h = np.array([1.0, 1.0, 1j], dtype=complex).reshape(3, 1, 1)
        y = np.array([2.0, -0.5, 3j]).reshape(3, 1, 1)
        assert _errors(h, y, np.array([[1.0], [-1.0], [1.0]])) == 0
        assert _errors(h, y, np.array([[-1.0], [1.0], [-1.0]])) == 3

    def test_tie_goes_positive(self):
        h = np.ones((2, 1, 1), dtype=complex)
        y = np.full((2, 1, 1), 1j)  # Re(conj(h) y) = 0 exactly
        assert _errors(h, y, np.array([[1.0], [1.0]])) == 0
        assert _errors(h, y, np.array([[-1.0], [-1.0]])) == 2


class TestConvergence:
    def test_equicorrelated_eigenvalue(self):
        # lambda_max of the equicorrelated R is 1 + (K-1) rho
        for users, rho in [(4, 0.2), (10, 0.05), (3, 0.49)]:
            rep = convergence_check(equicorrelated_matrix(users, rho))
            assert abs(rep.max_eigenvalue - (1 + (users - 1) * rho)) < 1e-12
            assert rep.converges == (1 + (users - 1) * rho < 2)

    def test_boundary_counts_as_divergent(self):
        rep = convergence_check(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert rep.max_eigenvalue == pytest.approx(2.0, abs=1e-12)
        assert not rep.converges

    def test_identity_converges(self):
        rep = convergence_check(np.eye(6))
        assert rep == ConvergenceReport(1.0, True)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            convergence_check(np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ValueError):
            convergence_check(np.ones((2, 3)))
