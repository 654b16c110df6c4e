"""System model: spreading, correlation, fading, shaped noise, decisions.

Bits, fading and noise are drawn, and y = R x + n formed and decided, by the
BER harness (simulate); those checks run on its draw and detect steps, which
hold fading, noise and y as (2, T, M, K) real planes (real, imaginary).
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from lpic import simulate
from lpic.config import parse_config
from lpic.filters import FILTER_KINDS, build_filter, mmse_stage_weights
from lpic.model import (
    ConvergenceReport,
    NotPositiveSemidefiniteError,
    _SignDraws,
    convergence_check,
    correlation_matrix,
    equicorrelated_matrix,
    generate_spreading_set,
    noise_transform,
)
from lpic.sinr import compute_weight_schedule, q_matrix, sinr_breakdown

from blocks import block_planes
from limit_scaling import limit_scaling_matrix


def _joined(planes):
    """The complex array of a pair of real planes (real part first)."""
    return planes[0] + 1j * planes[1]


def _cfg(users, subcarriers=1):
    rx = "single" if subcarriers == 1 else "type1"
    return parse_config(
        f"K = {users}\nP = 16\nM = {subcarriers}\nreceiver = {rx}\n"
        "snr_db = 0\ndetectors = mf\n"
    )


def _signs_of_integers(rng, n):
    return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)


class TestSignDraws:
    """_SignDraws reads the values and leaves the state of rng.integers(0, 2)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_each_count_reads_the_integers_stream(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(71):  # an odd n leaves a half buffered for the next n
            signs = _SignDraws(rng)
            signs.read(n)
            got = signs.values()
            want = _signs_of_integers(ref, n)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state
            # normals read whole words and leave a buffered half in place
            rng.standard_normal(n % 3)
            ref.standard_normal(n % 3)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_reads_between_normals_start_on_a_waiting_half(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, ref):
            g.integers(0, 2, size=3)
        assert rng.bit_generator.state["has_uint32"] == 1
        signs, want = _SignDraws(rng), []
        for n in (0, 1, 4, 3, 0, 7, 2, 1):
            signs.read(n)
            want.append(_signs_of_integers(ref, n))
            rng.standard_normal(2)
            ref.standard_normal(2)
        assert np.array_equal(signs.values(), np.concatenate(want))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_only_pcg64_words_are_read(self):
        with pytest.raises(AssertionError, match="PCG64"):
            _SignDraws(np.random.Generator(np.random.MT19937(1)))


class TestSpreading:
    def test_generate_shapes_and_values(self, rng):
        s = generate_spreading_set(5, 31, rng)
        assert s.shape == (5, 31)
        assert s.dtype == np.int8
        assert set(np.unique(s)) <= {-1, 1}

    def test_generate_is_deterministic(self):
        a = generate_spreading_set(4, 16, np.random.default_rng(9))
        b = generate_spreading_set(4, 16, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(ValueError):
            generate_spreading_set(0, 8, rng)
        with pytest.raises(ValueError):
            generate_spreading_set(3, 0, rng)

    def test_spreading_set_rejects_non_binary(self):
        # correlation_matrix takes a (K, P) array of +/-1 chips and nothing else
        for chips in ([[1, 0], [1, -1]], [[1, 1j], [1, -1]], [[1, -2], [1, 1]]):
            with pytest.raises(ValueError, match="chips must be"):
                correlation_matrix(np.array(chips))
        with pytest.raises(ValueError, match="chips must be"):
            correlation_matrix(np.ones(4))

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
        c = s.astype(float)
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

    def test_stack_equals_per_set_matrices(self, rng):
        # integer sums of +-1 over P: the stacked GEMM is exact, like the 2-D one
        chips = np.stack(
            [[generate_spreading_set(6, 24, rng) for _ in range(5)] for _ in range(3)]
        )
        got = correlation_matrix(chips)
        want = np.stack([[correlation_matrix(c) for c in row] for row in chips])
        assert got.shape == want.shape == (3, 5, 6, 6)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="chips must be"):
            correlation_matrix(np.stack([chips[0, 0], np.zeros((6, 24))]))

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
        bits, planes = block_planes(rng, _cfg(4, 2), 0.5, 10)
        assert bits.shape == (10, 4)
        assert set(np.unique(bits)) <= {-1.0, 1.0}
        h, w = planes[:2], planes[2:]
        assert h.shape == w.shape == (2, 10, 2, 4)
        assert h.dtype == w.dtype == np.float64

    def test_unit_power(self):
        rng = np.random.default_rng(3)
        h = _joined(block_planes(rng, _cfg(3), 0.5, 200_000)[1])
        power = np.abs(h) ** 2
        # |h|^2 is exponential(1): mean 1, var 1
        se = 1.0 / np.sqrt(power.size)
        assert abs(power.mean() - 1.0) < 5 * se
        re_var = np.var(h.real)
        assert abs(re_var - 0.5) < 5 * 0.5 * np.sqrt(2.0 / h.size)


def _shaped_noise(rng, r, sigma2, size):
    """Noise L w as the harness draws and shapes it, (size, K)."""
    _, planes = block_planes(rng, _cfg(r.shape[0]), sigma2, size)
    factors = noise_transform(r)[None, None]
    return _joined(simulate._apply(factors, planes[2:].transpose(2, 0, 1, 3))[0])


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

    @pytest.mark.parametrize("draw", ["equicorrelated", "chips"])
    def test_singular_factor_is_the_symmetric_root(self, rng, draw):
        # the unique PSD root commutes with every signed permutation Q, and so
        # depends neither on a Cholesky that rounding lets pass nor on the
        # eigenbasis LAPACK returns
        if draw == "equicorrelated":
            r = equicorrelated_matrix(4, -1.0 / 3)
        else:
            r = correlation_matrix(generate_spreading_set(6, 4, rng))
        ell = noise_transform(r)
        assert np.allclose(ell, ell.T, rtol=0.0, atol=1e-12)
        assert np.allclose(ell @ ell.T, r, rtol=0.0, atol=1e-12)
        k = len(r)
        for _ in range(5):
            q = np.eye(k)[rng.permutation(k)] * rng.choice([-1.0, 1.0], k)
            assert np.allclose(noise_transform(q @ r @ q.T), q @ ell @ q.T, rtol=0.0, atol=1e-12)

    def test_transform_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            noise_transform(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize(
        "users, chips, draws",
        [(6, 4, 2000), (20, 8, 500), (64, 16, 100), (200, 16, 10), (400, 7, 3), (1000, 3, 1)],
    )
    def test_pm1_gram_matrices_sit_far_inside_the_refusal_threshold(
        self, rng, users, chips, draws
    ):
        # R = C C^T / P is PSD; eigh's backward error leaves lambda_min at
        # -O(K eps ||R||), which must stay 1e4 inside the -1e-10 max(lambda_max, 1)
        # at which noise_transform refuses, so no spreading draw is ever refused
        sets = np.array([generate_spreading_set(users, chips, rng) for _ in range(draws)])
        vals = np.linalg.eigh(correlation_matrix(sets))[0]
        worst = np.max(-vals[:, 0] / np.maximum(vals[:, -1], 1.0))
        assert worst <= 1e-10 / 1e4

    @pytest.mark.parametrize("users, chips", [(5, 24), (6, 4)], ids=["definite", "singular"])
    def test_stack_equals_per_matrix_factors(self, rng, users, chips):
        # K > P: every draw is singular and takes the symmetric root, as a
        # 2-D call does
        rs = np.stack(
            [
                [correlation_matrix(generate_spreading_set(users, chips, rng)) for _ in range(7)]
                for _ in range(2)
            ]
        )
        got = noise_transform(rs)
        want = np.stack([[noise_transform(r) for r in row] for row in rs])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_stack_mixing_definite_and_singular_draws(self, rng):
        # every regular draw keeps its Cholesky factor bit for bit, as the
        # records of the benchmark's regular draws rest on that
        rs = np.stack([correlation_matrix(generate_spreading_set(4, 16, rng)) for _ in range(6)])
        rs[2] = equicorrelated_matrix(4, -1.0 / 3)  # exact zero eigenvalue
        got = noise_transform(rs)
        assert np.array_equal(got, np.stack([noise_transform(r) for r in rs]))
        for i in (0, 1, 3, 4, 5):
            assert np.array_equal(got[i], np.linalg.cholesky(rs[i]))
        assert np.allclose(got[2], got[2].T, rtol=0.0, atol=1e-12)

    def test_stack_names_the_indefinite_draw(self, rng):
        rs = np.stack([correlation_matrix(generate_spreading_set(2, 16, rng)) for _ in range(6)])
        rs = rs.reshape(2, 3, 2, 2)
        rs[1, 2] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(NotPositiveSemidefiniteError, match="at draw 1,2 "):
            noise_transform(rs)
        with pytest.raises(ValueError, match="noise_transform needs a real"):
            noise_transform(rs + 0j)

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
        bits, planes = block_planes(rng, _cfg(users, subs), 0.3, trials)
        ells = np.stack([noise_transform(r) for r in rs])
        y = simulate._linear((rs[:, None], ells[:, None]), amps * bits, planes[:2], planes[2:])
        assert y.shape == (subs, 2, trials, users)
        h, w, y = _joined(planes[:2]), _joined(planes[2:]), _joined(y.transpose(1, 2, 0, 3))
        for t in range(trials):
            for i in range(subs):
                x = amps * bits[t] * h[t, i]
                n = ells[i] @ w[t, i]
                for k in range(users):
                    direct = sum(rs[i, k, j] * x[j] for j in range(users) if j != k)
                    assert abs(y[t, i, k] - (x[k] + direct + n[k])) < 1e-12


def _errors(h, y, bits):
    """Bit errors of one identity (matched-filter) row as the harness counts them.

    h and y are complex (T, M, K); the harness takes them as real planes.
    """
    trials = y.shape[0]
    ctx = SimpleNamespace(built=np.ones((1, 1), dtype=bool), rows=slice(0, 1))
    h, y = (np.stack([a.real, a.imag]) for a in (h, y))
    z = y[..., :1].transpose(2, 0, 1, 3)  # F y of F = the identity's row 0, (M, 2, T, 1)
    (errors,), (kept,) = simulate._count_matrix_forms(ctx, bits, h, z)
    assert kept == trials
    return errors


class TestDecision:
    def test_signs(self):
        # decisions are sign(Re(conj(h) y)) for user 0, here (2, -0.5, 3)
        h = np.array([1.0, 1.0, 1j], dtype=complex).reshape(3, 1, 1)
        y = np.array([2.0, -0.5, 3j]).reshape(3, 1, 1)
        assert _errors(h, y, np.array([[1.0], [-1.0], [1.0]])) == 0
        assert _errors(h, y, np.array([[-1.0], [1.0], [-1.0]])) == 3

    def test_imaginary_parts_enter_the_statistic(self):
        # Re(conj(h) y) = h_re y_re + h_im y_im, here (-3, 1, -1); the real
        # parts alone would give (0, 2, 1)
        h = np.array([1j, 1 + 1j, 1 - 2j]).reshape(3, 1, 1)
        y = np.array([-3j, 2 - 1j, 1 + 1j]).reshape(3, 1, 1)
        assert _errors(h, y, np.array([[-1.0], [1.0], [-1.0]])) == 0
        assert _errors(h, y, np.array([[1.0], [-1.0], [1.0]])) == 3

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


# every function that takes a real R, called on a K = 3 correlation, with the
# name that opens its refusal
_REAL_R_FUNCTIONS = [
    *(
        pytest.param(
            f"filter kind {kind!r}",
            partial(build_filter, kind, stage=2, sigma2=0.1, schedule=np.ones((1, 3))),
            id=f"build_filter-{kind}",
        )
        for kind in FILTER_KINDS
    ),
    *(
        pytest.param(name, call, id=name)
        for name, call in [
            ("mmse_stage_weights", lambda r: mmse_stage_weights(r, 0.1)),
            ("q_matrix", lambda r: q_matrix(r, None, 3)),
            ("compute_weight_schedule", lambda r: compute_weight_schedule(r, np.ones(3), 0.1, 3)),
            ("sinr_breakdown", lambda r: sinr_breakdown(r, np.ones(3), 0.1, None, 0, 2)),
            ("noise_transform", noise_transform),
            ("convergence_check", convergence_check),
            ("limit_scaling_matrix", limit_scaling_matrix),
        ]
    ),
]

_ANTISYMMETRIC = np.triu(np.ones((3, 3)), 1) - np.tril(np.ones((3, 3)), -1)


class TestRealCorrelation:
    """One rule, model._real_correlation, checks every real-R input.

    A complex Hermitian R is refused, not cast: a cast would drop its
    imaginary part (noise_transform would factor I, convergence_check would
    report lambda_max = 1 for a Hermitian R whose lambda_max is 1.87).  An
    array that is not (..., K, K) is refused as such, before any function
    indexes it as square or checks other arguments against its K.
    """

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.eye(3) + 0.5j * _ANTISYMMETRIC, "needs a real correlation matrix"),
            (np.ones(3), "correlation must be square"),
            (np.eye(3)[:2], "correlation must be square"),
            (np.ones((3, 4)), "correlation must be square"),
        ],
        ids=["complex", "1d", "2x3", "3x4"],
    )
    @pytest.mark.parametrize("name, call", _REAL_R_FUNCTIONS)
    def test_refuses_a_complex_or_non_square_correlation(self, name, call, bad, match):
        with pytest.raises(ValueError, match=match) as err:
            call(bad)
        assert str(err.value).startswith(name)

    @pytest.mark.parametrize("count", (2, 3), ids=["2x3x3", "3x3x3"])
    @pytest.mark.parametrize(
        "name, call",
        [
            ("sinr_breakdown", lambda r: sinr_breakdown(r, np.ones(3), 0.1, None, 0, 2)),
            ("convergence_check", convergence_check),
        ],
        ids=["sinr_breakdown", "convergence_check"],
    )
    def test_refuses_a_stack_where_one_r_is_taken(self, name, call, count):
        # a (N, 3, 3) stack is square in its last two axes; these take one R,
        # and (3, 3, 3) would otherwise pass the amplitudes' length check
        stack = np.stack([np.eye(3)] * count)
        with pytest.raises(ValueError) as err:
            call(stack)
        assert str(err.value) == f"{name} takes one (K, K) correlation, got {stack.shape}"
