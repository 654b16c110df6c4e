"""Brute-force expansion oracles against the matrix filters, plus the
symbolic term bookkeeping.

The hand-derived monomial dictionaries for two users at the third stage are
small enough to freeze completely; the interesting cancellation there is
that the conventional filter's first-order interference term vanishes
(restored and re-cancelled) while the zero-diagonal filter keeps a negative
second-order own-signal term instead.
"""

import numpy as np
import pytest

from lpic.filters import build_filter

from expanded import (
    Stage2Groups,
    Stage3Terms,
    classify_monomial,
    output_monomials,
    stage2_expanded,
    stage3_terms,
    stagem_decomposition,
    stagem_expanded_conventional,
    stagem_expanded_proposed,
)
from oracles import random_correlation


def draw_instance(rng, users, chips=32):
    r = random_correlation(rng, users, chips)
    x = rng.standard_normal(users) + 1j * rng.standard_normal(users)
    n = rng.standard_normal(users) + 1j * rng.standard_normal(users)
    return r, x, n


class TestStageExpansions:
    def test_conventional_matches_matrix_filter(self, rng):
        for users in (2, 3, 4):
            for _ in range(5):
                r, x, n = draw_instance(rng, users)
                y1 = r @ x + n
                for stage in range(1, 6):
                    g = build_filter("conventional", r, stage)
                    for k in range(users):
                        want = (g @ y1)[k]
                        got = stagem_expanded_conventional(r, y1, k, stage)
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_proposed_matches_matrix_filter(self, rng):
        for users in (2, 3, 4):
            for _ in range(5):
                r, x, n = draw_instance(rng, users)
                y1 = r @ x + n
                for stage in range(1, 6):
                    g = build_filter("proposed", r, stage)
                    for k in range(users):
                        want = (g @ y1)[k]
                        got = stagem_expanded_proposed(r, y1, k, stage)
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_second_stage_forms_agree(self, rng):
        # both filters are identical at stage 2, so must their expansions be
        r, x, n = draw_instance(rng, 4)
        y1 = r @ x + n
        for k in range(4):
            a = stagem_expanded_conventional(r, y1, k, 2)
            b = stagem_expanded_proposed(r, y1, k, 2)
            assert abs(a - b) < 1e-13 * max(1.0, abs(a))

    def test_two_user_proposed_freezes_after_stage_two(self, rng):
        # with K=2 every all-indices-away-from-k chain of length >= 2 is
        # empty, so the zero-diagonal expansion stops changing at stage 2
        r, x, n = draw_instance(rng, 2)
        y1 = r @ x + n
        for k in range(2):
            base = stagem_expanded_proposed(r, y1, k, 2)
            for stage in (3, 4, 5):
                assert stagem_expanded_proposed(r, y1, k, stage) == base
                g = build_filter("proposed", r, stage)
                assert abs((g @ y1)[k] - base) < 1e-13 * max(1.0, abs(base))

    def test_cost_guard(self, rng):
        r = np.eye(30)
        y1 = np.ones(30, dtype=complex)
        with pytest.raises(ValueError, match="cost"):
            stagem_expanded_conventional(r, y1, 0, 6)  # 30^6 > 1e7


class TestStageGroups:
    def test_stage2_groups_sum_to_filter_output(self, rng):
        for users in (2, 3, 5):
            r, x, n = draw_instance(rng, users)
            y1 = r @ x + n
            g2 = build_filter("conventional", r, 2)
            for k in range(users):
                groups = stage2_expanded(r, x, n, k)
                assert abs(groups.total() - (g2 @ y1)[k]) < 1e-12
                assert groups.signal == x[k]
                assert groups.noise == n[k]

    def test_stage3_conventional_identity(self, rng):
        for users in (2, 3, 4):
            r, x, n = draw_instance(rng, users)
            y1 = r @ x + n
            g3 = build_filter("conventional", r, 3)
            for k in range(users):
                terms = stage3_terms(r, x, n, k)
                assert abs(terms.total() - (g3 @ y1)[k]) < 1e-12

    def test_stage3_zero_diagonal_identity(self, rng):
        for users in (2, 3, 4):
            r, x, n = draw_instance(rng, users)
            y1 = r @ x + n
            gp3 = build_filter("proposed", r, 3)
            for k in range(users):
                terms = stage3_terms(r, x, n, k)
                assert abs(terms.zero_diag_total() - (gp3 @ y1)[k]) < 1e-12

    def test_stage3_cancellation_pairs(self, rng):
        # the restored groups are computed as independent sums yet cancel
        # their outgoing counterparts exactly
        r, x, n = draw_instance(rng, 4)
        for k in range(4):
            terms = stage3_terms(r, x, n, k)
            scale = max(1.0, abs(terms.loss_outgoing))
            assert abs(terms.loss_outgoing - terms.loss_restored) < 1e-13 * scale
            scale = max(1.0, abs(terms.carried_interference))
            assert (
                abs(terms.carried_interference - terms.carried_removed)
                < 1e-12 * scale
            )

    def test_stage3_orthogonal_has_no_cross_terms(self):
        x = np.array([1 + 2j, -3.0, 0.5j])
        n = np.array([0.1j, 0.2, -0.3])
        terms = stage3_terms(np.eye(3), x, n, 0)
        assert terms.total() == x[0] + n[0]
        for name in (
            "mf_noise_cancelled",
            "loss_outgoing",
            "loss_restored",
            "carried_interference",
            "carried_removed",
            "direct_regenerated_interference",
            "direct_regenerated_noise",
            "signal_expansion",
            "residual_interference",
            "residual_noise",
        ):
            assert getattr(terms, name) == 0


class TestStageMDecomposition:
    def test_reconstructs_both_stage_outputs(self, rng):
        for users in (3, 5):
            r, x, n = draw_instance(rng, users, chips=64)
            y1 = r @ x + n
            for stage in (4, 5):
                for k in range(users):
                    dec = stagem_decomposition(r, x, n, k, stage)
                    prev = stagem_expanded_conventional(r, y1, k, stage - 1)
                    cur = stagem_expanded_conventional(r, y1, k, stage)
                    assert abs(dec.previous_stage_output() - prev) <= 1e-12 * max(
                        1.0, abs(prev)
                    )
                    assert abs(dec.stage_output() - cur) <= 1e-12 * max(1.0, abs(cur))

    def test_recovery_cancels_shrinkage_exactly(self, rng):
        r, x, n = draw_instance(rng, 4)
        for stage in (4, 5):
            for k in range(4):
                dec = stagem_decomposition(r, x, n, k, stage)
                # opposite stage signs on the same chain sums
                assert dec.own_output_recovery + dec.signal_shrinkage == 0
                assert dec.peer_output_removal + dec.prior_interference == 0

    def test_identity_correlation_has_no_chains(self):
        x = np.ones(3, dtype=complex)
        n = np.zeros(3, dtype=complex)
        dec = stagem_decomposition(np.eye(3), x, n, 0, 4)
        assert dec.signal_shrinkage == 0
        assert dec.prior_interference == 0
        assert dec.own_output_recovery == 0
        assert dec.peer_output_removal == 0
        assert dec.stage_output() == x[0]

    def test_requires_stage_four(self, rng):
        r, x, n = draw_instance(rng, 3)
        with pytest.raises(ValueError):
            stagem_decomposition(r, x, n, 0, 3)


RHO = ((0, 1),)
RHO2 = ((0, 1), (0, 1))
RHO3 = ((0, 1), (0, 1), (0, 1))


class TestMonomials:
    def test_two_user_third_stage_conventional_frozen(self):
        # row: [1 + rho^2, -rho] applied to (y_0, y_1); the first-order
        # interference and the rho^2 own-signal terms both cancel
        got = output_monomials("conventional", 2, 0, 3)
        want = {
            ((), ("x", 0)): 1,
            ((), ("n", 0)): 1,
            (RHO3, ("x", 1)): 1,
            (RHO2, ("n", 0)): 1,
            (RHO, ("n", 1)): -1,
        }
        assert got == want

    def test_two_user_third_stage_proposed_frozen(self):
        # row: [1, -rho]; the own-signal loss stays (negative rho^2 term)
        # but nothing second-order multiplies the own noise
        got = output_monomials("proposed", 2, 0, 3)
        want = {
            ((), ("x", 0)): 1,
            ((), ("n", 0)): 1,
            (RHO2, ("x", 0)): -1,
            (RHO, ("n", 1)): -1,
        }
        assert got == want

    def test_interference_and_noise_keys_are_a_subset(self):
        # the claim is about interference and noise terms; own-signal terms
        # differ by construction (unrestored signal loss)
        for users in (2, 3, 4):
            conv = output_monomials("conventional", users, 0, 3)
            prop = output_monomials("proposed", users, 0, 3)
            conv_keys = {k for k in conv if classify_monomial(k, 0) != "signal"}
            prop_keys = {k for k in prop if classify_monomial(k, 0) != "signal"}
            assert prop_keys <= conv_keys
            if users >= 3:
                assert prop_keys < conv_keys  # strictly fewer terms

    def test_first_two_stages_identical(self):
        for stage in (1, 2):
            assert output_monomials("conventional", 3, 1, stage) == output_monomials(
                "proposed", 3, 1, stage
            )

    def test_classification(self):
        assert classify_monomial(((), ("x", 2)), 2) == "signal"
        assert classify_monomial((RHO, ("x", 1)), 0) == "interference"
        assert classify_monomial((RHO2, ("n", 0)), 0) == "noise"

    def test_validation(self):
        with pytest.raises(ValueError):
            output_monomials("conventional", 3, 3, 2)
        with pytest.raises(ValueError):
            output_monomials("mmse", 3, 0, 2)

    def test_numeric_agreement_with_expansion(self, rng):
        # evaluating the symbolic dictionary must reproduce the numeric
        # expansion on a random instance
        users = 3
        r, x, n = draw_instance(rng, users)
        y1 = r @ x + n
        for kind, expand in (
            ("conventional", stagem_expanded_conventional),
            ("proposed", stagem_expanded_proposed),
        ):
            for k in range(users):
                total = 0.0 + 0.0j
                for (pairs, (which, j)), coeff in output_monomials(
                    kind, users, k, 3
                ).items():
                    factor = complex(coeff)
                    for a, b in pairs:
                        factor *= r[a, b]
                    total += factor * (x[j] if which == "x" else n[j])
                want = expand(r, y1, k, 3)
                assert abs(total - want) < 1e-12 * max(1.0, abs(want))
