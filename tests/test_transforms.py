import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rsgame as rs
from rsgame.transforms import log_twisted_tensor

from helpers import corpus_instance, frozen_pair_instance, mix_transition, random_pair


def zero_cost_instance(seed=0, dims=(3, 2, 2)):
    base = corpus_instance(seed, dims=dims)
    z = np.zeros(base.cost1.shape)
    return rs.GameInstance(base.transition, z, z, theta=base.theta)


UNIFORM2 = np.array([0.5, 0.5])


class TestTwist:
    def test_zero_cost_leaves_transition_unchanged(self):
        inst = zero_cost_instance()
        assert_array_equal(log_twisted_tensor(inst, 1), np.log(inst.transition))

    def test_row_sums_equal_exp_cost(self, g2):
        for player in (1, 2):
            table = np.exp(log_twisted_tensor(g2, player))
            assert_allclose(table.sum(axis=-1), np.exp(g2.cost(player)), rtol=1e-14)
        # cost2(x=0, a=1, b=0) = 0.9, so that twisted row carries total e^0.9
        assert np.exp(log_twisted_tensor(g2, 2))[0, 1, 0].sum() == pytest.approx(
            2.4596031111569499, abs=1e-14
        )

    def test_table_dominates_transition(self):
        inst = corpus_instance(4)
        for player in (1, 2):
            assert np.all(log_twisted_tensor(inst, player) >= np.log(inst.transition))

    def test_log_tensor_matches_log_of_table(self, g2):
        table = np.exp(g2.cost(2))[..., None] * g2.transition
        assert_allclose(log_twisted_tensor(g2, 2), np.log(table), atol=1e-13)

    def test_log_tensor_is_minus_inf_off_support(self):
        t = np.zeros((2, 1, 1, 2))
        t[0, 0, 0, 0] = 1.0
        t[1, 0, 0, 1] = 1.0
        inst = rs.GameInstance(t, np.ones((2, 1, 1)), np.ones((2, 1, 1)))
        ln = log_twisted_tensor(inst, 1)
        assert ln[0, 0, 0, 1] == -np.inf
        assert ln[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("mixed", ["phi", "psi", "both"])
    def test_mixing_matches_weighted_sum_of_the_table(self, mixed):
        inst = corpus_instance(7)
        rng = np.random.default_rng(7)
        phi, psi = random_pair(inst, rng)
        table = np.exp(log_twisted_tensor(inst, 1))
        if mixed == "phi":
            got = log_twisted_tensor(inst, 1, phi=phi.rows)
            want = np.einsum("xa,xaby->xby", phi.rows, table)
        elif mixed == "psi":
            got = log_twisted_tensor(inst, 1, psi=psi.rows)
            want = np.einsum("xb,xaby->xay", psi.rows, table)
        else:
            got = log_twisted_tensor(inst, 1, phi.rows, psi.rows)
            want = np.einsum("xa,xb,xaby->xy", phi.rows, psi.rows, table)
        assert_allclose(np.exp(got), want, rtol=1e-13)

    def test_leading_batch_axes_mix_each_map(self):
        inst = corpus_instance(8)
        rng = np.random.default_rng(8)
        pairs = [random_pair(inst, rng) for _ in range(3)]
        phis = np.stack([phi.rows for phi, _ in pairs])
        psis = np.stack([psi.rows for _, psi in pairs])
        batched = log_twisted_tensor(inst, 2, phis, psis)
        for k, (phi, psi) in enumerate(pairs):
            assert_allclose(batched[k], log_twisted_tensor(inst, 2, phi.rows, psi.rows),
                            atol=1e-14)

    def test_mixing_past_overflow_shifts_by_theta_k(self, g2):
        shifted = rs.GameInstance(g2.transition, g2.cost1 + 800.0, g2.cost2, theta=1.0)
        phi, psi = rs.uniform_strategy(g2, 1), rs.uniform_strategy(g2, 2)
        high = log_twisted_tensor(shifted, 1, phi.rows, psi.rows)
        assert np.all(np.isfinite(high))
        assert_allclose(high - 800.0, log_twisted_tensor(g2, 1, phi.rows, psi.rows),
                        atol=1e-12)


class TestMixTransition:
    def test_pure_masses_select_rows(self, g2):
        row = mix_transition(g2, 1, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert_allclose(row, g2.transition[1, 1, 0], atol=1e-15)

    def test_uniform_mix_on_fixture(self, g2):
        row = mix_transition(g2, 0, UNIFORM2, UNIFORM2)
        assert_allclose(row, [0.35, 0.65], atol=1e-15)

    def test_matches_double_loop(self):
        inst = corpus_instance(9)
        rng = np.random.default_rng(9)
        phi, psi = random_pair(inst, rng)
        for x in range(inst.n_states):
            expected = np.zeros(inst.n_states)
            for a in range(inst.n_actions_a):
                for b in range(inst.n_actions_b):
                    expected += phi.rows[x, a] * psi.rows[x, b] * inst.transition[x, a, b]
            assert_allclose(
                mix_transition(inst, x, phi.rows[x], psi.rows[x]),
                expected,
                rtol=1e-13,
            )


class TestNormalizer:
    def test_zero_cost_gives_one(self):
        inst = zero_cost_instance()
        rng = np.random.default_rng(1)
        phi, psi = random_pair(inst, rng)
        for x in range(inst.n_states):
            c_hat, _ = rs.normalized_kernel(inst, 1, x, phi.rows[x], psi.rows[x])
            val = math.exp(c_hat)
            assert val == pytest.approx(1.0, abs=1e-13)

    def test_pure_pair_is_exp_cost(self, g2):
        c_hat, _ = rs.normalized_kernel(g2, 1, 1, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        val = math.exp(c_hat)
        assert val == pytest.approx(math.exp(g2.cost1[1, 1, 1]), rel=1e-15)

    def test_fixture_uniform_values(self, g2):
        c1 = math.exp(rs.normalized_kernel(g2, 1, 0, UNIFORM2, UNIFORM2)[0])
        assert c1 == pytest.approx(1.3049957091090754, abs=1e-15)
        c2 = math.exp(rs.normalized_kernel(g2, 2, 0, UNIFORM2, UNIFORM2)[0])
        assert c2 == pytest.approx(1.6500372698745871, abs=1e-15)
        # additive costs factor the normalizer across the two players
        assert c2 == pytest.approx(
            0.25 * (1.0 + math.exp(0.4)) * (math.exp(0.5) + 1.0), rel=1e-15
        )

    def test_uniform_vs_pure_opponent_grid(self, g2):
        # ln c~_2(x, uniform, pure b) enumerated over all four (x, b) cells
        expected = {
            (0, 0): 0.71986807184000734,
            (0, 1): 0.21986807184000734,
            (1, 0): 0.81986807184000721,
            (1, 1): 0.31986807184000737,
        }
        for (x, b), want in expected.items():
            pure = np.zeros(2)
            pure[b] = 1.0
            got, _ = rs.normalized_kernel(g2, 2, x, UNIFORM2, pure)
            assert got == pytest.approx(want, abs=1e-14)

    def test_additive_factorization_on_random_arat(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            inst = corpus_instance(seed, arat=True, dims=(2, 2, 2))
            arat = inst.arat
            for _ in range(50):
                x = int(rng.integers(inst.n_states))
                phi, psi = random_pair(inst, rng)
                f1 = float(np.exp(arat.c21[x]) @ phi.rows[x])
                f2 = float(np.exp(arat.c22[x]) @ psi.rows[x])
                c_hat, _ = rs.normalized_kernel(inst, 2, x, phi.rows[x], psi.rows[x])
                got = math.exp(c_hat)
                assert got == pytest.approx(f1 * f2, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        w1=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
        w2=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
        x=st.integers(0, 1),
        player=st.integers(1, 2),
    )
    def test_bounds_hold_for_any_mixture(self, w1, w2, x, player):
        """c~ always lies in [1, e^{theta * c_bar}]."""
        g2 = rs.g2_instance()
        phi = np.array(w1) / np.sum(w1)
        psi = np.array(w2) / np.sum(w2)
        val = math.exp(rs.normalized_kernel(g2, player, x, phi, psi)[0])
        assert 1.0 - 1e-12 <= val <= math.exp(g2.theta * g2.c_bar) + 1e-12


class TestNormalizedKernel:
    def test_consistency_with_parts(self, g2):
        rng = np.random.default_rng(3)
        for _ in range(20):
            phi, psi = random_pair(g2, rng)
            x = int(rng.integers(2))
            c_hat, p_hat = rs.normalized_kernel(g2, 2, x, phi.rows[x], psi.rows[x])
            assert p_hat.sum() == pytest.approx(1.0, abs=1e-12)
            weights = np.outer(phi.rows[x], psi.rows[x]) * np.exp(g2.cost2[x])
            assert math.exp(c_hat) == pytest.approx(weights.sum(), rel=1e-15)
            # un-normalizing must recover the mixed twisted row
            mixed = np.einsum("ab,aby->y", weights, g2.transition[x])
            assert_allclose(p_hat * math.exp(c_hat), mixed, rtol=1e-13)

    def test_zero_cost_reduces_to_plain_mixing(self):
        inst = zero_cost_instance(seed=2)
        rng = np.random.default_rng(2)
        phi, psi = random_pair(inst, rng)
        for x in range(inst.n_states):
            c_hat, p_hat = rs.normalized_kernel(inst, 1, x, phi.rows[x], psi.rows[x])
            assert math.exp(c_hat) == pytest.approx(1.0, abs=1e-13)
            assert_allclose(
                p_hat,
                mix_transition(inst, x, phi.rows[x], psi.rows[x]),
                rtol=1e-12,
            )

    def test_pure_pair_recovers_transition_row(self, g2):
        _, p_hat = rs.normalized_kernel(g2, 1, 1, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert_allclose(p_hat, g2.transition[1, 0, 1], rtol=1e-15)

    def test_fixture_uniform_row_against_loop(self, g2):
        _, p_hat = rs.normalized_kernel(g2, 2, 0, UNIFORM2, UNIFORM2)
        num = np.zeros(2)
        den = 0.0
        for a in range(2):
            for b in range(2):
                w = 0.25 * math.exp(g2.cost2[0, a, b])
                num += w * g2.transition[0, a, b]
                den += w
        assert den == pytest.approx(1.6500372698745871, abs=1e-15)
        assert_allclose(p_hat, num / den, rtol=1e-14)

    def test_rejects_non_simplex_inputs(self, g2):
        with pytest.raises(ValueError):
            rs.normalized_kernel(g2, 1, 0, np.array([0.7, 0.7]), UNIFORM2)
        with pytest.raises(ValueError):
            rs.normalized_kernel(g2, 1, 0, np.array([1.5, -0.5]), UNIFORM2)
        with pytest.raises(ValueError):
            rs.normalized_kernel(g2, 1, 0, np.array([1.0]), UNIFORM2)


class TestTwistedMeasure:
    def test_flat_values_leave_measure_unchanged(self):
        p = np.array([0.2, 0.5, 0.3])
        assert_allclose(rs.twisted_measure(p, np.zeros(3)), p, rtol=1e-15)

    def test_two_point_literal(self):
        mu = rs.twisted_measure(np.array([0.5, 0.5]), np.array([math.log(2.0), 0.0]))
        assert_allclose(mu, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(5))
        v = rng.normal(size=5)
        assert_allclose(
            rs.twisted_measure(p, v), rs.twisted_measure(p, v + 7.5), rtol=1e-13
        )

    def test_maximizes_linear_minus_entropy(self):
        """mu* attains the sup of mu.v - KL(mu || p) over the simplex."""
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(4))
        v = rng.normal(scale=2.0, size=4)
        mu_star = rs.twisted_measure(p, v)
        best = float(mu_star @ v) - rs.relative_entropy(mu_star, p)
        for _ in range(2000):
            mu = rng.dirichlet(np.ones(4))
            val = float(mu @ v) - rs.relative_entropy(mu, p)
            assert val <= best + 1e-12
        # and the attained value is the log-partition function
        assert best == pytest.approx(math.log(float(p @ np.exp(v))), abs=1e-12)

    def test_empty_support_raises(self):
        with pytest.raises(ValueError, match="mass"):
            rs.twisted_measure(np.zeros(3), np.zeros(3))


class TestRelativeEntropy:
    def test_identical_is_zero(self):
        p = np.array([0.3, 0.7])
        assert rs.relative_entropy(p, p) == 0.0

    def test_point_vs_uniform_literal(self):
        assert rs.relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), rel=1e-15
        )

    def test_off_support_is_infinite(self):
        assert rs.relative_entropy([1.0, 0.0], [0.0, 1.0]) == np.inf
        assert rs.relative_entropy([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            kl = rs.relative_entropy(p, q)
            assert kl >= 0.0
            assert kl > 0.0  # distinct draws almost surely differ


class TestFrozenPair:
    def test_rows_and_costs_match_normalized_kernel(self, g2, g2_uniform):
        phi, psi = g2_uniform
        frozen = frozen_pair_instance(g2, 2, phi, psi)
        assert frozen.n_actions_a == frozen.n_actions_b == 1
        for x in range(2):
            c_hat, p_hat = rs.normalized_kernel(g2, 2, x, phi.rows[x], psi.rows[x])
            assert_allclose(frozen.transition[x, 0, 0], p_hat, rtol=1e-14)
            assert frozen.cost2[x, 0, 0] == pytest.approx(c_hat / g2.theta, rel=1e-15)
        assert_array_equal(frozen.cost1, np.zeros((2, 1, 1)))
        assert frozen.theta == g2.theta

    def test_preserves_ergodic_value(self, g2, g2_uniform):
        phi, psi = g2_uniform
        for player in (1, 2):
            frozen = frozen_pair_instance(g2, player, phi, psi)
            one_a = rs.uniform_strategy(frozen, 1)
            one_b = rs.uniform_strategy(frozen, 2)
            assert rs.ergodic_cost(frozen, player, one_a, one_b) == pytest.approx(
                rs.ergodic_cost(g2, player, phi, psi), abs=1e-12
            )
