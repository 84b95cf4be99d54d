import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rsgame as rs
from rsgame.bellman import TIE_TOL

from helpers import corpus_instance, random_pair

UNIFORM2 = np.array([0.5, 0.5])

# Relative value iteration against the uniform opponent on the bundled
# fixture, frozen from a converged high-precision run.
G2_RHO2_UNIFORM = 0.26999347135527801
G2_V2_UNIFORM = [0.0, 0.090907309999831043]
G2_RHO1_UNIFORM = 0.44181497672883535
G2_V1_UNIFORM = [0.0, 0.45767457613920831]


def single_state_instance(costs_b, theta=1.0):
    """One state, one row; player 2 picks among len(costs_b) actions."""
    nb = len(costs_b)
    t = np.ones((1, 1, nb, 1))
    c2 = np.array(costs_b, dtype=float).reshape(1, 1, nb)
    return rs.GameInstance(t, np.zeros((1, 1, nb)), c2, theta=theta)


class TestSpan:
    def test_constants_have_zero_span(self):
        assert rs.span(np.full(4, 2.5)) == 0.0

    def test_simple_range(self):
        assert rs.span([1.0, -2.0, 3.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rs.span([])

    @settings(max_examples=50, deadline=None)
    @given(
        vec=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        shift=st.floats(-100, 100),
    )
    def test_translation_invariant_and_nonnegative(self, vec, shift):
        v = np.array(vec)
        assert rs.span(v) >= 0.0
        assert rs.span(v + shift) == pytest.approx(rs.span(v), abs=1e-9)


class TestApplyT:
    def test_zero_cost_zero_values(self):
        base = corpus_instance(0)
        z = np.zeros(base.cost1.shape)
        inst = rs.GameInstance(base.transition, z, z)
        psi = rs.uniform_strategy(inst, 2)
        tv, tied = rs.apply_T(inst, 1, psi, np.zeros(inst.n_states))
        assert_allclose(tv, 0.0, atol=1e-13)
        # with all action values identical, every action is tied everywhere
        for row in tied:
            assert list(row) == list(range(inst.n_actions_a))

    def test_single_state_closed_form(self):
        inst = single_state_instance([0.7, 0.2, 0.9], theta=2.0)
        phi = rs.uniform_strategy(inst, 1)
        tv, tied = rs.apply_T(inst, 2, phi, np.zeros(1))
        assert tv[0] == pytest.approx(2.0 * 0.2, rel=1e-14)
        assert list(tied[0]) == [1]

    def test_fixture_uniform_at_zero(self, g2):
        phi = rs.uniform_strategy(g2, 1)
        tv, tied = rs.apply_T(g2, 2, phi, np.zeros(2))
        assert_allclose(
            tv, [0.21986807184000734, 0.31986807184000737], atol=1e-14
        )
        assert [list(t) for t in tied] == [[1], [1]]

    def test_values_are_log_normalizers_at_zero(self, g2):
        # at v = 0 the action value reduces to ln c~ against the pure action
        phi = rs.uniform_strategy(g2, 1)
        vals = rs.action_values(g2, 2, phi, np.zeros(2))
        for x in range(2):
            for b in range(2):
                pure = np.zeros(2)
                pure[b] = 1.0
                want, _ = rs.normalized_kernel(g2, 2, x, UNIFORM2, pure)
                assert vals[x, b] == pytest.approx(want, abs=1e-13)

    def test_duplicated_actions_are_reported_tied(self, g2):
        t = np.concatenate([g2.transition, g2.transition[:, :, :1]], axis=2)
        c1 = np.concatenate([g2.cost1, g2.cost1[:, :, :1]], axis=2)
        c2 = np.concatenate([g2.cost2, g2.cost2[:, :, :1]], axis=2)
        inst = rs.GameInstance(t, c1, c2)
        phi = rs.uniform_strategy(inst, 1)
        tv, tied = rs.apply_T(inst, 2, phi, np.zeros(2))
        # column 2 duplicates column 0; the fixture's minimizer is b=1 alone
        base_tv, _ = rs.apply_T(g2, 2, rs.uniform_strategy(g2, 1), np.zeros(2))
        assert_allclose(tv, base_tv, atol=1e-14)
        vals = rs.action_values(inst, 2, phi, np.zeros(2))
        assert vals[0, 0] == pytest.approx(vals[0, 2], abs=TIE_TOL)

    def test_monotone_in_v(self, g2):
        rng = np.random.default_rng(17)
        phi = rs.uniform_strategy(g2, 1)
        for _ in range(25):
            v = rng.normal(size=2)
            w = v + rng.uniform(0.0, 1.0, size=2)
            tv, _ = rs.apply_T(g2, 2, phi, v)
            tw, _ = rs.apply_T(g2, 2, phi, w)
            assert np.all(tw >= tv - 1e-12)

    def test_additive_constants_pass_through(self, g2):
        phi = rs.uniform_strategy(g2, 1)
        v = np.array([0.3, -0.2])
        tv, _ = rs.apply_T(g2, 2, phi, v)
        tv_shift, _ = rs.apply_T(g2, 2, phi, v + 2.0)
        assert_allclose(tv_shift, tv + 2.0, atol=1e-12)

    def test_opponent_strategy_validated(self, g2):
        psi = rs.uniform_strategy(g2, 2)
        with pytest.raises(ValueError, match="belongs"):
            rs.apply_T(g2, 2, psi, np.zeros(2))
        short = rs.StationaryStrategy(1, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="rows"):
            rs.apply_T(g2, 2, short, np.zeros(2))


class TestObjectiveForms:
    def test_direct_equals_dual(self, g2):
        rng = np.random.default_rng(4)
        for _ in range(300):
            phi, psi = random_pair(g2, rng)
            x = int(rng.integers(2))
            v = rng.normal(scale=1.5, size=2)
            direct = rs.mixed_objective(g2, 2, x, phi.rows[x], psi.rows[x], v)
            dual = rs.dual_value(g2, 2, x, phi.rows[x], psi.rows[x], v)
            assert abs(direct - dual) <= 1e-10

    def test_dual_at_flat_v_is_log_normalizer(self, g2):
        rng = np.random.default_rng(6)
        phi, psi = random_pair(g2, rng)
        for x in range(2):
            got = rs.dual_value(g2, 2, x, phi.rows[x], psi.rows[x], np.zeros(2))
            want, _ = rs.normalized_kernel(g2, 2, x, phi.rows[x], psi.rows[x])
            assert got == pytest.approx(want, abs=1e-12)

    def test_mixed_objective_interpolates_action_values(self, g2):
        """exp of the mixed objective is linear in the own mixture."""
        phi = rs.uniform_strategy(g2, 1)
        rng = np.random.default_rng(7)
        v = rng.normal(size=2)
        vals = rs.action_values(g2, 2, phi, v)
        for _ in range(50):
            w = rng.dirichlet(np.ones(2))
            got = rs.mixed_objective(g2, 2, 0, UNIFORM2, w, v)
            want = math.log(float(w @ np.exp(vals[0])))
            assert got == pytest.approx(want, abs=1e-12)

    def test_mixed_never_beats_pure_minimum(self):
        rng = np.random.default_rng(11)
        for seed in range(4):
            inst = corpus_instance(seed)
            phi = rs.uniform_strategy(inst, 1)
            v = rng.normal(size=inst.n_states)
            vals = rs.action_values(inst, 2, phi, v)
            for _ in range(100):
                x = int(rng.integers(inst.n_states))
                psi = rng.dirichlet(np.ones(inst.n_actions_b))
                got = rs.mixed_objective(
                    inst, 2, x, np.full(inst.n_actions_a, 1.0 / inst.n_actions_a),
                    psi, v,
                )
                assert got >= vals[x].min() - 1e-12


class TestSolveOptimality:
    def test_zero_cost_solves_immediately(self):
        base = corpus_instance(1)
        z = np.zeros(base.cost1.shape)
        inst = rs.GameInstance(base.transition, z, z)
        res = rs.solve_optimality(inst, 2, rs.uniform_strategy(inst, 1))
        assert res.converged
        assert res.rho == pytest.approx(0.0, abs=1e-12)
        assert_allclose(res.v, 0.0, atol=1e-12)

    def test_single_state_picks_cheapest_action(self):
        inst = single_state_instance([0.7, 0.2, 0.9], theta=3.0)
        res = rs.solve_optimality(inst, 2, rs.uniform_strategy(inst, 1))
        assert res.rho == pytest.approx(0.6, rel=1e-13)
        assert res.selector[0] == 1
        assert res.v[0] == 0.0

    def test_fixture_uniform_player2(self, g2, g2_uniform):
        phi, _ = g2_uniform
        res = rs.solve_optimality(g2, 2, phi)
        assert res.converged
        assert res.residual < 1e-12
        assert res.rho == pytest.approx(G2_RHO2_UNIFORM, abs=1e-12)
        assert_allclose(res.v, G2_V2_UNIFORM, atol=1e-12)
        assert list(res.selector) == [1, 1]

    def test_fixture_uniform_player1(self, g2, g2_uniform):
        _, psi = g2_uniform
        res = rs.solve_optimality(g2, 1, psi)
        assert res.rho == pytest.approx(G2_RHO1_UNIFORM, abs=1e-12)
        assert_allclose(res.v, G2_V1_UNIFORM, atol=1e-12)
        assert list(res.selector) == [0, 0]

    def test_fixed_point_equation_holds(self, g2, g2_uniform):
        phi, _ = g2_uniform
        res = rs.solve_optimality(g2, 2, phi)
        tv, _ = rs.apply_T(g2, 2, phi, res.v)
        assert_allclose(tv, res.rho + res.v, atol=1e-11)

    def test_rho_undercuts_every_pure_stationary_response(self, g2, g2_uniform):
        phi, _ = g2_uniform
        res = rs.solve_optimality(g2, 2, phi)
        values = []
        for b0 in range(2):
            for b1 in range(2):
                psi = rs.pure_strategy(g2, 2, [b0, b1])
                values.append(rs.ergodic_cost(g2, 2, phi, psi))
        assert res.rho <= min(values) + 1e-10
        # the selector strategy attains the optimum
        sel = rs.pure_strategy(g2, 2, res.selector)
        assert rs.ergodic_cost(g2, 2, phi, sel) == pytest.approx(res.rho, abs=1e-10)

    def test_iteration_cap_reports_nonconvergence(self, g2, g2_uniform):
        phi, _ = g2_uniform
        res = rs.solve_optimality(g2, 2, phi, max_iter=2)
        assert not res.converged
        assert res.iterations == 2
        assert res.residual >= 1e-12

    def test_successive_spans_decrease(self, g2, g2_uniform):
        """span(v_{k+1} - v_k) is monotonically contracting on the fixture."""
        phi, _ = g2_uniform
        v = np.zeros(2)
        prev_residual = None
        for _ in range(30):
            tv, _ = rs.apply_T(g2, 2, phi, v)
            v_next = tv - tv[g2.anchor_state]
            residual = rs.span(v_next - v)
            if prev_residual is not None and prev_residual > 0.0:
                assert residual <= prev_residual + 1e-15
            prev_residual = residual
            v = v_next

    def test_span_of_fixed_point_respects_a_priori_bound(self):
        for seed in range(6):
            inst = corpus_instance(seed)
            diag = rs.validate(inst)
            res = rs.solve_optimality(inst, 2, rs.uniform_strategy(inst, 1))
            assert rs.span(res.v) <= diag.span_bound + 1e-9

    def test_input_validation(self, g2, g2_uniform):
        phi, _ = g2_uniform
        with pytest.raises(ValueError):
            rs.solve_optimality(g2, 2, phi, tol=0.0)
        with pytest.raises(ValueError):
            rs.solve_optimality(g2, 3, phi)
        zero_t = np.zeros((2, 1, 1, 2))
        zero_t[:, :, :, 0] = 1.0
        bad = rs.GameInstance(zero_t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        with pytest.raises(rs.AssumptionError):
            rs.solve_optimality(bad, 2, rs.uniform_strategy(bad, 1))


class TestMeasuredContraction:
    def test_fixture_contracts(self, g2, g2_uniform):
        phi, _ = g2_uniform
        ratio = rs.measured_contraction(g2, 2, phi)
        assert 0.0 < ratio < 1.0

    def test_single_state_is_zero(self):
        inst = single_state_instance([0.3, 0.6])
        assert rs.measured_contraction(inst, 2, rs.uniform_strategy(inst, 1)) == 0.0

    def test_state_independent_kernel_contracts_to_zero(self):
        # every row identical: Tv1 - Tv2 is constant, so the span ratio is 0
        row = np.array([0.3, 0.7])
        t = np.tile(row, (2, 2, 2, 1))
        rng = np.random.default_rng(2)
        c = rng.uniform(0.0, 1.0, size=(2, 2, 2))
        inst = rs.GameInstance(t, c, c)
        ratio = rs.measured_contraction(inst, 2, rs.uniform_strategy(inst, 1))
        assert ratio == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_in_seed(self, g2, g2_uniform):
        phi, _ = g2_uniform
        a = rs.measured_contraction(g2, 2, phi, n_pairs=50, seed=3)
        b = rs.measured_contraction(g2, 2, phi, n_pairs=50, seed=3)
        assert a == b

    def test_parameter_validation(self, g2, g2_uniform):
        phi, _ = g2_uniform
        with pytest.raises(ValueError):
            rs.measured_contraction(g2, 2, phi, n_pairs=0)
        with pytest.raises(ValueError):
            rs.measured_contraction(g2, 2, phi, span_cap=0.0)
