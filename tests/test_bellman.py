import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rsgame as rs
from rsgame.bellman import N_PAIRS, SPAN_CAP, TIE_TOL, TOL

from helpers import (
    assert_within_ulps,
    corpus_instance,
    einsum_log_twisted,
    lifted_arat_instance,
    random_pair,
)

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
        for x, message in ((True, "x must be an integer, got True"),
                           (-1, "x must be in [0, 2), got -1"),
                           (5, "x must be in [0, 2), got 5")):
            for objective in (rs.mixed_objective, rs.dual_value):
                with pytest.raises(ValueError) as raised:
                    objective(g2, 2, x, UNIFORM2, UNIFORM2, np.zeros(2))
                assert str(raised.value) == message

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

    @pytest.mark.parametrize("max_iter", [2, 100_000])
    def test_final_sweep_is_the_action_values_at_v(self, max_iter):
        rng = np.random.default_rng(17)
        # the table route, then the split route of an exact decomposition
        for arat in (False, True):
            for seed in range(4):
                inst = corpus_instance(seed, arat=arat)
                assert (inst._exact_arat is not None) == arat
                phi, psi = random_pair(inst, rng)
                for player, opponent in ((1, psi), (2, phi)):
                    res = rs.solve_optimality(inst, player, opponent, max_iter=max_iter)
                    vals = rs.action_values(inst, player, opponent, res.v)
                    assert_array_equal(res.action_values, vals)
                    _, tied = rs.apply_T(inst, player, opponent, res.v)
                    assert [list(t) for t in res.tied_actions()] == [list(t) for t in tied]
                    # the swept kernel is the opponent-mixed kernel M: its sweep
                    # is ln sum_y e^{ln M(x, k, y) + v(y)}, on either route
                    mixed = {"psi": opponent.rows} if player == 1 else {"phi": opponent.rows}
                    terms = einsum_log_twisted(inst, player, **mixed) + res.v
                    top = terms.max(axis=-1)
                    want = np.log(np.exp(terms - top[..., None]).sum(axis=-1)) + top
                    assert_allclose(res.kernel.sweep(res.v), want, rtol=1e-14)

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
        for max_iter in (0, -5):
            with pytest.raises(ValueError) as raised:
                rs.solve_optimality(g2, 2, phi, max_iter=max_iter)
            assert str(raised.value) == f"max_iter must be >= 1, got {max_iter}"
        refused = [
            ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
            ({"max_iter": True}, "max_iter must be an integer, got True"),
            ({"player": True}, "player must be an integer, got True"),
            ({"player": np.True_}, f"player must be an integer, got {np.True_!r}"),
            ({"player": 3}, "player must be in [1, 2], got 3"),
        ]
        for kwargs, message in refused:
            with pytest.raises(ValueError) as raised:
                rs.solve_optimality(**{"instance": g2, "player": 2, "opponent_strategy": phi,
                                       **kwargs})
            assert str(raised.value) == message, kwargs
        # numpy scalars are the same values
        plain = rs.solve_optimality(g2, 2, phi, max_iter=100_000)
        scalars = rs.solve_optimality(g2, np.int64(2), phi, max_iter=np.int64(100_000))
        assert (scalars.rho, scalars.iterations) == (plain.rho, plain.iterations)
        assert_array_equal(scalars.v, plain.v)
        capped = rs.solve_optimality(g2, 2, phi, max_iter=np.int64(2))
        assert capped.iterations == 2 and not capped.converged
        with pytest.raises(ValueError):
            rs.solve_optimality(g2, 3, phi)
        zero_t = np.zeros((2, 1, 1, 2))
        zero_t[:, :, :, 0] = 1.0
        bad = rs.GameInstance(zero_t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        with pytest.raises(rs.AssumptionError):
            rs.solve_optimality(bad, 2, rs.uniform_strategy(bad, 1))


class TestSplitSolve:
    """Solves on an exact decomposition sweep the opponent's side, never M itself."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2, 2), (3, 2, 3), (4, 3, 2), (5, 3, 3)]),
        seed=st.integers(0, 2**16),
        log_theta=st.floats(-3.0, 3.0),
    )
    # two draws on which an 8-ulp bound on rho and the action values failed
    @example(dims=(5, 3, 3), seed=41582, log_theta=1.5673678514320413)
    @example(dims=(4, 3, 2), seed=33031, log_theta=2.6240588623738086)
    def test_matches_the_dense_solve(self, dims, seed, log_theta):
        """The same solve on the table route, within what the stopping rule allows.

        The two kernels agree to rounding: the split solve's v swept on
        both gives the same action values to 8 ulps of max(1, |value|).
        Each route then runs v <- Tv - (Tv)(anchor) from v = 0 on its own
        kernel and stops at the first sweep whose span of successive
        differences is below the threshold max(TOL, 4 eps max|Tv|) (the
        noise floor counts only once the span stalls).  The
        routes follow the same iterates to rounding, so rounding decides
        only on which sweep the threshold is crossed: where one route's
        span falls just below it, the other's lies within rounding of it,
        and a sweep contracts the span on a positive kernel (it is monotone
        and commutes with adding a constant), so the other route stops one
        sweep later.  That sweep moves v by a difference that is 0 at the
        anchor and has span below the threshold, so each entry of v moves
        by less than the threshold.  A sweep moves each action value by at
        most the largest move of v, so the action values, and rho (their
        minimum at the anchor), move by less than that too.  With the
        rounding of the sweeps, 8 ulps of the largest action value, the
        routes agree within

            max(TOL, 4 eps scale) + 8 eps scale,  scale = max(1, max|values|).

        Only solves that converge are compared: one stopped by max_iter is
        nowhere near a fixed point.
        """
        inst = lifted_arat_instance(seed, dims, 10.0 ** log_theta)
        table = rs.GameInstance(inst.transition, inst.cost1, inst.cost2, inst.theta)
        assert inst._exact_arat is not None and table._exact_arat is None
        phi, psi = random_pair(inst, np.random.default_rng(seed))
        eps = np.finfo(float).eps
        for player, opponent in ((1, psi), (2, phi)):
            split = rs.solve_optimality(inst, player, opponent, max_iter=5000)
            dense = rs.solve_optimality(table, player, opponent, max_iter=5000)
            assume(split.converged and dense.converged)
            # only the split route holds the opponent's r = R / T
            assert split.kernel.r_t is not None and dense.kernel.r_t is None
            assert_within_ulps(split.kernel.sweep(split.v), dense.kernel.sweep(split.v), 8)
            scale = max(1.0, float(np.abs(dense.action_values).max()))
            bound = max(TOL, 4 * eps * scale) + 8 * eps * scale
            assert abs(split.rho - dense.rho) <= bound
            assert np.abs(split.action_values - dense.action_values).max() <= bound
            assert np.abs(split.v - dense.v).max() <= bound
            assert_array_equal(split.selector, dense.selector)
            assert ([list(t) for t in split.tied_actions()]
                    == [list(t) for t in dense.tied_actions()])

    def test_rounding_cycle_above_the_floor_stops(self):
        """A split solve whose iterates end in a period-2 rounding cycle still converges.

        Player 1's iterates repeat every 2 sweeps from sweep 383 on, v(1)
        moving by 11 ulps of max|Tv| ~ 633 each sweep: the exact operator
        nearly flips that state against the others.  The span of successive
        differences holds at 1.7e-12, above both TOL and the floor 4 eps
        max|Tv| = 5.6e-13, so no sweep of the cycle stops.  The next sweep
        from the cycle's midpoint moves the span to 1.1e-13, below TOL.
        """
        inst = lifted_arat_instance(50171, (5, 3, 3), 0.013705993937960783)
        _, psi = random_pair(inst, np.random.default_rng(50171))
        res = rs.solve_optimality(inst, 1, psi, max_iter=5000)
        assert res.converged and res.residual < TOL

    def test_rounding_cycle_on_the_table_route_stops(self):
        """The same solve on the table route, which sweeps the same form and cycles too."""
        inst = lifted_arat_instance(50171, (5, 3, 3), 0.013705993937960783)
        table = rs.GameInstance(inst.transition, inst.cost1, inst.cost2, inst.theta)
        assert table._exact_arat is None
        _, psi = random_pair(inst, np.random.default_rng(50171))
        split = rs.solve_optimality(inst, 1, psi, max_iter=5000)
        res = rs.solve_optimality(table, 1, psi, max_iter=5000)
        assert res.converged and res.residual < TOL
        assert_within_ulps(np.array(res.rho), np.array(split.rho), 8)

    def test_rounding_cycles_of_both_players_stop(self):
        """Player 2 on another lifted instance cycles on both routes, and both stop."""
        inst = lifted_arat_instance(27647, (3, 2, 3), 10.0 ** -1.6081388908982626)
        table = rs.GameInstance(inst.transition, inst.cost1, inst.cost2, inst.theta)
        phi, _ = random_pair(inst, np.random.default_rng(27647))
        for game in (inst, table):
            res = rs.solve_optimality(game, 2, phi, max_iter=5000)
            assert res.converged and res.residual < TOL

    def test_never_forms_the_opponent_mixed_kernel(self):
        """A split solve allocates less than one X*A*Y array; the table route's M is one,
        with no second X*A*Y array beside it."""
        inst = rs.random_instance(5, dims=(100, 10, 10), min_prob=1e-3, arat_flag=True)
        table = rs.GameInstance(inst.transition, inst.cost1, inst.cost2, inst.theta)
        assert inst._exact_arat is not None and table._exact_arat is None
        psi = rs.uniform_strategy(inst, 2)
        m_bytes = inst.n_states * inst.n_actions_a * inst.n_states * 8

        def peak(game):
            tracemalloc.start()
            try:
                rs.solve_optimality(game, 1, psi)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(inst) < m_bytes
        assert m_bytes <= peak(table) < 1.5 * m_bytes


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

    def test_split_and_table_routes_agree(self):
        inst = corpus_instance(2, arat=True, dims=(4, 3, 2))
        table = rs.GameInstance(inst.transition, inst.cost1, inst.cost2, inst.theta)
        assert inst._exact_arat is not None and table._exact_arat is None
        phi, psi = random_pair(inst, np.random.default_rng(2))
        for player, opponent in ((1, psi), (2, phi)):
            split = rs.measured_contraction(inst, player, opponent)
            dense = rs.measured_contraction(table, player, opponent)
            assert split == pytest.approx(dense, abs=1e-12)
            assert 0.0 < split < 1.0

    def test_deterministic_in_seed(self, g2, g2_uniform):
        """One fixed sample: N_PAIRS pairs from [0, SPAN_CAP]^X drawn with seed 0."""
        phi, _ = g2_uniform
        ratio = rs.measured_contraction(g2, 2, phi)
        assert ratio == rs.measured_contraction(g2, 2, phi)
        rng = np.random.default_rng(0)
        v1, v2 = (rng.uniform(0.0, SPAN_CAP, size=(N_PAIRS, g2.n_states)) for _ in range(2))
        ratios = []
        for a, b in zip(v1, v2):
            tv1, _ = rs.apply_T(g2, 2, phi, a)
            tv2, _ = rs.apply_T(g2, 2, phi, b)
            ratios.append(rs.span(tv1 - tv2) / rs.span(a - b))
        assert ratio == pytest.approx(max(ratios), abs=1e-12)

    def test_parameter_validation(self, g2, g2_uniform):
        """The sample is fixed: its size, box and seed are not arguments."""
        phi, _ = g2_uniform
        for keyword, value in (("n_pairs", N_PAIRS), ("span_cap", SPAN_CAP), ("seed", 0)):
            with pytest.raises(TypeError, match=keyword):
                rs.measured_contraction(g2, 2, phi, **{keyword: value})
        for player, message in ((3, "player must be in [1, 2], got 3"),
                                (True, "player must be an integer, got True")):
            with pytest.raises(ValueError) as raised:
                rs.measured_contraction(g2, player, phi)
            assert str(raised.value) == message
