import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rsgame as rs
from rsgame import spectral

from helpers import corpus_instance, frozen_pair_instance, random_pair

# Twisted matrices under the uniform pair on the bundled fixture, entry by
# entry from the defining 4-term sums.
G2_Q1_UNIFORM = [
    [0.47946984522173325, 0.82552586388734206],
    [1.0056695508544227, 1.1459046329261067],
]
G2_Q2_UNIFORM = [
    [0.55338438407693646, 1.0966528857976505],
    [0.79394164823966795, 1.0296315561666645],
]
G2_J1_UNIFORM = 0.57822022429909892
G2_J2_UNIFORM = 0.56219208143496413


def quadratic_log_radius(q):
    """Closed-form ln spectral radius of a positive 2x2 matrix."""
    tr = q[0, 0] + q[1, 1]
    det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    return math.log((tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0)


class TestTwistedMatrix:
    def test_entries_match_defining_sum(self, g2, g2_uniform):
        phi, psi = g2_uniform
        q = np.exp(rs.twisted_matrix(g2, 2, phi, psi))
        expected = np.zeros((2, 2))
        for x in range(2):
            for a in range(2):
                for b in range(2):
                    w = phi.rows[x, a] * psi.rows[x, b] * math.exp(g2.cost2[x, a, b])
                    expected[x] += w * g2.transition[x, a, b]
        assert_allclose(q, expected, rtol=1e-14)
        assert_allclose(q, G2_Q2_UNIFORM, atol=1e-15)

    def test_player1_uniform_literal(self, g2, g2_uniform):
        phi, psi = g2_uniform
        assert_allclose(
            np.exp(rs.twisted_matrix(g2, 1, phi, psi)), G2_Q1_UNIFORM, atol=1e-15
        )

    def test_pure_pair_slices_twisted_kernel(self, g2):
        phi = rs.pure_strategy(g2, 1, [1, 0])
        psi = rs.pure_strategy(g2, 2, [0, 1])
        q = np.exp(rs.twisted_matrix(g2, 1, phi, psi))
        table = np.exp(g2.theta * g2.cost1)[..., None] * g2.transition
        assert_allclose(q[0], table[0, 1, 0], rtol=1e-15)
        assert_allclose(q[1], table[1, 0, 1], rtol=1e-15)

    def test_zero_cost_matrix_is_stochastic(self):
        base = corpus_instance(2)
        z = np.zeros(base.cost1.shape)
        inst = rs.GameInstance(base.transition, z, z)
        log_q = rs.twisted_matrix(
            inst, 1, rs.uniform_strategy(inst, 1), rs.uniform_strategy(inst, 2)
        )
        assert_allclose(np.exp(log_q).sum(axis=1), 1.0, atol=1e-13)

    def test_strategy_validation(self, g2, g2_uniform):
        phi, psi = g2_uniform
        with pytest.raises(ValueError):
            rs.twisted_matrix(g2, 1, psi, psi)
        other = corpus_instance(0, dims=(3, 2, 2))
        with pytest.raises(ValueError):
            rs.twisted_matrix(g2, 1, rs.uniform_strategy(other, 1), psi)


class TestPerronValue:
    def test_scalar_matrix(self):
        ln_r, log_w = rs.perron_value(np.log([[2.0]]))
        assert ln_r == pytest.approx(math.log(2.0), abs=1e-14)
        assert_allclose(np.exp(log_w), [1.0])

    def test_all_ones(self):
        ln_r, log_w = rs.perron_value(np.zeros((2, 2)))
        assert ln_r == pytest.approx(math.log(2.0), abs=1e-13)
        assert_allclose(np.exp(log_w), [1.0, 1.0], atol=1e-12)

    def test_fixture_matches_quadratic_formula(self, g2, g2_uniform):
        phi, psi = g2_uniform
        for player, expected in ((1, G2_J1_UNIFORM), (2, G2_J2_UNIFORM)):
            log_q = rs.twisted_matrix(g2, player, phi, psi)
            ln_r, log_w = rs.perron_value(log_q, g2.anchor_state)
            q, w = np.exp(log_q), np.exp(log_w)
            assert ln_r == pytest.approx(quadratic_log_radius(q), abs=1e-13)
            assert ln_r == pytest.approx(expected, abs=1e-13)
            assert w[0] == 1.0  # anchored eigenvector
            # eigen residual: Q w = r w
            assert_allclose(q @ w, math.exp(ln_r) * w, rtol=1e-10)

    def test_cross_checks_dense_eigensolver(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            q = rng.uniform(0.05, 2.0, size=(n, n))
            ln_r, log_w = rs.perron_value(np.log(q))
            lam = np.abs(np.linalg.eigvals(q)).max()
            assert ln_r == pytest.approx(math.log(lam), abs=1e-11)
            assert np.all(np.exp(log_w) > 0.0)

    def test_scaling_shifts_log_radius(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(0.1, 1.0, size=(3, 3))
        base, _ = rs.perron_value(np.log(q))
        scaled, _ = rs.perron_value(np.log(7.5 * q))
        assert scaled == pytest.approx(base + math.log(7.5), abs=1e-12)

    def test_anchor_pins_eigenvector_entry(self, g2, g2_uniform):
        log_q = rs.twisted_matrix(g2, 1, *g2_uniform)
        ln_r0, log_w0 = rs.perron_value(log_q)
        ln_r1, log_w1 = rs.perron_value(log_q, anchor=1)
        assert ln_r1 == pytest.approx(ln_r0, abs=1e-13)
        assert log_w1[1] == 0.0
        assert_allclose(log_w1, log_w0 - log_w0[1], atol=1e-10)
        for anchor in (-1, 2, True, 1.0):
            with pytest.raises(ValueError, match="anchor"):
                rs.perron_value(log_q, anchor=anchor)
        assert rs.perron_value(log_q, anchor=np.int64(1))[0] == ln_r1

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            rs.perron_value(np.array([[0.0, -np.inf], [-np.inf, 0.0]]))  # ln I
        with pytest.raises(ValueError):
            rs.perron_value(np.zeros((2, 3)))


#: ln of the near-degenerate [[1, 2e-3], [1e-3, 1]]: eigenvalues 1 +- 1.4e-3
NEAR_DEGENERATE = np.log([[1.0, 2e-3], [1e-3, 1.0]])


def log_stack(rng, n: int, members: int, scale: float) -> np.ndarray:
    """Positive matrices ln Q [members, n, n] with log entries up to about +-scale.

    Two states draw every log entry on its own.  Above two, each row is a
    log-Dirichlet row plus a shift of up to +-scale, the form e^{theta c} P
    of every twisted matrix: where a row spreads its own entries over
    hundreds of orders of magnitude, a dominant cycle longer than one state
    makes the matrix nearly periodic, and power iteration does not settle.
    """
    shifts = rng.uniform(-scale, scale, size=(members, n, 1))
    if n == 2:
        stack = rng.uniform(-scale, scale, size=(members, n, n))
        return np.concatenate([stack, NEAR_DEGENERATE[None]])
    return np.log(rng.dirichlet(np.ones(n), size=(members, n))) + shifts


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 6]),
    members=st.integers(1, 8),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
    anchor=st.integers(0, 5),
)
def test_stacked_roots_are_the_single_matrix_roots(seed, n, members, scale, anchor):
    rng = np.random.default_rng(seed)
    anchor %= n
    log_q = log_stack(rng, n, members, scale)
    stacked = spectral._log_perron(log_q, anchor)
    # the same matrices in reverse order, in a stack of another length
    reversed_ = spectral._log_perron(log_q[:0:-1], anchor)[::-1]
    if n > 2:
        _, stacked_w = spectral._power_roots(log_q, anchor)
    for k, member in enumerate(log_q):
        ln_r, log_w = rs.perron_value(member, anchor)
        assert stacked[k] == ln_r
        if k > 0:
            assert reversed_[k - 1] == ln_r
        assert log_w[anchor] == 0.0
        if n > 2:
            assert stacked_w[k].tobytes() == log_w.tobytes()
        else:
            # Q w = r w row by row, in log space: lse_y(ln Q + ln w) - ln w - ln r
            terms = member + log_w
            top = terms.max(axis=1)
            residual = top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) - log_w - ln_r
            size = max(1.0, np.abs(member).max() + np.abs(log_w).max())
            assert np.all(np.abs(residual) <= 16 * np.finfo(float).eps * size), residual
        if scale <= 30.0:
            lam = np.log(np.abs(np.linalg.eigvals(np.exp(member))).max())
            ulps = np.spacing(max(1.0, abs(ln_r)))
            # the closed form to rounding; power iteration to its bracket, < TOL
            assert abs(ln_r - lam) <= (8 * ulps if n == 2 else spectral.TOL + 8 * ulps)


class TestErgodicCost:
    def test_fixture_uniform_values(self, g2, g2_uniform):
        phi, psi = g2_uniform
        assert rs.ergodic_cost(g2, 1, phi, psi) == pytest.approx(
            G2_J1_UNIFORM, abs=1e-13
        )
        assert rs.ergodic_cost(g2, 2, phi, psi) == pytest.approx(
            G2_J2_UNIFORM, abs=1e-13
        )

    def test_fixture_equilibrium_values(self, g2):
        phi = rs.pure_strategy(g2, 1, [0, 0])
        psi = rs.pure_strategy(g2, 2, [1, 1])
        assert rs.ergodic_cost(g2, 1, phi, psi) == pytest.approx(
            0.49771664669626348, abs=1e-13
        )
        assert rs.ergodic_cost(g2, 2, phi, psi) == pytest.approx(
            0.055557624767909611, abs=1e-13
        )

    def test_zero_cost_is_zero(self):
        base = corpus_instance(3)
        z = np.zeros(base.cost1.shape)
        inst = rs.GameInstance(base.transition, z, z)
        val = rs.ergodic_cost(
            inst, 1, rs.uniform_strategy(inst, 1), rs.uniform_strategy(inst, 2)
        )
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_costs(self):
        inst = corpus_instance(6)
        phi = rs.uniform_strategy(inst, 1)
        psi = rs.uniform_strategy(inst, 2)
        base = rs.ergodic_cost(inst, 1, phi, psi)
        bumped = rs.GameInstance(
            inst.transition, inst.cost1 + 0.25, inst.cost2, theta=inst.theta
        )
        assert rs.ergodic_cost(bumped, 1, phi, psi) >= base + 0.2

    def test_cost_spread_across_states_past_overflow(self, g2, g2_uniform):
        """Costs 800 apart between states leave the value and eigenvector finite."""
        cost1 = g2.cost1.copy()
        cost1[1] += 800.0
        spread = rs.GameInstance(g2.transition, cost1, g2.cost2)
        ln_r, log_w = rs.perron_value(rs.twisted_matrix(spread, 1, *g2_uniform))
        assert log_w[1] - log_w[0] > 709.0
        assert rs.ergodic_cost(spread, 1, *g2_uniform) == ln_r
        frozen = frozen_pair_instance(spread, 1, *g2_uniform)
        rho = rs.solve_optimality(frozen, 1, rs.uniform_strategy(frozen, 2)).rho
        assert ln_r == pytest.approx(rho, abs=1e-8)

    def test_solve_kernel_gives_the_same_value(self):
        rng = np.random.default_rng(31)
        # the table route, then the split route of an exact decomposition
        for arat in (False, True):
            for seed in range(6):
                inst = corpus_instance(seed, arat=arat)
                assert (inst._exact_arat is not None) == arat
                phi, psi = random_pair(inst, rng)
                for player, opponent in ((1, psi), (2, phi)):
                    kernel = rs.solve_optimality(inst, player, opponent).kernel
                    fresh = rs.ergodic_cost(inst, player, phi, psi)
                    shared = rs.ergodic_cost(inst, player, phi, psi, kernel=kernel)
                    assert abs(shared - fresh) <= 8 * np.spacing(max(1.0, abs(fresh)))
                    if arat:  # both are the doubly mixed kernel's root
                        assert shared == fresh

    def test_kernel_of_the_other_player_is_rejected(self):
        # on both routes, and with square action counts, where only the
        # player the kernel was swept for tells the two apart
        for arat, dims in itertools.product((False, True), ((3, 2, 3), (3, 2, 2))):
            inst = corpus_instance(0, arat=arat, dims=dims)
            assert (inst._exact_arat is not None) == arat
            phi, psi = rs.uniform_strategy(inst, 1), rs.uniform_strategy(inst, 2)
            kernel = rs.solve_optimality(inst, 2, phi).kernel  # [x, b, y]
            with pytest.raises(ValueError, match="kernel"):
                rs.ergodic_cost(inst, 1, phi, psi, kernel=kernel)

    def test_grows_with_risk_parameter(self, g2, g2_uniform):
        phi, psi = g2_uniform
        hotter = rs.GameInstance(g2.transition, g2.cost1, g2.cost2, theta=2.0)
        assert rs.ergodic_cost(hotter, 2, phi, psi) > rs.ergodic_cost(g2, 2, phi, psi)


class TestFiniteHorizonGrowth:
    def test_one_step_is_log_row_sum(self, g2, g2_uniform):
        phi, psi = g2_uniform
        assert rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=1) == pytest.approx(
            0.50079787546016863, abs=1e-14
        )
        assert rs.finite_horizon_growth(g2, 2, phi, psi, x=1, n=1) == pytest.approx(
            0.60079787546016861, abs=1e-14
        )

    def test_constant_cost_is_flat_in_n(self):
        base = corpus_instance(5)
        c = np.full(base.cost1.shape, 0.3)
        inst = rs.GameInstance(base.transition, c, c, theta=2.0)
        phi = rs.uniform_strategy(inst, 1)
        psi = rs.uniform_strategy(inst, 2)
        for n in (1, 5, 40):
            got = rs.finite_horizon_growth(inst, 1, phi, psi, x=0, n=n)
            assert got == pytest.approx(0.6, abs=1e-12)

    def test_increments_converge_geometrically(self, g2, g2_uniform):
        phi, psi = g2_uniform
        exact = rs.ergodic_cost(g2, 2, phi, psi)
        err = [
            abs(rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=n) - exact)
            for n in (2, 4, 6, 200)
        ]
        assert err[1] < err[0]
        assert err[2] < err[1]
        assert err[3] <= 1e-6
        assert abs(
            rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=2000) - exact
        ) <= 1e-9

    def test_start_state_dependence_vanishes(self, g2, g2_uniform):
        phi, psi = g2_uniform
        a = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=500)
        b = rs.finite_horizon_growth(g2, 2, phi, psi, x=1, n=500)
        assert abs(a - b) <= 1e-9

    def test_rejects_nonpositive_horizon(self, g2, g2_uniform):
        phi, psi = g2_uniform
        with pytest.raises(ValueError):
            rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=0)
        for horizon in (rs.finite_horizon_growth, rs.horizon_log_mgf):
            with pytest.raises(ValueError) as raised:
                horizon(g2, 2, phi, psi, x=0, n=2.5)
            assert str(raised.value) == "n must be an integer, got 2.5"

    @pytest.mark.parametrize("x", [-1, 2])
    def test_rejects_out_of_range_start_state(self, g2, g2_uniform, x):
        phi, psi = g2_uniform
        with pytest.raises(ValueError) as raised:
            rs.finite_horizon_growth(g2, 2, phi, psi, x=x, n=3)
        assert str(raised.value) == f"x must be in [0, 2), got {x}"


class TestHorizonLogMgf:
    def test_zero_horizon_is_zero(self, g2, g2_uniform):
        phi, psi = g2_uniform
        assert rs.horizon_log_mgf(g2, 2, phi, psi, x=0, n=0) == 0.0

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("x", [-1, 2])
    def test_rejects_out_of_range_start_state(self, g2, g2_uniform, x, n):
        phi, psi = g2_uniform
        with pytest.raises(ValueError) as raised:
            rs.horizon_log_mgf(g2, 2, phi, psi, x=x, n=n)
        assert str(raised.value) == f"x must be in [0, 2), got {x}"

    def test_increments_reproduce_growth(self, g2, g2_uniform):
        phi, psi = g2_uniform
        for n in (1, 3, 17):
            diff = rs.horizon_log_mgf(g2, 2, phi, psi, x=0, n=n) - rs.horizon_log_mgf(
                g2, 2, phi, psi, x=0, n=n - 1
            )
            assert diff == pytest.approx(
                rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=n), abs=1e-12
            )

    def test_time_average_carries_order_one_over_n_bias(self, g2, g2_uniform):
        """The raw average converges at O(1/n) only; pin that it is still
        visibly off at n = 2000 while the increment form is exact to 1e-9."""
        phi, psi = g2_uniform
        exact = rs.ergodic_cost(g2, 2, phi, psi)
        avg = rs.horizon_log_mgf(g2, 2, phi, psi, x=0, n=2000) / 2000.0
        assert 1e-6 < abs(avg - exact) < 1e-4


class TestFrozenPairEquivalence:
    def test_value_iteration_on_frozen_pair_reproduces_radius(self):
        rng = np.random.default_rng(44)
        for seed in range(10):
            inst = corpus_instance(seed)
            phi, psi = random_pair(inst, rng)
            direct = rs.ergodic_cost(inst, 2, phi, psi)
            frozen = frozen_pair_instance(inst, 2, phi, psi)
            res = rs.solve_optimality(
                frozen, 2, rs.uniform_strategy(frozen, 1)
            )
            assert res.converged
            assert abs(res.rho - direct) <= 1e-8
