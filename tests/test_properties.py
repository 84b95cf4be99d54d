"""Metamorphic properties the theory guarantees exactly.

Shifting every cost by a constant k multiplies the twisted kernel by
e^{theta*k}, so every ergodic value, optimal value and growth increment
shifts by theta*k.  theta*k runs up to 1e3, far past where e^{theta*c}
overflows a double, and up to 1e6 in the fixed cases, where one ulp of
the values is above the solvers' 1e-12 stopping tolerance.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsgame as rs

from helpers import frozen_pair_instance, random_pair


def other(player: int) -> int:
    return 3 - player


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dims=st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3)),
    theta=st.floats(0.25, 4.0),
    theta_k=st.floats(0.0, 1000.0),
    player=st.integers(1, 2),
)
def test_cost_shift_shifts_every_value_by_theta_k(seed, dims, theta, theta_k, player):
    inst = rs.random_instance(seed, dims=dims, min_prob=0.02, theta=theta)
    k = theta_k / theta
    shifted = rs.GameInstance(
        inst.transition, inst.cost1 + k, inst.cost2 + k, theta=theta
    )
    phi, psi = random_pair(inst, np.random.default_rng(seed))
    opponent = psi if player == 1 else phi

    def values(game):
        frozen = frozen_pair_instance(game, player, phi, psi)
        solve = rs.solve_optimality(game, player, opponent)
        frozen_solve = rs.solve_optimality(
            frozen, player, rs.uniform_strategy(frozen, other(player))
        )
        assert solve.converged and frozen_solve.converged
        return {
            "ergodic_cost": rs.ergodic_cost(game, player, phi, psi),
            "rho": solve.rho,
            "growth": rs.finite_horizon_growth(game, player, phi, psi, 0, 4),
            "frozen_rho": frozen_solve.rho,
        }

    base, high = values(inst), values(shifted)
    for name, value in base.items():
        assert high[name] == pytest.approx(value + theta_k, abs=1e-9), name


@pytest.mark.parametrize("theta_k", [1e4, 1e5, 1e6])
def test_large_cost_shift_converges_and_shifts_values(theta_k):
    """The solvers stop on the rounding floor of values near theta*k."""
    slack = 1e-9 + 1e-14 * theta_k
    for seed in range(8):
        inst = rs.random_instance(seed, dims=(4, 2, 2))
        shifted = rs.GameInstance(
            inst.transition, inst.cost1 + theta_k, inst.cost2 + theta_k
        )
        phi, psi = rs.uniform_strategy(inst, 1), rs.uniform_strategy(inst, 2)
        for player, opponent in ((1, psi), (2, phi)):
            base = rs.solve_optimality(inst, player, opponent)
            high = rs.solve_optimality(shifted, player, opponent)
            assert high.converged, (seed, player, high.residual)
            assert high.rho == pytest.approx(base.rho + theta_k, abs=slack)
            for value in (
                lambda game: rs.ergodic_cost(game, player, phi, psi),
                lambda game: rs.finite_horizon_growth(game, player, phi, psi, 0, 30),
            ):
                assert value(shifted) == pytest.approx(value(inst) + theta_k, abs=slack)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dims=st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3)),
    anchor=st.integers(0, 3),
    data=st.data(),
)
def test_relabelling_states_and_actions_leaves_every_value_unchanged(
    seed, dims, anchor, data
):
    """Renaming states (the anchor with them) and actions is a symmetry of the game."""
    n, na, nb = dims
    base = rs.random_instance(seed, dims=dims, min_prob=0.02)
    inst = rs.GameInstance(base.transition, base.cost1, base.cost2, anchor_state=anchor % n)
    sx, sa, sb = (np.array(data.draw(st.permutations(range(k)))) for k in dims)
    # entry (x, a, b, y) of the game becomes entry (sx[x], sa[a], sb[b], sx[y])
    ix = np.ix_(sx, sa, sb)
    transition = np.empty_like(inst.transition)
    transition[ix] = inst.transition[..., np.argsort(sx)]
    cost1, cost2 = np.empty_like(inst.cost1), np.empty_like(inst.cost2)
    cost1[ix], cost2[ix] = inst.cost1, inst.cost2
    relabelled = rs.GameInstance(
        transition, cost1, cost2, inst.theta, anchor_state=int(sx[inst.anchor_state])
    )
    phi, psi = random_pair(inst, np.random.default_rng(seed))

    def rename(strategy, actions):
        rows = np.empty_like(strategy.rows)
        rows[np.ix_(sx, actions)] = strategy.rows
        return rs.StationaryStrategy(strategy.player, rows)

    phi2, psi2 = rename(phi, sa), rename(psi, sb)
    for player, opponent, opponent2 in ((1, psi, psi2), (2, phi, phi2)):
        assert rs.ergodic_cost(relabelled, player, phi2, psi2) == pytest.approx(
            rs.ergodic_cost(inst, player, phi, psi), abs=1e-10
        )
        assert rs.solve_optimality(relabelled, player, opponent2).rho == pytest.approx(
            rs.solve_optimality(inst, player, opponent).rho, abs=1e-10
        )
    cert, cert2 = rs.epsilon_gap(inst, phi, psi), rs.epsilon_gap(relabelled, phi2, psi2)
    assert cert2.eps1 == pytest.approx(cert.eps1, abs=1e-10)
    assert cert2.eps2 == pytest.approx(cert.eps2, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dims=st.tuples(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3)),
    log_theta=st.floats(-3.0, 3.0),
    arat_flag=st.booleans(),
)
def test_certificate_values_match_the_spectral_oracle(seed, dims, log_theta, arat_flag):
    """J_i from the solve's own kernel is the doubly mixed kernel's log Perron root.

    On the table route the two sum the same terms in a different order, so
    they agree to the rounding of values near max(1, |J|), for theta from
    1e-3 to 1e3.  On an exact decomposition the solve never formed its
    kernel, J_i comes from the doubly mixed kernel itself, and the two are
    equal.
    """
    inst = rs.random_instance(
        seed, dims=dims, min_prob=0.02, theta=10.0 ** log_theta, arat_flag=arat_flag
    )
    assert (inst._exact_arat is not None) == arat_flag
    phi, psi = random_pair(inst, np.random.default_rng(seed))
    cert = rs.epsilon_gap(inst, phi, psi)
    for j, player in ((cert.J1, 1), (cert.J2, 2)):
        oracle = rs.ergodic_cost(inst, player, phi, psi)
        if arat_flag:
            assert j == oracle, (player, j, oracle)
        else:
            assert abs(j - oracle) <= 8 * np.spacing(max(1.0, abs(oracle))), (player, j, oracle)
