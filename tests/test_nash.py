import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsgame as rs
from rsgame.game_model import dumps_decimal
from rsgame.nash import _simplex_grid, certificate_to_dict

from helpers import corpus_instance, random_pair

# Deviation gaps of the uniform pair on the bundled fixture, frozen from a
# converged high-precision run.
G2_EPS1_UNIFORM = 0.13640524757026357
G2_EPS2_UNIFORM = 0.29219861007968612


def decoupled_instance():
    """Player 2's transitions and costs ignore player 1's action entirely."""
    rng = np.random.default_rng(13)
    t_b = rng.dirichlet(np.ones(2), size=(2, 2))  # [x][b][y]
    t_b = 0.9 * t_b + 0.05  # keep everything strictly positive
    t = np.repeat(t_b[:, None, :, :], 2, axis=1)  # [x][a][b][y]
    c2_b = rng.uniform(0.1, 1.0, size=(2, 2))
    c2 = np.repeat(c2_b[:, None, :], 2, axis=1)
    c1 = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    return rs.GameInstance(t, c1, c2)


class TestBestResponse:
    def test_fixture_vs_uniform(self, g2, g2_uniform):
        phi, _ = g2_uniform
        br = rs.best_response(g2, 2, phi)
        assert br.solve.rho == pytest.approx(0.26999347135527801, abs=1e-12)
        assert [list(t) for t in br.tied_actions] == [[1], [1]]
        assert_allclose(br.response_strategy.rows, [[0.0, 1.0], [0.0, 1.0]])
        assert br.contains(br.response_strategy)
        assert not br.contains(rs.uniform_strategy(g2, 2))
        assert not br.contains(rs.pure_strategy(g2, 2, [0, 1]))

    def test_membership_allows_mixing_over_ties(self, g2):
        # duplicate player 2's optimal column so two pure actions tie exactly
        t = np.concatenate([g2.transition, g2.transition[:, :, 1:2]], axis=2)
        c1 = np.concatenate([g2.cost1, g2.cost1[:, :, 1:2]], axis=2)
        c2 = np.concatenate([g2.cost2, g2.cost2[:, :, 1:2]], axis=2)
        inst = rs.GameInstance(t, c1, c2)
        br = rs.best_response(inst, 2, rs.uniform_strategy(inst, 1))
        assert [list(ti) for ti in br.tied_actions] == [[1, 2], [1, 2]]
        mixed = rs.StationaryStrategy(
            2, np.array([[0.0, 0.4, 0.6], [0.0, 0.7, 0.3]])
        )
        assert br.contains(mixed)
        # any strategy supported on a tied set attains the optimal value
        assert rs.ergodic_cost(
            inst, 2, rs.uniform_strategy(inst, 1), mixed
        ) == pytest.approx(br.solve.rho, abs=1e-9)

    def test_decoupled_reply_ignores_opponent(self):
        inst = decoupled_instance()
        rng = np.random.default_rng(3)
        phi_a, _ = random_pair(inst, rng)
        phi_b, _ = random_pair(inst, rng)
        br_a = rs.best_response(inst, 2, phi_a)
        br_b = rs.best_response(inst, 2, phi_b)
        assert br_a.solve.rho == pytest.approx(br_b.solve.rho, abs=1e-11)
        assert list(br_a.solve.selector) == list(br_b.solve.selector)


class TestEpsilonGap:
    def test_fixture_uniform_gaps(self, g2, g2_uniform):
        phi, psi = g2_uniform
        cert = rs.epsilon_gap(g2, phi, psi)
        assert cert.eps1 == pytest.approx(G2_EPS1_UNIFORM, abs=1e-12)
        assert cert.eps2 == pytest.approx(G2_EPS2_UNIFORM, abs=1e-12)
        assert cert.max_gap == max(cert.eps1, cert.eps2)
        assert cert.J1 == pytest.approx(0.57822022429909892, abs=1e-13)
        assert cert.J1 - cert.rho1_star == pytest.approx(cert.eps1, abs=1e-15)

    def test_fixture_pure_equilibrium_has_zero_gap(self, g2):
        phi = rs.pure_strategy(g2, 1, [0, 0])
        psi = rs.pure_strategy(g2, 2, [1, 1])
        cert = rs.epsilon_gap(g2, phi, psi)
        assert cert.max_gap <= 1e-12

    def test_single_state_gap_is_cost_excess(self):
        t = np.ones((1, 1, 3, 1))
        c2 = np.array([[[0.7, 0.2, 0.9]]])
        inst = rs.GameInstance(t, np.zeros((1, 1, 3)), c2, theta=2.0)
        phi = rs.uniform_strategy(inst, 1)
        psi = rs.pure_strategy(inst, 2, [2])
        cert = rs.epsilon_gap(inst, phi, psi)
        assert cert.eps2 == pytest.approx(2.0 * (0.9 - 0.2), rel=1e-12)
        assert cert.eps1 == pytest.approx(0.0, abs=1e-12)

    def test_gaps_never_negative(self):
        rng = np.random.default_rng(23)
        for seed in range(6):
            inst = corpus_instance(seed)
            phi, psi = random_pair(inst, rng)
            cert = rs.epsilon_gap(inst, phi, psi)
            assert cert.eps1 >= -1e-9
            assert cert.eps2 >= -1e-9


class TestVerifyCertificate:
    def test_honest_certificate_verifies(self, g2, g2_uniform):
        phi, psi = g2_uniform
        cert = rs.epsilon_gap(g2, phi, psi)
        assert rs.verify_certificate(g2, cert, eps=cert.max_gap + 1e-9)
        assert not rs.verify_certificate(g2, cert, eps=cert.max_gap / 2.0)

    def test_tampered_values_are_rejected(self, g2):
        phi = rs.pure_strategy(g2, 1, [0, 0])
        psi = rs.pure_strategy(g2, 2, [1, 1])
        cert = rs.epsilon_gap(g2, phi, psi)
        assert rs.verify_certificate(g2, cert, eps=1e-8)
        for field in ("J1", "J2", "rho1_star", "rho2_star", "eps1", "eps2"):
            forged = dataclasses.replace(cert, **{field: getattr(cert, field) + 1e-3})
            assert not rs.verify_certificate(g2, forged, eps=1e-8)


class TestBestResponseDynamics:
    def test_fixture_converges_to_pure_equilibrium(self, g2):
        cert = rs.best_response_dynamics(g2)
        assert cert.converged
        assert cert.rounds <= 30
        assert cert.max_gap <= 1e-6
        assert cert.cycle is None
        assert rs.verify_certificate(g2, cert, eps=1e-6)
        # the damped iterates home in on the pure pair (a=0, b=1)
        assert np.all(cert.Phi.rows[:, 0] >= 0.999)
        assert np.all(cert.Psi.rows[:, 1] >= 0.999)

    def test_decoupled_game_converges_in_one_exact_round(self):
        inst = decoupled_instance()
        cert = rs.best_response_dynamics(
            inst, beta=1.0, tau_schedule=None, eps_target=1e-9
        )
        assert cert.converged
        assert cert.rounds <= 1
        assert cert.max_gap <= 1e-9
        # the limit plays both players' independent optima
        br2 = rs.best_response(inst, 2, cert.Phi)
        assert br2.contains(cert.Psi)

    def test_flat_costs_certify_immediately(self):
        base = corpus_instance(2)
        c = np.full(base.cost1.shape, 0.4)
        inst = rs.GameInstance(base.transition, c, c)
        cert = rs.best_response_dynamics(inst)
        assert cert.converged
        assert cert.rounds == 0  # the entry check already meets the target
        assert cert.max_gap <= 1e-9

    def test_exhaustion_reports_cycle_and_best_pair(self, g2):
        cert = rs.best_response_dynamics(g2, eps_target=1e-18, max_rounds=120)
        assert not cert.converged
        assert cert.rounds == 120
        # still returns the best certificate seen along the way
        assert cert.max_gap <= 1e-6
        assert cert.cycle is not None
        assert cert.cycle["period"] == 1  # stationary repeat at the fixed point
        assert cert.cycle["round"] <= 120

    def test_warm_start_from_equilibrium_stays_put(self, g2):
        phi = rs.pure_strategy(g2, 1, [0, 0])
        psi = rs.pure_strategy(g2, 2, [1, 1])
        cert = rs.best_response_dynamics(g2, init_pair=(phi, psi))
        assert cert.converged
        assert cert.rounds == 0
        assert_allclose(cert.Phi.rows, phi.rows)

    def test_parameter_validation(self, g2):
        with pytest.raises(ValueError):
            rs.best_response_dynamics(g2, beta=0.0)
        with pytest.raises(ValueError):
            rs.best_response_dynamics(g2, beta=1.5)
        with pytest.raises(ValueError):
            rs.best_response_dynamics(g2, eps_target=0.0)
        with pytest.raises(ValueError):
            rs.best_response_dynamics(g2, tau_schedule=(0.1, 1e-4, 1.5))


class TestSimplexGrid:
    def test_half_step_enumeration(self):
        pts = _simplex_grid(2, 0.5)
        assert_allclose(pts, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])

    def test_counts_follow_stars_and_bars(self):
        # C(k + n - 1, n - 1) points for resolution k over n atoms
        assert len(_simplex_grid(3, 0.25)) == 15
        assert len(_simplex_grid(2, 0.05)) == 21
        pts = _simplex_grid(3, 0.2)
        assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pts >= 0.0)

    def test_step_must_divide_one(self):
        with pytest.raises(ValueError):
            _simplex_grid(2, 0.3)


class TestBruteForce:
    def test_fixture_coarse_grid_finds_pure_equilibrium(self, g2):
        result = rs.brute_force_nash(g2, grid_step=0.25, eps=0.05)
        assert result.searched_pairs == 625
        assert len(result) == 3
        best = result[0]
        assert best.max_gap <= 1e-12
        assert_allclose(best.Phi.rows, [[1.0, 0.0], [1.0, 0.0]])
        assert_allclose(best.Psi.rows, [[0.0, 1.0], [0.0, 1.0]])
        assert result.existence_guaranteed
        assert result.label.startswith("existence guaranteed")
        # survivors come back sorted by gap and all meet the threshold
        gaps = [c.max_gap for c in result]
        assert gaps == sorted(gaps)
        assert all(g <= 0.05 + 1e-12 for g in gaps)

    def test_survivor_certificates_verify_fresh(self, g2):
        result = rs.brute_force_nash(g2, grid_step=0.5, eps=0.3)
        assert result.searched_pairs == 81
        for cert in list(result)[:5]:
            assert rs.verify_certificate(g2, cert, eps=0.3 + 1e-9)

    def test_no_decomposition_is_labelled_unguaranteed(self):
        inst = corpus_instance(1)
        dims = (inst.n_actions_a, inst.n_actions_b)
        if dims != (2, 2):
            inst = corpus_instance(1, dims=(2, 2, 2))
        result = rs.brute_force_nash(inst, grid_step=0.5, eps=1.0)
        assert not result.existence_guaranteed
        assert result.label.startswith("existence not guaranteed")

    def test_grid_size_guard(self, g2):
        with pytest.raises(ValueError, match="grid"):
            rs.brute_force_nash(g2, grid_step=0.01, eps=0.05)
        with pytest.raises(ValueError):
            rs.brute_force_nash(g2, grid_step=0.3, eps=0.05)

    def test_empty_result_when_no_grid_pair_qualifies(self):
        # matching-pennies-style costs put the only equilibrium strictly
        # inside the simplex, off the half-step grid
        t = np.ones((1, 2, 2, 1))
        c1 = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        c2 = np.array([[[1.2, 0.0], [0.0, 0.7]]])
        inst = rs.GameInstance(t, c1, c2)
        result = rs.brute_force_nash(inst, grid_step=0.5, eps=1e-15)
        assert len(result) == 0
        assert result.searched_pairs == 9
        # with a generous threshold the same grid keeps its best pairs
        loose = rs.brute_force_nash(inst, grid_step=0.5, eps=0.5)
        assert len(loose) > 0
        assert loose[0].max_gap <= 0.5

    def test_cost_shift_past_overflow_shifts_values(self, g2):
        # every cost component + k/2, so each cost is + k and every value
        # + theta*k; e^{theta*c} ~ e^800 is beyond the float range
        k = 800.0 / g2.theta
        a = g2.arat
        shifted = rs.assemble_from_arat(
            rs.AratStructure(
                p1=a.p1, p2=a.p2, c11=a.c11 + k / 2, c21=a.c21 + k / 2,
                c12=a.c12 + k / 2, c22=a.c22 + k / 2,
            ),
            theta=g2.theta, anchor_state=g2.anchor_state,
        )
        base = rs.brute_force_nash(g2, grid_step=0.25, eps=0.3)
        high = rs.brute_force_nash(shifted, grid_step=0.25, eps=0.3)
        assert high.existence_guaranteed

        def by_pair(result):
            return {(c.Phi.rows.tobytes(), c.Psi.rows.tobytes()): c for c in result}

        base_pairs, high_pairs = by_pair(base), by_pair(high)
        assert len(base_pairs) == len(base) > 3
        assert high_pairs.keys() == base_pairs.keys()
        for key, c in base_pairs.items():
            h = high_pairs[key]
            assert h.eps1 == pytest.approx(c.eps1, abs=1e-9)
            assert h.eps2 == pytest.approx(c.eps2, abs=1e-9)
            assert h.J1 == pytest.approx(c.J1 + 800.0, abs=1e-9)
            assert h.J2 == pytest.approx(c.J2 + 800.0, abs=1e-9)
        # the oracles check brute force's certificates past the overflow
        assert rs.verify_certificate(shifted, high[0], eps=0.05)
        phi, psi = rs.uniform_strategy(g2, 1), rs.uniform_strategy(g2, 2)
        cert, cert_high = rs.epsilon_gap(g2, phi, psi), rs.epsilon_gap(shifted, phi, psi)
        for field, shift in (("J1", 800.0), ("J2", 800.0), ("rho1_star", 800.0),
                             ("rho2_star", 800.0), ("eps1", 0.0), ("eps2", 0.0)):
            want = getattr(cert, field) + shift
            assert getattr(cert_high, field) == pytest.approx(want, abs=1e-9), field
        for player in (1, 2):
            assert rs.ergodic_cost(shifted, player, phi, psi) == pytest.approx(
                rs.ergodic_cost(g2, player, phi, psi) + 800.0, abs=1e-9)
            growth = rs.finite_horizon_growth(shifted, player, phi, psi, 0, 5)
            assert growth == pytest.approx(
                rs.finite_horizon_growth(g2, player, phi, psi, 0, 5) + 800.0, abs=1e-9)
            for x in range(2):
                rows = (x, phi.rows[x], psi.rows[x])
                high_c_hat, _ = rs.normalized_kernel(shifted, player, *rows)
                c_hat, _ = rs.normalized_kernel(g2, player, *rows)
                assert high_c_hat == pytest.approx(c_hat + 800.0, abs=1e-9)

    def test_three_states_match_oracles(self):
        inst = rs.random_instance(5, dims=(3, 2, 2))
        result = rs.brute_force_nash(inst, grid_step=0.5, eps=0.1)
        assert result.searched_pairs == 729
        assert len(result) > 0
        for c in result:
            fresh = rs.epsilon_gap(inst, c.Phi, c.Psi)
            assert c.J1 == pytest.approx(rs.ergodic_cost(inst, 1, c.Phi, c.Psi), abs=1e-9)
            assert c.J2 == pytest.approx(rs.ergodic_cost(inst, 2, c.Phi, c.Psi), abs=1e-9)
            assert c.eps1 == pytest.approx(fresh.eps1, abs=1e-9)
            assert c.eps2 == pytest.approx(fresh.eps2, abs=1e-9)

    def test_two_state_root_near_degenerate_eigenvalues(self):
        # one action each, twisted matrix [[1, 2e-3], [1e-3, 1]]: eigenvalues
        # 1 +- 1.4e-3, so power iteration crawls at ratio ~0.997
        q = np.array([[1.0, 2e-3], [1e-3, 1.0]])
        rows = q.sum(axis=1)
        t = (q / rows[:, None])[:, None, None, :]
        c = np.log(rows)[:, None, None]
        inst = rs.GameInstance(t, c, c)
        (cert,) = rs.brute_force_nash(inst, grid_step=0.5, eps=1.0)
        log_q = rs.twisted_matrix(inst, 1, cert.Phi, cert.Psi)
        ln_r, _ = rs.perron_value(log_q, inst.anchor_state)
        assert cert.J1 == pytest.approx(ln_r, abs=1e-9)
        assert cert.J1 == pytest.approx(np.log(np.linalg.eigvals(q).real.max()), abs=1e-13)


class TestCertificateSerialization:
    def test_roundtrip(self, g2, g2_uniform):
        phi, psi = g2_uniform
        cert = rs.epsilon_gap(g2, phi, psi)
        back = json.loads(dumps_decimal(certificate_to_dict(cert)))
        for field in ("J1", "J2", "rho1_star", "rho2_star", "eps1", "eps2"):
            assert back[field] == getattr(cert, field), field
        assert_allclose(back["phi"]["rows"], cert.Phi.rows)
        assert back["converged"] == cert.converged
        assert "cycle" not in back and cert.cycle is None
