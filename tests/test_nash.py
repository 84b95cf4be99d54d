import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsgame as rs
from rsgame import nash, spectral
from rsgame.game_model import dumps_decimal
from rsgame.nash import _simplex_grid, certificate_to_dict

from helpers import corpus_instance, random_pair

# BruteForceResult's survivor columns, and the certificate fields they fill
RESULT_COLUMNS = ("phi_index", "psi_index", "J1", "J2", "rho1_star", "rho2_star",
                  "eps1", "eps2")
CERTIFICATE_FIELDS = ("J1", "J2", "rho1_star", "rho2_star", "eps1", "eps2",
                      "rounds", "converged", "cycle")

#: best_response_dynamics on random_instance(seed, (50, 4, 4), 0.002, arat_flag=True)
#: for five seeds whose pure best responses cycle, recorded before the pure stage
#: existed: rounds, converged, the float.hex of J1, J2, rho1_star, rho2_star, eps1
#: and eps2, and rows_digest of the pair
CYCLERS = {
    3014952562: (41, True, "0x1.78517cefcd8c8p-2 0x1.7bd5beb02f568p-2 0x1.785175cd7d905p-2 "
                 "0x1.7bd587c49afe3p-2 0x1.c893ff0c00000p-24 0x1.b75ca2c280000p-21",
                 "cb755dffabb17bf9"),
    392971717: (40, True, "0x1.40f5f26cc1960p-2 0x1.668f2dde9fc0cp-2 0x1.40f5ce4ed4130p-2 "
                "0x1.668ef26164fd7p-2 0x1.20ef6c1800000p-21 0x1.dbe9d61a80000p-21",
                "89cd3e9597a22f5b"),
    4275914066: (42, True, "0x1.63ef7114d1e68p-2 0x1.8c76034cc2448p-2 0x1.63ef66dc3cbd5p-2 "
                 "0x1.8c75cc5a908a3p-2 0x1.4712a52600000p-23 0x1.b7918dd280000p-21",
                 "10e0793fd22db5bc"),
    2607653292: (500, False, "0x1.5b29098eb3300p-2 0x1.3b618a6230980p-2 0x1.5b28b231cb09ap-2 "
                 "0x1.3b61119e4680dp-2 0x1.5d73a09980000p-20 0x1.e30fa85cc0000p-20",
                 "f42d5a51bea75626"),
    2499358252: (500, False, "0x1.4ce565c70510cp-2 0x1.81144868a1e30p-2 0x1.4ce4e416209a2p-2 "
                 "0x1.8113aac991e5ep-2 0x1.0361c8ed40000p-19 0x1.3b3e1ffa40000p-19",
                 "5614c1dfd3f419a5"),
}

# Deviation gaps of the uniform pair on the bundled fixture, frozen from a
# converged high-precision run.
G2_EPS1_UNIFORM = 0.13640524757026357
G2_EPS2_UNIFORM = 0.29219861007968612


def count_kernel_builds(monkeypatch) -> list:
    """Record every log_twisted_tensor call, at each module that binds it,
    every twisted_matrix kernel, which spectral builds from _log_kernel, and
    every table-route solve kernel, which bellman builds from _table_side."""
    calls = []

    def counted(original):
        def call(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)
        return call

    for module in (rs.bellman, nash):
        monkeypatch.setattr(module, "log_twisted_tensor", counted(rs.log_twisted_tensor))
    monkeypatch.setattr(rs.spectral, "_log_kernel", counted(rs.spectral._log_kernel))
    monkeypatch.setattr(rs.bellman, "_table_side", counted(rs.bellman._table_side))
    return calls


def rows_digest(cert) -> str:
    """The first 16 hex digits of the sha256 of Phi's then Psi's float64 rows."""
    return hashlib.sha256(cert.Phi.rows.tobytes() + cert.Psi.rows.tobytes()).hexdigest()[:16]


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
    """A solve is the player's best-response set against the opponent."""

    def test_fixture_vs_uniform(self, g2, g2_uniform):
        phi, _ = g2_uniform
        solve = rs.solve_optimality(g2, 2, phi)
        assert solve.rho == pytest.approx(0.26999347135527801, abs=1e-12)
        assert [list(t) for t in solve.tied_actions()] == [[1], [1]]
        response = rs.pure_strategy(g2, 2, solve.selector)
        assert_allclose(response.rows, [[0.0, 1.0], [0.0, 1.0]])
        assert solve.contains(response)
        assert not solve.contains(rs.uniform_strategy(g2, 2))
        assert not solve.contains(rs.pure_strategy(g2, 2, [0, 1]))

    def test_membership_allows_mixing_over_ties(self, g2):
        # duplicate player 2's optimal column so two pure actions tie exactly
        t = np.concatenate([g2.transition, g2.transition[:, :, 1:2]], axis=2)
        c1 = np.concatenate([g2.cost1, g2.cost1[:, :, 1:2]], axis=2)
        c2 = np.concatenate([g2.cost2, g2.cost2[:, :, 1:2]], axis=2)
        inst = rs.GameInstance(t, c1, c2)
        solve = rs.solve_optimality(inst, 2, rs.uniform_strategy(inst, 1))
        assert [list(ti) for ti in solve.tied_actions()] == [[1, 2], [1, 2]]
        mixed = rs.StationaryStrategy(
            2, np.array([[0.0, 0.4, 0.6], [0.0, 0.7, 0.3]])
        )
        assert solve.contains(mixed)
        # any strategy supported on a tied set attains the optimal value
        assert rs.ergodic_cost(
            inst, 2, rs.uniform_strategy(inst, 1), mixed
        ) == pytest.approx(solve.rho, abs=1e-9)

    def test_decoupled_reply_ignores_opponent(self):
        inst = decoupled_instance()
        rng = np.random.default_rng(3)
        phi_a, _ = random_pair(inst, rng)
        phi_b, _ = random_pair(inst, rng)
        solve_a = rs.solve_optimality(inst, 2, phi_a)
        solve_b = rs.solve_optimality(inst, 2, phi_b)
        assert solve_a.rho == pytest.approx(solve_b.rho, abs=1e-11)
        assert list(solve_a.selector) == list(solve_b.selector)

    def test_membership_refuses_the_other_player_or_a_misfit(self, g2, g2_uniform):
        phi, psi = g2_uniform
        solve = rs.solve_optimality(g2, 2, phi)
        with pytest.raises(ValueError, match="belongs to player 1, expected player 2"):
            solve.contains(phi)
        with pytest.raises(ValueError, match="do not match the instance"):
            solve.contains(rs.StationaryStrategy(2, np.full((3, 2), 0.5)))
        with pytest.raises(ValueError, match="do not match the instance"):
            solve.contains(rs.StationaryStrategy(2, np.full((2, 3), 1 / 3)))
        assert not hasattr(rs, "best_response") and not hasattr(rs, "BestResponse")
        assert not hasattr(nash, "best_response") and not hasattr(nash, "BestResponse")


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

    def test_builds_one_kernel_per_player(self, monkeypatch):
        inst = corpus_instance(4, dims=(5, 3, 2))
        phi, psi = random_pair(inst, np.random.default_rng(4))
        calls = count_kernel_builds(monkeypatch)
        rs.epsilon_gap(inst, phi, psi)
        assert len(calls) == 2

    def test_values_match_the_independent_oracles(self):
        rng = np.random.default_rng(29)
        for seed in range(6):
            inst = corpus_instance(seed, arat=seed % 2 == 1)
            phi, psi = random_pair(inst, rng)
            cert = rs.epsilon_gap(inst, phi, psi)
            # the best-response values are the solver's own, bit for bit
            assert cert.rho1_star == rs.solve_optimality(inst, 1, psi).rho
            assert cert.rho2_star == rs.solve_optimality(inst, 2, phi).rho
            # J_i mixes in a different order than the doubly mixed kernel
            for j, player in ((cert.J1, 1), (cert.J2, 2)):
                oracle = rs.ergodic_cost(inst, player, phi, psi)
                assert abs(j - oracle) <= 8 * np.spacing(max(1.0, abs(oracle)))

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
        refusals = ((float("inf"), "eps must be finite and >= 0, got inf"),
                    (True, "eps must be a real number, got True"),
                    (float("nan"), "eps must be finite and >= 0, got nan"))
        for eps, message in refusals:
            with pytest.raises(ValueError) as raised:
                rs.verify_certificate(g2, cert, eps=eps)
            assert str(raised.value) == message

    def test_tampered_values_are_rejected(self, g2):
        phi = rs.pure_strategy(g2, 1, [0, 0])
        psi = rs.pure_strategy(g2, 2, [1, 1])
        cert = rs.epsilon_gap(g2, phi, psi)
        assert rs.verify_certificate(g2, cert, eps=1e-8)
        for field in ("J1", "J2", "rho1_star", "rho2_star", "eps1", "eps2"):
            forged = dataclasses.replace(cert, **{field: getattr(cert, field) + 1e-3})
            assert not rs.verify_certificate(g2, forged, eps=1e-8)

    def test_value_off_by_a_millionth_is_refused(self):
        inst = corpus_instance(7, dims=(4, 3, 3))
        phi, psi = random_pair(inst, np.random.default_rng(7))
        cert = rs.epsilon_gap(inst, phi, psi)
        assert rs.verify_certificate(inst, cert, eps=cert.max_gap + 1e-9)
        forged = dataclasses.replace(cert, J1=cert.J1 + 1e-6)
        assert not rs.verify_certificate(inst, forged, eps=cert.max_gap + 1e-9)


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

    def test_decoupled_game_converges_to_the_independent_optima(self):
        inst = decoupled_instance()
        cert = rs.best_response_dynamics(inst, eps_target=1e-9)
        assert cert.converged and cert.stage == "pure"
        assert cert.rounds <= 30
        assert cert.max_gap <= 1e-9
        assert rs.verify_certificate(inst, cert, eps=1e-9)
        # the pure responses reach both players' independent optima
        for strategy, solve in ((cert.Phi, rs.solve_optimality(inst, 1, cert.Psi)),
                                (cert.Psi, rs.solve_optimality(inst, 2, cert.Phi))):
            assert np.all(strategy.rows.max(axis=1) >= 1 - 1e-8)
            heaviest = rs.pure_strategy(inst, strategy.player, strategy.rows.argmax(axis=1))
            assert solve.contains(heaviest)

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

    def test_snapped_pure_pair_certifies_when_the_rounds_run_out(self, g2):
        # with no rounds neither stage plays: the mixed starting pair misses
        # the target, and its argmax pure pair, g2's equilibrium, is the snap
        phi = rs.StationaryStrategy(1, [[0.9, 0.1], [0.6, 0.4]])
        psi = rs.StationaryStrategy(2, [[0.2, 0.8], [0.3, 0.7]])
        assert rs.epsilon_gap(g2, phi, psi).max_gap > nash.DEFAULT_EPS_TARGET
        cert = rs.best_response_dynamics(g2, init_pair=(phi, psi), max_rounds=0)
        assert cert.converged and cert.stage == "snap"
        assert cert.rounds == 0 and cert.cycle is None
        assert cert.max_gap <= nash.DEFAULT_EPS_TARGET
        assert cert.Phi.rows.tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert cert.Psi.rows.tolist() == [[0.0, 1.0], [0.0, 1.0]]
        assert rs.verify_certificate(g2, cert, nash.DEFAULT_EPS_TARGET)

    def test_the_former_snap_instance_certifies_in_the_pure_stage(self):
        # the logit dynamics reach this instance's pure equilibrium only by
        # the snap after 500 rounds; pure best responses reach the same pair
        # in 2, with the snapped certificate's values
        inst = rs.random_instance(2323222959, dims=(50, 4, 4), min_prob=0.002, arat_flag=True)
        cert = rs.best_response_dynamics(inst)
        assert cert.converged and cert.stage == "pure"
        assert cert.rounds == 2
        assert cert.cycle is None
        snapped = ("0x1.691e9c8f75210p-2", "0x1.6599ddb603240p-2", "0x1.691e9c8f75215p-2",
                   "0x1.6599ddb60323cp-2", "-0x1.4000000000000p-52", "0x1.0000000000000p-52")
        assert tuple(float(getattr(cert, name)).hex()
                     for name in CERTIFICATE_FIELDS[:6]) == snapped
        assert rows_digest(cert) == "cc22053bc669b224"
        assert rs.verify_certificate(inst, cert, nash.DEFAULT_EPS_TARGET)

    def test_the_report_corpus_det_instance_certifies_in_the_pure_stage(self):
        # tools/report_hashes.py runs eval --mc on this pair as its pure pair
        inst = rs.random_instance(3, dims=(40, 5, 5), min_prob=0.002, arat_flag=True)
        cert = rs.best_response_dynamics(inst)
        assert cert.converged and cert.stage == "pure"
        assert np.all(cert.Phi.rows.max(axis=1) == 1.0)
        assert np.all(cert.Psi.rows.max(axis=1) == 1.0)

    @pytest.mark.parametrize("seed", sorted(CYCLERS))
    def test_a_cycle_of_pure_responses_falls_back_to_the_logit_dynamics(self, seed):
        inst = rs.random_instance(seed, dims=(50, 4, 4), min_prob=0.002, arat_flag=True)
        cert = rs.best_response_dynamics(inst)
        rounds, converged, values, digest = CYCLERS[seed]
        assert cert.stage == "dynamics" and cert.cycle is None
        assert (cert.rounds, cert.converged) == (rounds, converged)
        assert " ".join(float(getattr(cert, name)).hex()
                        for name in CERTIFICATE_FIELDS[:6]) == values
        assert rows_digest(cert) == digest

    def test_a_snap_that_misses_the_target_keeps_the_best_pair(self):
        inst = rs.random_instance(2607653292, dims=(50, 4, 4), min_prob=0.002, arat_flag=True)
        cert = rs.best_response_dynamics(inst)
        assert not cert.converged and cert.stage == "dynamics"
        assert cert.cycle is None
        # the best pair the dynamics played, mixed, and its own certificate
        assert cert.max_gap == pytest.approx(1.7995430631745357e-06, rel=1e-9)
        assert not np.all(cert.Phi.rows.max(axis=1) == 1.0)
        fresh = rs.epsilon_gap(inst, cert.Phi, cert.Psi)
        for name in CERTIFICATE_FIELDS[:6]:
            assert getattr(cert, name) == getattr(fresh, name), name

    def test_warm_start_from_equilibrium_stays_put(self, g2):
        phi = rs.pure_strategy(g2, 1, [0, 0])
        psi = rs.pure_strategy(g2, 2, [1, 1])
        cert = rs.best_response_dynamics(g2, init_pair=(phi, psi))
        assert cert.converged
        assert cert.rounds == 0
        assert_allclose(cert.Phi.rows, phi.rows)

    def test_a_round_builds_two_kernels(self, monkeypatch):
        inst = corpus_instance(3, dims=(4, 3, 3))
        calls = count_kernel_builds(monkeypatch)
        counts = []
        for rounds in (1, 3, 6):
            calls.clear()
            cert = rs.best_response_dynamics(inst, eps_target=1e-15, max_rounds=rounds)
            assert not cert.converged and cert.rounds == rounds
            counts.append(len(calls))
        # entry certificate (2) and player 1's first response (1), then 2 a
        # pure round, 2 a logit round, and the snapped pair's certificate (2)
        # once the rounds run out; the pure rounds stop at the cap, or at
        # round 4, where player 1's selector repeats
        assert counts == [2 + 1 + 2 + 2 + 2, 2 + 1 + 6 + 6 + 2, 2 + 1 + 8 + 12 + 2]

    def test_round_values_match_the_independent_oracles(self):
        inst = corpus_instance(3, dims=(4, 3, 3))
        for rounds in (1, 4):
            cert = rs.best_response_dynamics(inst, eps_target=1e-15, max_rounds=rounds)
            fresh = rs.epsilon_gap(inst, cert.Phi, cert.Psi)
            assert cert.rho1_star == fresh.rho1_star
            assert cert.rho2_star == fresh.rho2_star
            assert cert.J1 == fresh.J1 and cert.J2 == fresh.J2
            for j, player in ((cert.J1, 1), (cert.J2, 2)):
                oracle = rs.ergodic_cost(inst, player, cert.Phi, cert.Psi)
                assert abs(j - oracle) <= 8 * np.spacing(max(1.0, abs(oracle)))

    def test_parameter_validation(self, g2):
        with pytest.raises(ValueError):
            rs.best_response_dynamics(g2, eps_target=0.0)
        with pytest.raises(ValueError) as raised:
            rs.best_response_dynamics(g2, max_rounds=-1)
        assert str(raised.value) == "max_rounds must be >= 0, got -1"
        exact = [
            ({"max_rounds": 1.5}, "max_rounds must be an integer, got 1.5"),
            ({"eps_target": True}, "eps_target must be a real number, got True"),
        ]
        for kwargs, message in exact:
            with pytest.raises(ValueError) as raised:
                rs.best_response_dynamics(g2, **kwargs)
            assert str(raised.value) == message, kwargs
        for value, shown in ((float("nan"), "nan"), (float("inf"), "inf"), (-1.0, "-1.0")):
            refusals = [
                (rs.best_response_dynamics, {"eps_target": value}, "eps_target", "> 0"),
                (rs.brute_force_nash, {"eps": value}, "eps", ">= 0"),
            ]
            for search, kwargs, name, bound in refusals:
                with pytest.raises(ValueError) as raised:
                    search(g2, **kwargs)
                assert str(raised.value) == f"{name} must be finite and {bound}, got {shown}"
        for step, message in ((True, "grid_step must be a real number, got True"),
                              (0.0, "grid_step must be in (0, 1], got 0.0"),
                              (float("nan"), "grid_step must be in (0, 1], got nan"),
                              (1.5, "grid_step must be in (0, 1], got 1.5")):
            with pytest.raises(ValueError) as raised:
                rs.brute_force_nash(g2, grid_step=step)
            assert str(raised.value) == message

    def test_search_constants_are_not_arguments(self, g2):
        """The stopping tolerance, the damping and the temperature schedule are constants."""
        phi, psi = rs.uniform_strategy(g2, 1), rs.uniform_strategy(g2, 2)
        removed = [
            (rs.solve_optimality, (g2, 1, psi), "tol", 1e-12),
            (rs.epsilon_gap, (g2, phi, psi), "tol", 1e-12),
            (rs.best_response_dynamics, (g2,), "tol", 1e-12),
            (rs.best_response_dynamics, (g2,), "beta", nash.BETA),
            (rs.best_response_dynamics, (g2,), "tau_schedule",
             (nash.TAU0, nash.TAU_MIN, nash.TAU_DECAY)),
            (rs.brute_force_nash, (g2,), "tol", 1e-12),
            (rs.perron_value, (np.zeros((3, 3)),), "tol", 1e-12),
        ]
        for function, args, keyword, value in removed:
            with pytest.raises(TypeError, match=keyword):
                function(*args, **{keyword: value})


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

    @pytest.mark.parametrize("step", [0.0, -0.0, float("nan"), float("inf"), -0.5, 2.0])
    def test_step_outside_unit_interval_is_rejected_before_dividing(self, step):
        with pytest.raises(ValueError, match="must evenly divide 1"):
            _simplex_grid(2, step)


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

    def test_result_is_a_best_first_sequence(self, g2, monkeypatch):
        # blocks of two make iteration cross block boundaries
        monkeypatch.setattr(nash, "_CERTIFICATE_BLOCK", 2)
        result = rs.brute_force_nash(g2, grid_step=0.25, eps=0.3)
        n = len(result)
        assert n > 5
        listed, sliced = list(result), result[:]
        assert len(listed) == len(sliced) == n

        def same(a, b):
            assert a.Phi.rows.tobytes() == b.Phi.rows.tobytes()
            assert a.Psi.rows.tobytes() == b.Psi.rows.tobytes()
            for name in CERTIFICATE_FIELDS:
                assert getattr(a, name) == getattr(b, name), name

        for a, b in zip(listed, sliced):
            same(a, b)
        same(result[0], listed[0])
        same(result[-1], listed[n - 1])
        same(result[np.int64(3)], listed[3])
        window = result[2:5]
        assert len(window) == 3
        for a, b in zip(window, listed[2:5]):
            same(a, b)
        assert [c.J1 for c in result[::-2]] == [c.J1 for c in listed[::-2]]
        # the columns hold the certificates' values, best first
        assert [c.eps2 for c in listed] == result.eps2.tolist()
        gaps = np.maximum(result.eps1, result.eps2)
        assert np.all(gaps[:-1] <= gaps[1:])
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                result[k]

    @pytest.mark.parametrize("states", [2, 3])
    def test_chunk_tiling_keeps_the_result(self, g2, states, monkeypatch):
        if states == 2:
            inst, step = g2, 0.25
        else:
            inst, step = rs.random_instance(5, dims=(3, 2, 2)), 0.5
        base = rs.brute_force_nash(inst, grid_step=step, eps=0.1)
        assert len(base) > 5
        n_phi, n_psi = len(base.maps_a), len(base.maps_b)
        # the pairs for both players, then each player's pure maps against
        # every map of the other: A^X * s2 roots for rho1*, s1 * B^X for rho2*
        pure_roots = (inst.n_actions_a ** inst.n_states * n_psi
                      + n_phi * inst.n_actions_b ** inst.n_states)
        batches = []
        perron = spectral._log_perron

        def recorded(log_q, anchor):
            batches.append(log_q.shape[0])
            return perron(log_q, anchor)

        monkeypatch.setattr(spectral, "_log_perron", recorded)
        # below the Psi map count Psi is tiled; above it, whole Phi rows
        for chunk in (2, 7, n_psi - 1, n_psi, n_psi + 1, 3 * n_psi + 2):
            monkeypatch.setattr(nash, "CHUNK_PAIRS", chunk)
            batches.clear()
            tiled = rs.brute_force_nash(inst, grid_step=step, eps=0.1)
            assert sum(batches) == 2 * tiled.searched_pairs + pure_roots
            assert max(batches) <= chunk
            assert tiled.phi_index.tobytes() == base.phi_index.tobytes()
            assert tiled.psi_index.tobytes() == base.psi_index.tobytes()
            # closed-form roots at two states, and power iteration that stops
            # each pair on its own bracket above: pair by pair either way
            for name in RESULT_COLUMNS[2:]:
                assert getattr(tiled, name).tobytes() == getattr(base, name).tobytes()

    def test_survivor_gaps_are_never_negative(self):
        # a best-response value is the least pure-map root of the same root
        # finder, so no grid pair's value can fall below it
        inst = rs.random_instance(1, dims=(2, 2, 2), min_prob=0.02, arat_flag=True)
        result = rs.brute_force_nash(inst, grid_step=0.05, eps=0.05)
        assert len(result) > 1000
        assert result.eps1.min() >= 0.0 and result.eps2.min() >= 0.0
        # the best pair is pure, and its gaps are 0 exactly
        assert result[0].max_gap == 0.0

    @pytest.mark.parametrize("states", [2, 3])
    def test_best_response_values_match_single_solves(self, g2, states):
        if states == 2:
            inst, step = g2, 0.25
        else:
            inst, step = rs.random_instance(5, dims=(3, 2, 2)), 0.5
        # every pair survives, so every map's best-response value is reported
        result = rs.brute_force_nash(inst, grid_step=step, eps=100.0)
        assert len(result) == result.searched_pairs
        rng = np.random.default_rng(states)
        for k in rng.choice(len(result), size=20, replace=False):
            i, j = int(result.phi_index[k]), int(result.psi_index[k])
            psi = rs.StationaryStrategy(2, result.maps_b[j])
            phi = rs.StationaryStrategy(1, result.maps_a[i])
            assert abs(result.rho1_star[k] - rs.solve_optimality(inst, 1, psi).rho) <= 1e-11
            assert abs(result.rho2_star[k] - rs.solve_optimality(inst, 2, phi).rho) <= 1e-11

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

    def test_existence_label_reads_only_the_decomposition_checks(self, g2, monkeypatch):
        t = g2.transition.copy()
        t[:, :, :, 0] += 0.01
        t[:, :, :, 1] -= 0.01
        cases = {
            "verified": g2,
            "transition split broken": rs.GameInstance(t, g2.cost1, g2.cost2, arat=g2.arat),
            "cost split broken": rs.GameInstance(
                g2.transition, g2.cost1 + 0.05, g2.cost2, arat=g2.arat),
            "no decomposition": rs.GameInstance(g2.transition, g2.cost1, g2.cost2),
        }
        labels = {}
        for name, inst in cases.items():
            checks = rs.validate(inst).checks
            labels[name] = checks["4.1"].status == checks["4.2"].status == "PASS"

        def refuse(*args, **kwargs):
            raise AssertionError("brute force ran all of validate")

        monkeypatch.setattr(nash, "validate", refuse)
        for name, inst in cases.items():
            result = rs.brute_force_nash(inst, grid_step=0.5, eps=1.0)
            assert result.existence_guaranteed is labels[name], name
        assert list(labels.values()) == [True, False, False, False]

    def test_grid_size_guard(self, g2):
        with pytest.raises(ValueError, match="grid"):
            rs.brute_force_nash(g2, grid_step=0.01, eps=0.05)
        with pytest.raises(ValueError):
            rs.brute_force_nash(g2, grid_step=0.3, eps=0.05)

    def test_grid_size_guard_fires_before_the_maps_are_built(self):
        # 3**12 maps per player: refused without enumerating any of them
        inst = rs.random_instance(0, dims=(12, 2, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="531441 x 531441"):
                rs.brute_force_nash(inst, grid_step=0.5, eps=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_empty_result_when_no_grid_pair_qualifies(self):
        # matching-pennies-style costs put the only equilibrium strictly
        # inside the simplex, off the half-step grid
        t = np.ones((1, 2, 2, 1))
        c1 = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        c2 = np.array([[[1.2, 0.0], [0.0, 0.7]]])
        inst = rs.GameInstance(t, c1, c2)
        result = rs.brute_force_nash(inst, grid_step=0.5, eps=1e-15)
        assert len(result) == 0 and not result
        assert list(result) == [] and result[:] == []
        for k in (0, -1):
            with pytest.raises(IndexError):
                result[k]
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

    def test_opponent_action_cost_gap_past_overflow(self, g2):
        # player 1 pays 800/theta more whenever Psi plays its second action,
        # so a mixed kernel row spans e^800 between its terms
        k = 800.0 / g2.theta
        a = g2.arat
        inst = rs.assemble_from_arat(
            dataclasses.replace(a, c12=a.c12 + k * np.array([0.0, 1.0])),
            theta=g2.theta, anchor_state=g2.anchor_state,
        )
        assert_allclose(inst.theta * (inst.cost1 - g2.cost1)[..., 1], 800.0)
        assert_allclose(inst.cost1[..., 0], g2.cost1[..., 0])
        result = rs.brute_force_nash(inst, grid_step=0.25, eps=0.3)
        assert result.existence_guaranteed
        assert len(result) > 3
        for c in result:
            fresh = rs.epsilon_gap(inst, c.Phi, c.Psi)
            for name in CERTIFICATE_FIELDS[:6]:
                value = getattr(c, name)
                assert np.isfinite(value), name
                assert value == pytest.approx(getattr(fresh, name), abs=1e-9), name
            assert c.J1 == pytest.approx(rs.ergodic_cost(inst, 1, c.Phi, c.Psi), abs=1e-9)
            assert c.J2 == pytest.approx(rs.ergodic_cost(inst, 2, c.Phi, c.Psi), abs=1e-9)

    def test_pair_kernels_are_twisted_matrices(self, g2, monkeypatch):
        kernels = []
        perron = spectral._log_perron

        def recorded(log_q, anchor):
            kernels.append(log_q.copy())
            return perron(log_q, anchor)

        monkeypatch.setattr(spectral, "_log_perron", recorded)
        result = rs.brute_force_nash(g2, grid_step=0.25, eps=0.05)
        maps_a, maps_b = result.maps_a, result.maps_b
        # pure maps play a simplex vertex in every state
        pure_a = np.flatnonzero((maps_a.max(axis=-1) == 1.0).all(axis=-1))
        pure_b = np.flatnonzero((maps_b.max(axis=-1) == 1.0).all(axis=-1))
        assert len(pure_a) == len(pure_b) == 4
        all_a, all_b = np.arange(len(maps_a)), np.arange(len(maps_b))
        # rho1*'s pure Phi maps, rho2*'s pure Psi maps, then every pair per player
        batches = [(1, pure_a, all_b), (2, all_a, pure_b), (1, all_a, all_b), (2, all_a, all_b)]
        assert [len(k) for k in kernels] == [len(a) * len(b) for _, a, b in batches]
        assert len(kernels[2]) == result.searched_pairs
        rng = np.random.default_rng(0)
        for (player, index_a, index_b), kernel in zip(batches, kernels):
            for k in rng.choice(len(kernel), size=min(40, len(kernel)), replace=False):
                a, b = divmod(int(k), len(index_b))
                i, j = index_a[a], index_b[b]
                want = rs.twisted_matrix(
                    g2, player, rs.StationaryStrategy(1, maps_a[i]),
                    rs.StationaryStrategy(2, maps_b[j]),
                )
                ulps = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(kernel[k] - want) <= ulps), (player, i, j)

    def test_peak_memory_stays_below_four_chunk_kernels(self, g2):
        rs.brute_force_nash(g2, grid_step=0.5, eps=0.05)  # warm imports and caches
        tracemalloc.start()
        try:
            result = rs.brute_force_nash(g2, grid_step=0.05, eps=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kernel_bytes = result.searched_pairs * g2.n_states ** 2 * 8
        assert result.searched_pairs <= nash.CHUNK_PAIRS  # one chunk holds every pair
        assert peak < 4 * kernel_bytes

    def test_closed_form_roots_in_four_pair_buffers(self):
        rng = np.random.default_rng(8)
        pairs = 40_000
        log_q = rng.normal(size=(pairs, 2, 2)) * rng.choice([1e-3, 1.0, 30.0, 1e3], (pairs, 1, 1))
        a, b, c, d = log_q[:, 0, 0], log_q[:, 0, 1], log_q[:, 1, 0], log_q[:, 1, 1]
        m = np.maximum(np.maximum(a, d), 0.5 * (b + c))
        ea, ed = np.exp(a - m), np.exp(d - m)
        want = m + np.log(0.5 * (ea + ed) + np.sqrt(0.25 * (ea - ed) ** 2 + np.exp(b + c - 2 * m)))
        tracemalloc.start()
        try:
            got = spectral._log_perron(log_q, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak <= 4 * pairs * 8 + 4096

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
