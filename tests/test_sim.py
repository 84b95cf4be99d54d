import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import rsgame as rs

from helpers import corpus_instance, mix_transition, random_pair


def deterministic_cycle_instance():
    """Two states that alternate deterministically; costs depend on state."""
    t = np.zeros((2, 1, 1, 2))
    t[0, 0, 0, 1] = 1.0
    t[1, 0, 0, 0] = 1.0
    c1 = np.array([[[0.25]], [[0.75]]])
    c2 = np.array([[[1.0]], [[0.5]]])
    return rs.GameInstance(t, c1, c2)


class TestSamplePath:
    def test_deterministic_chain_walks_the_cycle(self):
        inst = deterministic_cycle_instance()
        phi = rs.uniform_strategy(inst, 1)
        psi = rs.uniform_strategy(inst, 2)
        traj = rs.sample_path(inst, phi, psi, x0=0, n=6, seed=5)
        assert_array_equal(traj.states, [0, 1, 0, 1, 0, 1, 0])
        assert_array_equal(traj.actions_a, np.zeros(6, dtype=int))
        # running sums follow the visited costs, starting at zero
        assert_array_equal(
            traj.cost_sums[0], [0.0, 0.25, 1.0, 1.25, 2.0, 2.25, 3.0]
        )
        assert_array_equal(traj.cost_sums[1], [0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 4.5])

    def test_same_seed_same_path(self, g2, g2_uniform):
        phi, psi = g2_uniform
        a = rs.sample_path(g2, phi, psi, x0=1, n=40, seed=9)
        b = rs.sample_path(g2, phi, psi, x0=1, n=40, seed=9)
        assert_array_equal(a.states, b.states)
        assert_array_equal(a.actions_b, b.actions_b)
        assert_array_equal(a.cost_sums, b.cost_sums)
        c = rs.sample_path(g2, phi, psi, x0=1, n=40, seed=10)
        assert not np.array_equal(a.states, c.states)

    def test_path_respects_supports(self):
        inst = corpus_instance(4)
        phi = rs.pure_strategy(inst, 1, np.zeros(inst.n_states, dtype=int))
        psi = rs.uniform_strategy(inst, 2)
        traj = rs.sample_path(inst, phi, psi, x0=0, n=200, seed=3)
        assert traj.states.shape == (201,)
        assert traj.cost_sums.shape == (2, 201)
        assert np.all(traj.actions_a == 0)  # pure strategy never deviates
        for t in range(200):
            x, a, b, y = (
                traj.states[t], traj.actions_a[t], traj.actions_b[t],
                traj.states[t + 1],
            )
            assert inst.transition[x, a, b, y] > 0.0

    def test_state_frequencies_match_mixed_kernel(self, g2, g2_uniform):
        phi, psi = g2_uniform
        traj = rs.sample_path(g2, phi, psi, x0=0, n=60_000, seed=11)
        rows = np.stack([
            mix_transition(g2, x, phi.rows[x], psi.rows[x]) for x in range(2)
        ])
        for x in range(2):
            here = traj.states[:-1] == x
            count = here.sum()
            freq = (traj.states[1:][here] == 0).mean()
            se = np.sqrt(rows[x, 0] * (1.0 - rows[x, 0]) / count)
            assert abs(freq - rows[x, 0]) <= 4.0 * se

    def test_input_validation(self, g2, g2_uniform):
        phi, psi = g2_uniform
        with pytest.raises(ValueError):
            rs.sample_path(g2, phi, psi, x0=0, n=0, seed=1)
        with pytest.raises(ValueError):
            rs.sample_path(g2, phi, psi, x0=5, n=4, seed=1)
        with pytest.raises(ValueError):
            rs.sample_path(g2, psi, phi, x0=0, n=4, seed=1)


class TestMcCostEstimate:
    def test_zero_cost_estimates_zero_exactly(self):
        base = corpus_instance(1)
        z = np.zeros(base.cost1.shape)
        inst = rs.GameInstance(base.transition, z, z)
        est = rs.mc_cost_estimate(
            inst, 1, rs.uniform_strategy(inst, 1), rs.uniform_strategy(inst, 2),
            x=0, n=10, n_paths=64, seed=2,
        )
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_constant_cost_is_noise_free(self):
        inst = deterministic_cycle_instance()
        # both states cost the same so every path sums identically
        c = np.full((2, 1, 1), 0.3)
        inst = rs.GameInstance(inst.transition, c, c, theta=2.0)
        phi = rs.uniform_strategy(inst, 1)
        psi = rs.uniform_strategy(inst, 2)
        est = rs.mc_cost_estimate(inst, 1, phi, psi, x=0, n=7, n_paths=50, seed=8)
        assert est.value == pytest.approx(0.6, rel=1e-13)
        assert est.std_error == pytest.approx(0.0, abs=1e-13)

    def test_deterministic_in_seed(self, g2, g2_uniform):
        phi, psi = g2_uniform
        a = rs.mc_cost_estimate(g2, 2, phi, psi, x=0, n=25, n_paths=500, seed=4)
        b = rs.mc_cost_estimate(g2, 2, phi, psi, x=0, n=25, n_paths=500, seed=4)
        assert a.value == b.value
        assert a.std_error == b.std_error
        assert (a.n_paths, a.horizon, a.seed) == (500, 25, 4)

    def test_estimates_growth_increment_within_three_se(self, g2, g2_uniform):
        phi, psi = g2_uniform
        exact = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=50)
        est = rs.mc_cost_estimate(g2, 2, phi, psi, x=0, n=50, n_paths=10_000, seed=7)
        assert est.std_error > 0.0
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_single_path_has_zero_reported_error(self, g2, g2_uniform):
        phi, psi = g2_uniform
        est = rs.mc_cost_estimate(g2, 2, phi, psi, x=0, n=5, n_paths=1, seed=1)
        assert est.std_error == 0.0

    def test_coverage_over_replicates(self, g2, g2_uniform):
        """The 3-SE interval should cover the exact increment almost always."""
        phi, psi = g2_uniform
        exact = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=20)
        hits = 0
        for rep in range(12):
            est = rs.mc_cost_estimate(
                g2, 2, phi, psi, x=0, n=20, n_paths=2_000, seed=100 + rep
            )
            hits += abs(est.value - exact) <= 3.0 * est.std_error
        assert hits >= 10

    def test_no_material_bias_against_exact_target(self, g2, g2_uniform):
        """Jensen bias is real but should drown in Monte Carlo noise."""
        phi, psi = g2_uniform
        exact = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=20)
        errors = []
        for rep in range(40):
            est = rs.mc_cost_estimate(
                g2, 2, phi, psi, x=0, n=20, n_paths=2_000, seed=500 + rep
            )
            errors.append(est.value - exact)
        errors = np.array(errors)
        mean_se = errors.std(ddof=1) / np.sqrt(len(errors))
        assert abs(errors.mean()) <= 4.0 * mean_se

    def test_input_validation(self, g2, g2_uniform):
        phi, psi = g2_uniform
        with pytest.raises(ValueError):
            rs.mc_cost_estimate(g2, 2, phi, psi, x=0, n=0, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            rs.mc_cost_estimate(g2, 2, phi, psi, x=0, n=5, n_paths=0, seed=1)
        with pytest.raises(ValueError):
            rs.mc_cost_estimate(g2, 3, phi, psi, x=0, n=5, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            rs.mc_cost_estimate(g2, 2, phi, psi, x=9, n=5, n_paths=10, seed=1)


def golden_game(name: str):
    """(instance, Phi, Psi) for the golden sampler tests."""
    if name == "g2":
        g2 = rs.g2_instance()
        return g2, rs.uniform_strategy(g2, 1), rs.uniform_strategy(g2, 2)
    inst = corpus_instance(1)  # 6 states, 3 x 4 actions
    return (inst, *random_pair(inst, np.random.default_rng(3)))


def sha256_of(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


#: sample_path(..., x0=1, n=25, seed=9): states, actions_a, actions_b and the
#: sha256 of the float64 bytes of cost_sums
GOLDEN_PATHS = {
    "g2": (
        [1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1],
        [1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1],
        [0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1],
        "2a5910e8f530d4296ed9381a81c42251e379becd1b3f93e55f68b2ba955b3dcf",
    ),
    "corpus1": (
        [1, 3, 5, 0, 0, 5, 5, 1, 5, 3, 0, 1, 0, 1, 3, 5, 0, 1, 4, 3, 2, 4, 2, 3, 4, 2],
        [1, 2, 2, 2, 0, 2, 0, 0, 2, 2, 2, 1, 1, 0, 2, 2, 2, 0, 2, 1, 2, 1, 2, 1, 1],
        [1, 3, 3, 3, 3, 0, 2, 3, 3, 3, 3, 0, 3, 1, 0, 0, 3, 2, 1, 0, 3, 3, 0, 0, 3],
        "50848f1cf6cc6c2c02c69c6725bd4f7ce5d226304d5ef0b15087dcc5c34d8f83",
    ),
}

#: mc_cost_estimate(..., player, x=1, n=30, n_paths=400, seed=5): value, std_error
GOLDEN_MC = {
    ("g2", 1): (0.5485781977684709, 0.031007049970212305),
    ("g2", 2): (0.6998813435345603, 0.06819001776681796),
    ("corpus1", 1): (0.5502989101257789, 0.041710174454697165),
    ("corpus1", 2): (0.5336668817200767, 0.0375553786750742),
}


class TestStream:
    """Both entry points walk one seeded stream, bit for bit as pinned."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_PATHS))
    def test_sample_path_matches_golden(self, name):
        inst, phi, psi = golden_game(name)
        traj = rs.sample_path(inst, phi, psi, x0=1, n=25, seed=9)
        states, actions_a, actions_b, cost_digest = GOLDEN_PATHS[name]
        assert traj.states.tolist() == states
        assert traj.actions_a.tolist() == actions_a
        assert traj.actions_b.tolist() == actions_b
        assert sha256_of(traj.cost_sums) == cost_digest

    @pytest.mark.parametrize("name, player", sorted(GOLDEN_MC))
    def test_mc_estimate_matches_golden(self, name, player):
        inst, phi, psi = golden_game(name)
        est = rs.mc_cost_estimate(inst, player, phi, psi, x=1, n=30, n_paths=400, seed=5)
        assert (est.value, est.std_error) == GOLDEN_MC[name, player]

    @pytest.mark.parametrize("player", [1, 2])
    def test_one_path_estimate_reads_the_sampled_path(self, player):
        base = corpus_instance(1)
        inst = rs.GameInstance(base.transition, base.cost1, base.cost2, theta=0.7)
        phi, psi = random_pair(inst, np.random.default_rng(8))
        traj = rs.sample_path(inst, phi, psi, x0=2, n=40, seed=11)
        est = rs.mc_cost_estimate(inst, player, phi, psi, x=2, n=40, n_paths=1, seed=11)
        sums = traj.cost_sums[player - 1]
        assert est.value == inst.theta * sums[-1] - inst.theta * sums[-2]

    def test_mc_peak_memory_is_bounded(self, g2, g2_uniform):
        # holding every draw at once would take 200 * 3 * 20_000 * 8 B = 96 MB
        phi, psi = g2_uniform
        tracemalloc.start()
        try:
            rs.mc_cost_estimate(g2, 1, phi, psi, x=0, n=200, n_paths=20_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
