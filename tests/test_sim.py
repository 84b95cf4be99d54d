import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import rsgame as rs
from rsgame import sim

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


def count_rule(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reference draw: the count of cumulative sums <= u, clamped to the last positive index."""
    cum = np.cumsum(probs, axis=-1)
    last = [np.flatnonzero(row)[-1] for row in probs]
    return np.minimum((cum <= u[:, None]).sum(axis=1), last)


class TestDrawRule:
    """The walk picks the first index whose cumulative probability exceeds u."""

    @staticmethod
    def draw(probs, u):
        rows = np.broadcast_to(np.asarray(probs, dtype=float), (len(u), len(probs)))
        u = np.asarray(u, dtype=float)
        got = sim._drawer(rows, len(u))(np.arange(len(u)), u)
        assert_array_equal(got, count_rule(rows, u))
        return got.tolist()

    def test_u_on_a_cumulative_entry_takes_the_next_index(self):
        assert self.draw([0.25, 0.25, 0.5], [0.0, 0.25, 0.5, 0.75]) == [0, 1, 2, 2]

    def test_u_above_a_last_sum_that_rounds_below_one(self):
        probs = np.full(10, 0.1)
        last = np.cumsum(probs)[-1]
        assert last < 1.0
        assert self.draw(probs, [last, np.nextafter(1.0, 0.0)]) == [9, 9]

    def test_trailing_zero_is_never_drawn_above_a_short_last_sum(self):
        probs = [0.1] * 10 + [0.0]
        assert np.cumsum(probs)[-1] < 1.0
        assert self.draw(probs, [np.nextafter(1.0, 0.0)]) == [9]

    def test_zero_entries_are_never_drawn(self):
        probs = [0.0, 0.5, 0.0, 0.5, 0.0]
        assert self.draw(probs, [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)]) == [
            1, 1, 3, 3, 3,
        ]

    def test_pure_rows_draw_their_one_action_for_every_u(self):
        rows = np.eye(5)[[3, 0, 4, 4, 1, 2]]
        u = np.array([0.0, 0.2, 0.5, 0.7, 0.9, np.nextafter(1.0, 0.0)])
        draw = sim._drawer(rows, len(u))
        for r in range(len(rows)):
            got = draw(np.full(len(u), r), u)
            assert_array_equal(got, count_rule(rows[[r] * len(u)], u))
            assert got.tolist() == [[3, 0, 4, 4, 1, 2][r]] * len(u)

    def test_a_mixed_row_keeps_the_table_on_the_search(self):
        pure = np.eye(4)[[2, 0, 3]]
        table = np.vstack([pure, [0.25, 0.25, 0.0, 0.5]])
        u = np.array([0.0, 0.3, 0.6, np.nextafter(1.0, 0.0)])
        draw = sim._drawer(table, len(u))
        # the mixed row draws by its cumulative sums, so its picks vary with u
        mixed = draw(np.full(len(u), 3), u)
        assert mixed.tolist() == [0, 1, 3, 3]
        assert_array_equal(mixed, count_rule(table[[3] * len(u)], u))
        # and the pure rows draw on the search what the lookup draws
        lookup = sim._drawer(pure, len(u))
        for r in range(len(pure)):
            rows = np.full(len(u), r)
            assert_array_equal(draw(rows, u), lookup(rows, u))

    # widths on both sides of a power of two cover the +inf padding; one
    # path per call reuses the scratch buffers across 300 calls
    @pytest.mark.parametrize("n_paths", [1, 300])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 8, 9, 50])
    def test_matches_the_count_rule_on_every_tie(self, width, n_paths):
        rng = np.random.default_rng(4)
        rows = rng.dirichlet(np.ones(width), size=300)
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[:, 0] += rows.sum(axis=1) == 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        ties = np.cumsum(rows, axis=1)  # each u equal to one cumulative entry
        draw = sim._drawer(rows, n_paths)
        r = np.arange(len(rows))
        for j in range(width):
            tie = np.minimum(ties[:, j], np.nextafter(1.0, 0.0))
            for u in (tie, np.nextafter(tie, -1.0)):  # on the tie and just below it
                got = np.concatenate([
                    draw(r[k:k + n_paths], u[k:k + n_paths])
                    for k in range(0, len(rows), n_paths)
                ])
                assert_array_equal(got, count_rule(rows, u))


class TestMcCostEstimate:
    def test_walks_once_for_both_players(self, g2, g2_uniform, monkeypatch):
        walks = []
        walk = sim._walk

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(sim, "_walk", counted)
        estimates = rs.mc_cost_estimate(g2, *g2_uniform, x=0, n=5, n_paths=20, seed=3)
        assert len(walks) == 1
        assert len(estimates) == 2
        assert all(isinstance(e, rs.McEstimate) for e in estimates)

    def test_zero_cost_estimates_zero_exactly(self):
        base = corpus_instance(1)
        z = np.zeros(base.cost1.shape)
        inst = rs.GameInstance(base.transition, z, z)
        estimates = rs.mc_cost_estimate(
            inst, rs.uniform_strategy(inst, 1), rs.uniform_strategy(inst, 2),
            x=0, n=10, n_paths=64, seed=2,
        )
        for est in estimates:
            assert est.value == 0.0
            assert est.std_error == 0.0

    def test_constant_cost_is_noise_free(self):
        inst = deterministic_cycle_instance()
        # both states cost the same so every path sums identically
        c = np.full((2, 1, 1), 0.3)
        inst = rs.GameInstance(inst.transition, c, c, theta=2.0)
        phi = rs.uniform_strategy(inst, 1)
        psi = rs.uniform_strategy(inst, 2)
        for est in rs.mc_cost_estimate(inst, phi, psi, x=0, n=7, n_paths=50, seed=8):
            assert est.value == pytest.approx(0.6, rel=1e-13)
            assert est.std_error == pytest.approx(0.0, abs=1e-13)

    def test_deterministic_in_seed(self, g2, g2_uniform):
        phi, psi = g2_uniform
        first = rs.mc_cost_estimate(g2, phi, psi, x=0, n=25, n_paths=500, seed=4)
        again = rs.mc_cost_estimate(g2, phi, psi, x=0, n=25, n_paths=500, seed=4)
        for a, b in zip(first, again, strict=True):
            assert a.value == b.value
            assert a.std_error == b.std_error
            assert (a.n_paths, a.horizon, a.seed) == (500, 25, 4)

    def test_estimates_growth_increment_within_three_se(self, g2, g2_uniform):
        phi, psi = g2_uniform
        exact = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=50)
        _, est = rs.mc_cost_estimate(g2, phi, psi, x=0, n=50, n_paths=10_000, seed=7)
        assert est.std_error > 0.0
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_single_path_has_zero_reported_error(self, g2, g2_uniform):
        phi, psi = g2_uniform
        for est in rs.mc_cost_estimate(g2, phi, psi, x=0, n=5, n_paths=1, seed=1):
            assert est.std_error == 0.0

    def test_coverage_over_replicates(self, g2, g2_uniform):
        """The 3-SE interval should cover the exact increment almost always."""
        phi, psi = g2_uniform
        exact = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=20)
        hits = 0
        for rep in range(12):
            _, est = rs.mc_cost_estimate(
                g2, phi, psi, x=0, n=20, n_paths=2_000, seed=100 + rep
            )
            hits += abs(est.value - exact) <= 3.0 * est.std_error
        assert hits >= 10

    def test_no_material_bias_against_exact_target(self, g2, g2_uniform):
        """Jensen bias is real but should drown in Monte Carlo noise."""
        phi, psi = g2_uniform
        exact = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=20)
        errors = []
        for rep in range(40):
            _, est = rs.mc_cost_estimate(
                g2, phi, psi, x=0, n=20, n_paths=2_000, seed=500 + rep
            )
            errors.append(est.value - exact)
        errors = np.array(errors)
        mean_se = errors.std(ddof=1) / np.sqrt(len(errors))
        assert abs(errors.mean()) <= 4.0 * mean_se

    def test_input_validation(self, g2, g2_uniform):
        phi, psi = g2_uniform
        with pytest.raises(ValueError):
            rs.mc_cost_estimate(g2, phi, psi, x=0, n=0, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            rs.mc_cost_estimate(g2, phi, psi, x=0, n=5, n_paths=0, seed=1)
        with pytest.raises(ValueError):
            rs.mc_cost_estimate(g2, phi, psi, x=9, n=5, n_paths=10, seed=1)
        refused = [
            ({"n_paths": 10.0}, "n_paths must be an integer, got 10.0"),
            ({"n": 2.5}, "n must be an integer, got 2.5"),
            ({"x": True}, "x0 must be an integer, got True"),
            ({"x": 2}, "x0 must be in [0, 2), got 2"),
        ]
        for kwargs, message in refused:
            with pytest.raises(ValueError) as raised:
                rs.mc_cost_estimate(g2, phi, psi, **{"x": 0, "n": 5, "n_paths": 10, "seed": 1,
                                                      **kwargs})
            assert str(raised.value) == message, kwargs

    @pytest.mark.parametrize("entry", ["sample_path", "mc_cost_estimate"])
    def test_seed_goes_through_the_scalar_gate(self, g2, g2_uniform, entry):
        phi, psi = g2_uniform
        walk = {
            "sample_path": lambda seed: rs.sample_path(g2, phi, psi, x0=0, n=4, seed=seed),
            "mc_cost_estimate": lambda seed: rs.mc_cost_estimate(
                g2, phi, psi, x=0, n=4, n_paths=8, seed=seed),
        }[entry]
        for seed, message in (
            (-1, "seed must be >= 0, got -1"),
            (True, "seed must be an integer, got True"),
            (2.5, "seed must be an integer, got 2.5"),
        ):
            with pytest.raises(ValueError) as raised:
                walk(seed)
            assert str(raised.value) == message
        assert repr(walk(np.int64(3))) == repr(walk(3))


def golden_game(name: str):
    """(instance, Phi, Psi) for the golden sampler tests."""
    if name == "g2":
        g2 = rs.g2_instance()
        return g2, rs.uniform_strategy(g2, 1), rs.uniform_strategy(g2, 2)
    if name == "session11":  # the session benchmark's size: 50 states, 4 x 4 actions
        inst = rs.random_instance(11, dims=(50, 4, 4), min_prob=0.002, arat_flag=True)
    else:
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
    "session11": (
        [1, 34, 45, 2, 1, 49, 38, 14, 49, 36, 5, 20, 1, 5, 32, 48, 8, 14, 33, 33, 7, 30, 14,
         18, 44, 31],
        [2, 2, 3, 3, 0, 3, 0, 2, 3, 2, 2, 2, 0, 1, 3, 2, 1, 0, 3, 0, 2, 2, 2, 0, 1],
        [1, 3, 2, 2, 3, 1, 3, 3, 3, 3, 2, 0, 3, 0, 0, 1, 2, 3, 0, 0, 2, 2, 0, 0, 2],
        "46b7bdbebdfc987b3ec8e51dc38e7c350c5457f6cd01b4714de773fab8f20667",
    ),
}

#: mc_cost_estimate(..., x=1, n=30, n_paths=400, seed=5)[player - 1]: value, std_error
GOLDEN_MC = {
    ("g2", 1): (0.5485781977684709, 0.031007049970212305),
    ("g2", 2): (0.6998813435345603, 0.06819001776681796),
    ("corpus1", 1): (0.5502989101257789, 0.041710174454697165),
    ("corpus1", 2): (0.5336668817200767, 0.0375553786750742),
    ("session11", 1): (0.5233470367117725, 0.015272376945728416),
    ("session11", 2): (0.5315594676332829, 0.019206221681247977),
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
        est = rs.mc_cost_estimate(inst, phi, psi, x=1, n=30, n_paths=400, seed=5)[player - 1]
        assert (est.value, est.std_error) == GOLDEN_MC[name, player]

    @pytest.mark.parametrize("player", [1, 2])
    def test_one_path_estimate_reads_the_sampled_path(self, player):
        base = corpus_instance(1)
        inst = rs.GameInstance(base.transition, base.cost1, base.cost2, theta=0.7)
        phi, psi = random_pair(inst, np.random.default_rng(8))
        traj = rs.sample_path(inst, phi, psi, x0=2, n=40, seed=11)
        est = rs.mc_cost_estimate(inst, phi, psi, x=2, n=40, n_paths=1, seed=11)[player - 1]
        sums = traj.cost_sums[player - 1]
        assert est.value == inst.theta * sums[-1] - inst.theta * sums[-2]

    def test_mc_peak_memory_is_bounded(self, g2, g2_uniform):
        # holding every draw at once would take 200 * 3 * 20_000 * 8 B = 96 MB
        phi, psi = g2_uniform
        tracemalloc.start()
        try:
            rs.mc_cost_estimate(g2, phi, psi, x=0, n=200, n_paths=20_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_package_import_leaves_scipy_out():
    src = str(Path(rs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rsgame; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
