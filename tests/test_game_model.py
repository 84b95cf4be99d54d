import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rsgame as rs
from rsgame import game_model
from rsgame.cli import main
from rsgame.game_model import compute_kappa, dumps_decimal, span_bound

from helpers import (
    corpus_instance,
    enumerate_delta,
    enumerate_kappa,
    mix_transition,
    pairwise_tv_distances,
    random_pair,
    read_instance,
    write_document,
)


class TestG2Fixture:
    def test_transition_matches_closed_form(self, g2):
        t = g2.transition
        assert t.shape == (2, 2, 2, 2)
        for x in range(2):
            for a in range(2):
                for b in range(2):
                    p0 = 0.2 + 0.1 * a + 0.2 * b + 0.1 * x
                    assert t[x, a, b, 0] == pytest.approx(p0, abs=1e-15)
                    assert t[x, a, b, 1] == pytest.approx(1.0 - p0, abs=1e-15)

    def test_costs_match_closed_form(self, g2):
        for x in range(2):
            for a in range(2):
                for b in range(2):
                    assert g2.cost1[x, a, b] == pytest.approx(
                        0.5 * x + 0.3 * a + 0.2 * b, abs=1e-15
                    )
                    assert g2.cost2[x, a, b] == pytest.approx(
                        0.5 + 0.4 * a - 0.5 * b + 0.1 * x, abs=1e-15
                    )
        assert g2.theta == 1.0
        assert g2.c_bar == pytest.approx(1.0, abs=1e-15)

    def test_delta_and_kappa(self, g2):
        diag = rs.validate(g2)
        assert diag.passed
        # Worst TV pair is (x=0,a=0,b=0) vs (x=1,a=1,b=1); worst ratio 0.3/0.2.
        assert diag.delta == enumerate_delta(g2)
        assert diag.kappa == enumerate_kappa(g2)
        assert diag.delta == pytest.approx(0.4, abs=1e-14)
        assert diag.kappa == pytest.approx(1.5, abs=1e-14)
        assert diag.span_bound == pytest.approx(np.log(diag.kappa) + 3.0, abs=1e-12)

    def test_arat_decomposition_is_exact(self, g2):
        assert g2.arat is not None
        diag = rs.validate(g2)
        assert diag.checks["4.1"].status == "PASS"
        assert diag.checks["4.2"].status == "PASS"


class TestValidation:
    def test_identical_rows_give_delta_zero(self):
        t = np.tile(np.array([0.25, 0.75]), (2, 1, 1, 1))
        inst = rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        assert rs.validate(inst).delta == 0.0
        assert compute_kappa(inst) == 1.0

    def test_disjoint_rows_fail_minorization(self):
        t = np.zeros((2, 1, 1, 2))
        t[0, 0, 0, 0] = 1.0
        t[1, 0, 0, 1] = 1.0
        inst = rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        diag = rs.validate(inst)
        assert diag.delta == 1.0
        check = diag.checks["2(i)"]
        assert check.status == "FAIL"
        assert check.message.startswith("Assumption 2(i):")
        assert not diag.passed

    def test_zero_entry_fails_density_and_ratio(self):
        t = np.array([[[[0.5, 0.5, 0.0]]], [[[0.2, 0.3, 0.5]]], [[[0.1, 0.4, 0.5]]]])
        inst = rs.GameInstance(t, np.zeros((3, 1, 1)), np.zeros((3, 1, 1)))
        diag = rs.validate(inst)
        assert diag.kappa == np.inf
        assert diag.checks["2(ii)"].status == "FAIL"
        assert diag.checks["3.2"].status == "FAIL"
        assert "kappa infinite" in diag.checks["3.2"].message
        assert diag.checks["3.2"].message.startswith("Assumption 3.2:")
        with pytest.raises(rs.AssumptionError, match="Assumption 3.2"):
            rs.require_solvable(inst)

    def test_min_prob_threshold(self, g2):
        assert rs.validate(g2, min_prob=0.19).passed
        diag = rs.validate(g2, min_prob=0.21)
        assert diag.checks["2(ii)"].status == "FAIL"
        # Violations are reported as (x, a, b, y) tuples.
        assert (0, 0, 0, 0) in diag.checks["2(ii)"].violations
        with pytest.raises(ValueError):
            rs.validate(g2, min_prob=0.0)

    def test_violation_lists_are_capped(self):
        rng = np.random.default_rng(0)
        t = rng.dirichlet(np.ones(6), size=(6, 4, 4))
        inst = rs.GameInstance(t, np.zeros((6, 4, 4)), np.zeros((6, 4, 4)))
        diag = rs.validate(inst, min_prob=0.9)
        assert len(diag.checks["2(ii)"].violations) == 20

    def test_broken_arat_transition_sum_fails(self, g2):
        arat = g2.arat
        t = g2.transition.copy()
        t[:, :, :, 0] += 0.01
        t[:, :, :, 1] -= 0.01
        broken = rs.GameInstance(t, g2.cost1, g2.cost2, arat=arat)
        diag = rs.validate(broken)
        assert diag.checks["4.1"].status == "FAIL"
        assert diag.checks["4.1"].message.startswith("Assumption 4.1:")
        assert diag.checks["4.2"].status == "PASS"

    def test_broken_arat_cost_split_fails(self, g2):
        c1 = g2.cost1 + 0.05
        broken = rs.GameInstance(g2.transition, c1, g2.cost2, arat=g2.arat)
        diag = rs.validate(broken)
        assert diag.checks["4.1"].status == "PASS"
        assert diag.checks["4.2"].status == "FAIL"
        assert diag.checks["4.2"].message.startswith("Assumption 4.2:")

    def test_no_arat_skips_structure_checks(self):
        inst = corpus_instance(3)
        assert inst.arat is None
        diag = rs.validate(inst)
        assert diag.checks["4.1"].status == "SKIP"
        assert diag.checks["4.2"].status == "SKIP"
        assert diag.passed  # SKIP does not count against PASS

    def test_check_keys_are_stable(self, g2):
        diag = rs.validate(g2)
        assert list(diag.checks) == ["1", "2(i)", "2(ii)", "3.1", "3.2", "4.1", "4.2"]


def point_mass_instance(seed: int, dims=(12, 3, 3)) -> rs.GameInstance:
    """Every row a point mass, mostly on state 0.

    A row on state 0 has disjoint support only with the few rows elsewhere,
    so the first 20 disjoint pairs span several rows of the distance matrix.
    """
    rng = np.random.default_rng(seed)
    targets = np.where(rng.random(dims) < 0.1, rng.integers(1, dims[0], size=dims), 0)
    t = np.zeros(dims + (dims[0],))
    np.put_along_axis(t, targets[..., None], 1.0, axis=3)
    return rs.GameInstance(t, np.zeros(dims), np.zeros(dims))


class TestDistancePass:
    """delta, kappa and the 2(i) violations in bounded memory."""

    # on 12 x 3 x 3 instances (108 rows of 12 entries), 64 B tiles hold one
    # distance, 4 KiB tiles a run of columns of one row, 64 KiB tiles several
    # whole rows, and the default (None) one tile
    TILE_BYTES = [64, 4096, 65536, None]

    @staticmethod
    def set_tile_bytes(monkeypatch, tile_bytes):
        if tile_bytes is not None:
            monkeypatch.setattr(game_model, "_TV_TILE_BYTES", tile_bytes)

    @pytest.mark.parametrize("tile_bytes", TILE_BYTES)
    def test_tiled_delta_equals_one_shot_form(self, monkeypatch, tile_bytes):
        inst = rs.random_instance(2, dims=(12, 3, 3), min_prob=0.001)
        self.set_tile_bytes(monkeypatch, tile_bytes)
        assert rs.validate(inst).delta == 0.5 * float(pairwise_tv_distances(inst).max())

    @pytest.mark.parametrize("tile_bytes", TILE_BYTES)
    def test_disjoint_pairs_come_in_row_major_order(self, monkeypatch, tile_bytes):
        inst = point_mass_instance(5)
        self.set_tile_bytes(monkeypatch, tile_bytes)
        check = rs.validate(inst).checks["2(i)"]
        bad = np.argwhere(pairwise_tv_distances(inst) >= 2.0 - game_model.EXACT_TOL)
        shape = inst.transition.shape[:3]
        want = tuple(
            (np.unravel_index(i, shape), np.unravel_index(j, shape)) for i, j in bad[:20]
        )
        assert len({i for i, _ in bad[:20]}) > 1  # the pairs span several rows
        assert check.status == "FAIL"
        assert check.violations == want

    def test_kappa_ignores_an_all_zero_next_state_column(self):
        t = np.random.default_rng(4).dirichlet(np.ones(4), size=(4, 2, 3))
        t[..., 2] = 0.0  # no row reaches state 2: every ratio there is 0/0
        t /= t.sum(axis=-1, keepdims=True)
        inst = rs.GameInstance(t, np.zeros((4, 2, 3)), np.zeros((4, 2, 3)))
        assert np.isfinite(compute_kappa(inst))
        assert compute_kappa(inst) == enumerate_kappa(inst)

    @pytest.mark.parametrize("seed", range(6))
    def test_kappa_equals_the_pairwise_enumeration(self, seed):
        inst = corpus_instance(seed, arat=bool(seed % 2))
        assert compute_kappa(inst) == enumerate_kappa(inst)

    def test_validate_peak_memory_is_bounded(self):
        # the one-shot distance tensor alone is 640^2 * 40 * 8 B = 131 MB here
        inst = rs.random_instance(0, dims=(40, 4, 4))
        tracemalloc.start()
        try:
            diag = rs.validate(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diag.passed
        assert peak < 64 * 2**20


class TestViolationLists:
    """FAIL verdicts count violations on masks and list the first ones slab by slab."""

    DIMS = (12, 2, 2)

    @classmethod
    def failing_case(cls, key):
        """(instance, min_prob, masks) with the reference violation masks of ``key``."""
        rng = np.random.default_rng(11)
        base = rs.random_instance(11, dims=cls.DIMS, min_prob=0.02, arat_flag=True)
        a, t = base.arat, base.transition.copy()
        c1, c2 = base.cost1, base.cost2
        min_prob = game_model.DEFAULT_MIN_PROB
        if key == "2(ii)":
            min_prob = float(np.quantile(t, 0.1))
        elif key == "3.2":
            t[..., 1:][rng.random(t[..., 1:].shape) < 0.08] = 0.0
            t /= t.sum(axis=-1, keepdims=True)
        elif key == "4.1":
            moved = rng.random(cls.DIMS) < 0.15
            t[moved, 0] += 1e-3
            t[moved, 1] -= 1e-3
        else:
            c1 = c1 + 0.05 * (rng.random(cls.DIMS) < 0.3)
            c2 = c2 + 0.05 * (rng.random(cls.DIMS) < 0.5)
        inst = rs.GameInstance(t, c1, c2, arat=a)
        tol = game_model.EXACT_TOL
        t = inst.transition
        masks = {
            "2(ii)": [t < min_prob],
            "3.2": [t == 0.0],
            "4.1": [np.abs(a.p1[:, :, None, :] + a.p2[:, None, :, :] - t) > tol],
            "4.2": [
                np.abs(a.c11[:, :, None] + a.c12[:, None, :] - inst.cost1) > tol,
                np.abs(a.c21[:, :, None] + a.c22[:, None, :] - inst.cost2) > tol,
            ],
        }[key]
        return inst, min_prob, masks

    @pytest.mark.parametrize("key", ["2(ii)", "3.2", "4.1", "4.2"])
    def test_violations_equal_the_argwhere_reference(self, key):
        inst, min_prob, masks = self.failing_case(key)
        check = rs.validate(inst, min_prob=min_prob).checks[key]
        hits = np.vstack([np.argwhere(m) for m in masks])
        want = tuple(tuple(int(i) for i in h) for h in hits[:20])
        assert len({v[0] for v in want}) > 1  # the first 20 span several slabs
        if len(masks) > 1:
            assert np.count_nonzero(masks[0]) < 20  # cost2's indices follow cost1's
        assert check.status == "FAIL"
        assert check.violations == want
        if key != "3.2":  # the 3.2 message carries no count
            assert f" {len(hits)} " in check.message

    def test_failing_validate_peak_memory_is_bounded(self):
        # every one of the 360,000 entries fails 2(ii); indices for all of
        # them would take 11.5 MB
        inst = rs.random_instance(0, dims=(600, 1, 1), min_prob=1e-4)
        tracemalloc.start()
        try:
            diag = rs.validate(inst, min_prob=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        check = diag.checks["2(ii)"]
        assert check.message.startswith("Assumption 2(ii): 360000 transition entries")
        assert len(check.violations) == 20
        assert peak < 8 * 2**20


class TestConstruction:
    def test_rejects_bad_rows(self):
        t = np.tile(np.array([0.6, 0.5]), (2, 1, 1, 1))
        with pytest.raises(ValueError, match="sum"):
            rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        t = np.tile(np.array([1.2, -0.2]), (2, 1, 1, 1))
        with pytest.raises(ValueError, match="negative"):
            rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))

    @pytest.mark.parametrize("shape", [(2, 0, 2, 2), (2, 2, 0, 2), (0, 1, 1, 0)])
    def test_rejects_an_empty_axis(self, shape):
        t = np.zeros(shape)
        with pytest.raises(ValueError, match="empty state or action axis"):
            rs.GameInstance(t, np.zeros(shape[:3]), np.zeros(shape[:3]))

    def test_renormalizes_small_row_drift(self):
        t = np.tile(np.array([0.5 + 3e-10, 0.5]), (2, 1, 1, 1))
        inst = rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        assert inst.transition.sum(axis=-1) == pytest.approx(1.0, abs=1e-15)

    def test_exact_rows_kept_bit_for_bit(self):
        row = np.array([
            0.49536268097546354, 0.09287525439877223,
            0.06051618296995935, 0.35124588165580484,
        ])
        assert row.sum() != 1.0  # a non-exact float sum within the 1e-12 band
        t = np.tile(row, (4, 1, 1, 1))
        inst = rs.GameInstance(t, np.zeros((4, 1, 1)), np.zeros((4, 1, 1)))
        assert_array_equal(inst.transition[0, 0, 0], row)

    def test_rejects_bad_scalars(self, g2):
        with pytest.raises(ValueError):
            rs.GameInstance(g2.transition, g2.cost1, g2.cost2, theta=0.0)
        with pytest.raises(ValueError):
            rs.GameInstance(g2.transition, g2.cost1, g2.cost2, theta=-1.0)
        with pytest.raises(ValueError):
            rs.GameInstance(g2.transition, g2.cost1, g2.cost2, theta=np.inf)
        with pytest.raises(ValueError):
            rs.GameInstance(g2.transition, g2.cost1, g2.cost2, anchor_state=2)
        with pytest.raises(ValueError):
            rs.GameInstance(g2.transition, -g2.cost1, g2.cost2)

    def test_arrays_are_read_only(self, g2):
        with pytest.raises(ValueError):
            g2.transition[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            g2.cost1[0, 0, 0] = 0.5

    def test_cost_accessor(self, g2):
        assert_array_equal(g2.cost(1), g2.cost1)
        assert_array_equal(g2.cost(2), g2.cost2)
        with pytest.raises(ValueError):
            g2.cost(3)

    def test_assemble_from_arat_matches_componentwise_sum(self, g2):
        arat = g2.arat
        rebuilt = rs.assemble_from_arat(
            arat, theta=g2.theta, anchor_state=g2.anchor_state
        )
        assert_array_equal(rebuilt.transition, g2.transition)
        assert_array_equal(rebuilt.cost1, g2.cost1)
        assert_array_equal(rebuilt.cost2, g2.cost2)


class TestStrategies:
    def test_uniform_and_pure(self, g2):
        phi = rs.uniform_strategy(g2, 1)
        assert_array_equal(phi.rows, np.full((2, 2), 0.5))
        psi = rs.pure_strategy(g2, 2, [1, 0])
        assert_array_equal(psi.rows, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert psi.player == 2

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            rs.StationaryStrategy(1, np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            rs.StationaryStrategy(1, np.array([[1.5, -0.5]]))
        with pytest.raises(ValueError):
            rs.StationaryStrategy(3, np.array([[1.0]]))


#: every consumer of a strategy pair, called with a bad player-1 strategy
PAIR_CONSUMERS = {
    "ergodic_cost": lambda inst, phi, psi: rs.ergodic_cost(inst, 1, phi, psi),
    "finite_horizon_growth":
        lambda inst, phi, psi: rs.finite_horizon_growth(inst, 1, phi, psi, x=0, n=3),
    "solve_optimality": lambda inst, phi, psi: rs.solve_optimality(inst, 2, phi),
    "sample_path": lambda inst, phi, psi: rs.sample_path(inst, phi, psi, x0=0, n=3, seed=0),
    "mc_cost_estimate":
        lambda inst, phi, psi: rs.mc_cost_estimate(inst, 1, phi, psi, 0, 3, 10, 0),
    "cli eval": None,
}


class TestCheckStrategy:
    def test_returns_the_rows_of_a_matching_strategy(self, g2, g2_uniform):
        phi, psi = g2_uniform
        assert rs.check_strategy(g2, phi, 1) is phi.rows
        assert rs.check_strategy(g2, psi, 2) is psi.rows

    @pytest.mark.parametrize("bad", ["player", "shape"])
    @pytest.mark.parametrize("consumer", list(PAIR_CONSUMERS))
    def test_every_consumer_rejects_a_mismatched_strategy(
        self, g2, tmp_path, capsys, consumer, bad
    ):
        wrong = {
            "player": (rs.StationaryStrategy(2, np.full((2, 2), 0.5)), "belongs"),
            "shape": (rs.StationaryStrategy(1, np.full((3, 2), 0.5)), "rows"),
        }
        phi, message = wrong[bad]
        psi = rs.uniform_strategy(g2, 2)
        if consumer == "cli eval":
            instance_path, phi_path = tmp_path / "g2.json", tmp_path / "phi.json"
            write_document(instance_path, rs.instance_to_dict(g2))
            write_document(phi_path, rs.strategy_to_dict(phi))
            code = main(["eval", "--instance", str(instance_path),
                         "--phi", str(phi_path), "--psi", "uniform"])
            err = capsys.readouterr().err
            assert code == 3
            assert f"{phi_path}: " in err and message in err
        else:
            with pytest.raises(ValueError, match=message):
                PAIR_CONSUMERS[consumer](g2, phi, psi)

class TestRandomInstances:
    def test_same_seed_same_instance(self):
        a = rs.random_instance(7, dims=(3, 2, 2), min_prob=0.02)
        b = rs.random_instance(7, dims=(3, 2, 2), min_prob=0.02)
        assert_array_equal(a.transition, b.transition)
        assert_array_equal(a.cost1, b.cost1)
        assert_array_equal(a.cost2, b.cost2)

    def test_generated_instances_validate(self):
        for seed in range(8):
            inst = corpus_instance(seed)
            diag = rs.validate(inst, min_prob=0.02)
            assert diag.passed, diag.failures()

    def test_arat_instances_validate_structure(self):
        for seed in range(6):
            inst = corpus_instance(seed, arat=True, dims=(2, 2, 2))
            diag = rs.validate(inst, min_prob=0.002)
            assert diag.checks["4.1"].status == "PASS"
            assert diag.checks["4.2"].status == "PASS"
            assert diag.passed, diag.failures()

    @pytest.mark.parametrize("dims", [(0, 2, 2), (-1, 2, 2), (3, 0, 2), (3, 2, 0)])
    @pytest.mark.parametrize("arat_flag", [False, True])
    def test_nonpositive_dims_rejected_first(self, dims, arat_flag):
        with pytest.raises(ValueError, match=r"dims \(.*\) must be positive"):
            rs.random_instance(0, dims=dims, arat_flag=arat_flag)

    def test_infeasible_min_prob_rejected(self):
        with pytest.raises(ValueError):
            rs.random_instance(0, dims=(5, 2, 2), min_prob=0.3)

    def test_costs_within_band(self):
        inst = rs.random_instance(3, dims=(4, 3, 2), c_bar=2.0)
        assert inst.cost1.max() <= 2.0
        assert inst.cost2.max() <= 2.0
        assert inst.cost1.min() >= 0.0


class TestMixedMinorization:
    def test_mixed_tv_never_exceeds_pure_delta(self):
        """The minorization defect is attained on pure tuples."""
        rng = np.random.default_rng(42)
        for seed in range(5):
            inst = corpus_instance(seed)
            delta = rs.validate(inst).delta
            for _ in range(200):
                x1, x2 = rng.integers(0, inst.n_states, size=2)
                phi1, psi1 = random_pair(inst, rng)
                phi2, psi2 = random_pair(inst, rng)
                r1 = mix_transition(inst, int(x1), phi1.rows[x1], psi1.rows[x1])
                r2 = mix_transition(inst, int(x2), phi2.rows[x2], psi2.rows[x2])
                tv = 0.5 * np.abs(r1 - r2).sum()
                assert tv <= delta + 1e-12


class TestSerialization:
    def test_instance_roundtrip_is_bit_exact(self, g2, tmp_path):
        path = tmp_path / "g2.json"
        write_document(path, rs.instance_to_dict(g2))
        loaded = read_instance(path)
        assert_array_equal(loaded.transition, g2.transition)
        assert_array_equal(loaded.cost1, g2.cost1)
        assert_array_equal(loaded.cost2, g2.cost2)
        assert loaded.theta == g2.theta
        assert loaded.anchor_state == g2.anchor_state
        assert loaded.arat is not None
        assert_array_equal(loaded.arat.p1, g2.arat.p1)
        assert_array_equal(loaded.arat.c22, g2.arat.c22)
        assert rs.instance_digest(loaded) == rs.instance_digest(g2)

    def test_random_instance_roundtrip(self, tmp_path):
        inst = corpus_instance(11)
        path = tmp_path / "inst.json"
        write_document(path, rs.instance_to_dict(inst))
        loaded = read_instance(path)
        assert_array_equal(loaded.transition, inst.transition)
        assert rs.instance_digest(loaded) == rs.instance_digest(inst)

    def test_seventeen_digit_floats_roundtrip(self):
        values = [0.1, 1.0 / 3.0, 2.0 ** -52, 1e308, 0.30000000000000004]
        rendered = dumps_decimal(values)
        assert json.loads(rendered) == values

    def test_nonfinite_floats_become_strings(self):
        rendered = dumps_decimal({"kappa": float("inf")})
        assert json.loads(rendered)["kappa"] == "inf"

    def test_canonical_form_is_sorted_and_compact(self):
        rendered = dumps_decimal({"b": 1.0, "a": 2.0}, indent=None)
        assert rendered == '{"a":2,"b":1}' or rendered == '{"a": 2, "b": 1}'
        assert rendered.index('"a"') < rendered.index('"b"')

    def test_digest_is_sha256_hex(self, g2):
        digest = rs.instance_digest(g2)
        assert len(digest) == 64
        assert all(ch in "0123456789abcdef" for ch in digest)
        # Digest pins the canonical serialization of the bundled fixture.
        assert digest == rs.instance_digest(rs.g2_instance())

    def test_strategy_roundtrip(self, g2, tmp_path):
        psi = rs.StationaryStrategy(2, np.array([[0.25, 0.75], [0.9, 0.1]]))
        path = tmp_path / "psi.json"
        write_document(path, rs.strategy_to_dict(psi))
        loaded = rs.strategy_from_dict(json.loads(path.read_text()))
        assert loaded.player == 2
        assert_array_equal(loaded.rows, psi.rows)

    def test_dimension_cross_check_on_load(self, g2):
        doc = rs.instance_to_dict(g2)
        doc["states"] = 3
        with pytest.raises(ValueError, match="states"):
            rs.instance_from_dict(doc)
        doc = rs.instance_to_dict(g2)
        del doc["cost1"]
        with pytest.raises(ValueError, match="cost1"):
            rs.instance_from_dict(doc)


def test_span_bound_formula(g2):
    # ln(kappa) + 3 * theta * c_bar, with c_bar = 1 and theta = 1 on the fixture
    assert span_bound(g2, kappa=1.0) == pytest.approx(3.0, abs=1e-15)
    assert span_bound(g2, kappa=np.e) == pytest.approx(4.0, abs=1e-15)
    assert span_bound(g2, kappa=np.inf) == np.inf
