import dataclasses
import functools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rsgame as rs
from rsgame import game_model
from rsgame.cli import main
from rsgame.game_model import compute_kappa, dumps_decimal, span_bound

from helpers import (
    corpus_instance,
    enumerate_delta,
    enumerate_kappa,
    full_document,
    mix_transition,
    pairwise_tv_distances,
    random_pair,
    read_instance,
    reference_digest,
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

    def test_require_solvable_reads_positivity_decided_at_construction(self):
        t = np.array([[[[0.5, 0.5, 0.0]]], [[[0.2, 0.3, 0.5]]], [[[0.1, 0.4, 0.5]]]])
        zero = rs.GameInstance(t, np.zeros((3, 1, 1)), np.zeros((3, 1, 1)))
        for inst in (zero, dataclasses.replace(zero, theta=2.0)):
            with pytest.raises(rs.AssumptionError, match="Assumption 3.2"):
                rs.require_solvable(inst)
        # a positive entry that renormalizing shrinks stays positive
        t = np.array([[[[5e-324, 1.0 + 5e-10]]], [[[0.5, 0.5]]]])
        tiny = rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        assert tiny.transition.min() > 0.0
        rs.require_solvable(tiny)
        inst = rs.random_instance(0, dims=(50, 4, 4), min_prob=1e-3)
        rs.require_solvable(inst)
        tracemalloc.start()
        try:
            rs.require_solvable(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024  # the parent's `transition <= 0` mask alone was 40 KB

    def test_min_prob_threshold(self, g2):
        assert rs.validate(g2, min_prob=0.19).passed
        diag = rs.validate(g2, min_prob=0.21)
        assert diag.checks["2(ii)"].status == "FAIL"
        # Violations are reported as (x, a, b, y) tuples.
        assert (0, 0, 0, 0) in diag.checks["2(ii)"].violations
        with pytest.raises(ValueError):
            rs.validate(g2, min_prob=0.0)

    def test_nan_min_prob_is_rejected(self, g2):
        # nan <= 0 is false, so the floor is tested as "not > 0"; an infinite
        # floor would fail every entry as an assumption failure
        for min_prob, shown in ((float("nan"), "nan"), (float("inf"), "inf"), (-1.0, "-1.0")):
            with pytest.raises(ValueError) as raised:
                rs.validate(g2, min_prob=min_prob)
            assert str(raised.value) == f"min_prob must be finite and > 0, got {shown}"

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

    # on 12 x 3 x 3 instances (108 rows of 12 entries, 96 B of scratch per
    # distance), 64 B tiles hold one distance, 4 KiB tiles 6 x 7, 64 KiB
    # tiles 26 x 26 and the default (None) 52 x 52, the last two with ragged
    # edge tiles
    TILE_BYTES = [64, 4096, 65536, None]

    @staticmethod
    def set_tile_bytes(monkeypatch, tile_bytes):
        if tile_bytes is not None:
            monkeypatch.setattr(game_model, "_TILE_BYTES", tile_bytes)

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

    @staticmethod
    def first_disjoint_pairs(inst):
        bad = np.argwhere(pairwise_tv_distances(inst) >= 2.0 - game_model.EXACT_TOL)
        return [(int(i), int(j)) for i, j in bad[:20]]

    @pytest.mark.parametrize("tile_bytes", TILE_BYTES)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        point_mass=st.booleans(),
        # 108 and 78 rows leave ragged edge tiles at 64 KiB and the default;
        # 37 rows, a prime, at every size above one distance
        dims=st.sampled_from([(12, 3, 3), (13, 2, 3), (37, 1, 1), (5, 2, 2)]),
    )
    def test_pass_equals_the_one_shot_reference(self, tile_bytes, seed, point_mass, dims):
        if point_mass:
            inst = point_mass_instance(seed, dims)
        else:
            inst = rs.random_instance(seed, dims=dims, min_prob=0.001)
        with mock.patch.object(
            game_model, "_TILE_BYTES", tile_bytes or game_model._TILE_BYTES
        ):
            worst, disjoint = game_model._tv_distances(inst)
        assert worst == float(pairwise_tv_distances(inst).max())
        assert [(int(i), int(j)) for i, j in disjoint] == self.first_disjoint_pairs(inst)

    @pytest.mark.parametrize("tile_bytes", TILE_BYTES)
    @pytest.mark.parametrize("dims", [(37, 1, 1), (13, 2, 3)])
    def test_mirrored_pairs_keep_their_row_major_place(self, monkeypatch, tile_bytes, dims):
        inst = point_mass_instance(0, dims)
        self.set_tile_bytes(monkeypatch, tile_bytes)
        want = self.first_disjoint_pairs(inst)
        assert any(j < i for i, j in want)  # some pairs lie below the diagonal
        _, disjoint = game_model._tv_distances(inst)
        assert [(int(i), int(j)) for i, j in disjoint] == want

    @pytest.mark.parametrize("tile_bytes", TILE_BYTES)
    @pytest.mark.parametrize("dims", [(12, 3, 3), (37, 1, 1)])
    def test_each_row_pair_is_formed_once(self, monkeypatch, tile_bytes, dims):
        inst = rs.random_instance(3, dims=dims, min_prob=0.001)
        self.set_tile_bytes(monkeypatch, tile_bytes)
        row_bytes = inst.n_states * inst.transition.itemsize
        base = inst.transition.ctypes.data
        tiles = []
        pair_distances = game_model._pair_distances

        def recording(a, b):
            i, j = ((m.ctypes.data - base) // row_bytes for m in (a, b))
            tiles.append((i, len(a), j, len(b)))
            return pair_distances(a, b)

        monkeypatch.setattr(game_model, "_pair_distances", recording)
        game_model._tv_distances(inst)
        n_rows = inst.transition.size // inst.n_states
        formed = np.zeros((n_rows, n_rows), dtype=int)
        for i, rows, j, cols in tiles:
            formed[i:i + rows, j:j + cols] += 1
        # every pair, one way or the other
        assert np.all((formed + formed.T)[np.triu_indices(n_rows)] > 0)
        # below the diagonal only pairs inside a row block's own rows
        assert all(j >= i for i, _, j, _ in tiles)
        assert formed.max() == 1
        row_blocks = len({i for i, *_ in tiles})
        largest = max(rows * cols for _, rows, _, cols in tiles)
        assert formed.sum() <= n_rows * (n_rows + 1) // 2 + row_blocks * largest


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

    def test_decomposition_checks_hold_no_float_table(self):
        # forming p1 + p2 - transition whole, as one float table, peaks at 1.29 tables
        inst = rs.random_instance(0, dims=(100, 5, 5), min_prob=1e-3, arat_flag=True)
        inst.transition  # built on first read: outside the trace, which measures validate
        tracemalloc.start()
        try:
            diag = rs.validate(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diag.checks["4.1"].status == diag.checks["4.2"].status == "PASS"
        assert peak < 0.5 * inst.transition.nbytes


class TestConstruction:
    def test_rejects_bad_rows(self):
        t = np.tile(np.array([0.6, 0.5]), (2, 1, 1, 1))
        with pytest.raises(ValueError, match="sum"):
            rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        t = np.tile(np.array([1.2, -0.2]), (2, 1, 1, 1))
        with pytest.raises(ValueError, match="negative"):
            rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))

    def test_rejects_nan_entries(self):
        t = np.full((2, 1, 1, 2), 0.5)
        t[1, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"transition row \(1, 0, 0\) sums to nan"):
            rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        with pytest.raises(ValueError, match=r"strategy row \(0,\) sums to nan"):
            rs.StationaryStrategy(1, np.array([[np.nan, 1.0], [0.5, 0.5]]))

    @pytest.mark.parametrize("table", ["p1", "c11"])
    def test_decomposition_rejects_nonfinite_entries(self, g2, table):
        # a NaN compares unequal to everything, so no consistency check sees it
        for value in (np.nan, np.inf, -np.inf):
            parts = {f: getattr(g2.arat, f).copy() for f in game_model._ARAT_TABLES}
            parts[table][1, 0] = value  # a whole row of p1, one entry of c11
            with pytest.raises(ValueError) as raised:
                rs.AratStructure(**parts)
            assert str(raised.value) == f"{table} entries must be finite and >= 0"

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
        # taken as given: never truncated, parsed or read as a number
        refused = [
            ({"anchor_state": 0.9}, "anchor_state must be an integer, got 0.9"),
            ({"anchor_state": 1.0}, "anchor_state must be an integer, got 1.0"),
            ({"anchor_state": True}, "anchor_state must be an integer, got True"),
            ({"anchor_state": 2}, "anchor_state must be in [0, 2), got 2"),
            ({"theta": True}, "theta must be a real number, got True"),
            ({"theta": "1.5"}, "theta must be a real number, got '1.5'"),
            ({"theta": float("nan")}, "theta must be finite and > 0, got nan"),
        ]
        for kwargs, message in refused:
            with pytest.raises(ValueError) as raised:
                rs.GameInstance(g2.transition, g2.cost1, g2.cost2, **kwargs)
            assert str(raised.value) == message, kwargs
        # numpy scalars are the same values
        same = rs.GameInstance(g2.transition, g2.cost1, g2.cost2, theta=np.float64(1.0),
                               anchor_state=np.int64(1))
        assert (type(same.theta), type(same.anchor_state)) == (float, int)
        plain = rs.GameInstance(g2.transition, g2.cost1, g2.cost2, theta=1.0, anchor_state=1)
        assert rs.instance_digest(same) == rs.instance_digest(plain)

    def test_arrays_are_read_only(self, g2):
        with pytest.raises(ValueError):
            g2.transition[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            g2.cost1[0, 0, 0] = 0.5

    @pytest.mark.parametrize("drift", [0.0, 3e-10])
    def test_callers_arrays_are_copied_not_frozen(self, g2, drift):
        t = g2.transition.copy()
        t[..., 0] += drift  # 3e-10 takes the renormalizing path
        c1, c2 = g2.cost1.copy(), g2.cost2.copy()
        rows = np.array([[0.25 + drift, 0.75], [0.5, 0.5]])
        arat = {f: getattr(g2.arat, f).copy() for f in ("p1", "p2", "c11", "c21", "c12", "c22")}
        inst = rs.GameInstance(t, c1, c2, arat=rs.AratStructure(**arat))
        psi = rs.StationaryStrategy(2, rows)
        pairs = [(t, inst.transition), (c1, inst.cost1), (c2, inst.cost2),
                 (rows, psi.rows)] + [(arat[f], getattr(inst.arat, f)) for f in arat]
        for given, kept in pairs:
            assert given.flags.writeable
            assert not kept.flags.writeable
            assert not np.shares_memory(given, kept)
        before = inst.transition.copy()
        t[...] = 0.0
        assert_array_equal(inst.transition, before)

    def test_construction_holds_one_copy_of_the_table(self):
        rng = np.random.default_rng(0)
        t = rng.dirichlet(np.ones(100), size=(100, 5, 5))  # 2 MB
        c = rng.uniform(size=(100, 5, 5))
        tracemalloc.start()
        try:
            rs.GameInstance(t, c, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the caller's table, this instance's copy and the row-check scratch
        assert t.nbytes + peak < 2.2 * t.nbytes

    def test_assemble_from_arat_holds_one_table(self):
        arat = rs.random_instance(0, dims=(100, 8, 8), min_prob=1e-3, arat_flag=True).arat
        table = 100 * 8 * 8 * 100 * 8
        tracemalloc.start()
        try:
            inst = rs.assemble_from_arat(arat)
            _, assembled = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            inst.transition  # built on its first read
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two cost tables and at most two tiles of p1 + p2 (~256 KiB
        # each); building the table at construction would be 1.0
        assert assembled < 0.2 * table
        assert inst.transition.nbytes == table
        assert not inst.transition.flags.writeable
        assert not inst.cost1.flags.writeable and not inst.cost2.flags.writeable
        assert peak < 1.3 * table

    def test_replace_shares_the_tables(self):
        inst = rs.random_instance(0, dims=(100, 5, 5), min_prob=1e-3)
        tracemalloc.start()
        try:
            hot = dataclasses.replace(inst, theta=2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hot.theta == 2.0
        for f in ("transition", "cost1", "cost2"):
            assert np.shares_memory(getattr(hot, f), getattr(inst, f))
        # the row check's scratch only; copying the table would be 1.0
        assert peak < 0.1 * inst.transition.nbytes

    def test_read_only_views_are_copied(self, g2):
        t = g2.transition.copy()
        view = t.view()
        view.flags.writeable = False
        inst = rs.GameInstance(view, g2.cost1, g2.cost2)
        assert not np.shares_memory(inst.transition, t)

    def test_cost_accessor(self, g2):
        assert_array_equal(g2.cost(1), g2.cost1)
        assert_array_equal(g2.cost(2), g2.cost2)
        with pytest.raises(ValueError):
            g2.cost(3)
        for player in (True, np.True_, 1.0):
            with pytest.raises(ValueError) as raised:
                g2.cost(player)
            assert str(raised.value) == f"player must be an integer, got {player!r}"

    def test_assemble_from_arat_matches_componentwise_sum(self, g2):
        arat = g2.arat
        rebuilt = rs.assemble_from_arat(
            arat, theta=g2.theta, anchor_state=g2.anchor_state
        )
        assert_array_equal(rebuilt.transition, g2.transition)
        assert_array_equal(rebuilt.cost1, g2.cost1)
        assert_array_equal(rebuilt.cost2, g2.cost2)


def bits(certificate) -> list[bytes]:
    """Every field of an epsilon_gap certificate as bytes: equal lists are equal bits."""
    values = [certificate.Phi.rows, certificate.Psi.rows]
    values += [getattr(certificate, f) for f in ("J1", "J2", "rho1_star", "rho2_star",
                                                 "eps1", "eps2", "rounds", "converged")]
    return [np.asarray(v).tobytes() for v in values] + [repr(certificate.cycle).encode()]


#: instance builders that go through assemble_from_arat, by test id
ASSEMBLED = {
    "g2": rs.g2_instance,
    **{f"{x}x{a}x{b}-{seed}": functools.partial(
        rs.random_instance, seed, (x, a, b), min_prob, arat_flag=True)
       for (x, a, b), min_prob, seeds in (((2, 2, 2), 0.02, (0, 1, 2)),
                                          ((50, 4, 4), 0.002, (0, 11)),
                                          ((30, 4, 4), 1e-3, (1, 2, 3)))
       for seed in seeds},
}


class TestAssembledInstances:
    """Instances from assemble_from_arat hold p1 and p2 and build the table on its first read."""

    def test_solvers_build_no_table_and_table_readers_build_one(self, builds):
        # validate and Monte Carlo are the only readers of the table
        inst = rs.random_instance(5, dims=(30, 4, 4), min_prob=1e-3, arat_flag=True)
        phi, psi = random_pair(inst, np.random.default_rng(5))
        rs.epsilon_gap(inst, phi, psi)
        rs.finite_horizon_growth(inst, 1, phi, psi, 0, 20)
        rs.solve_optimality(inst, 2, phi)
        rs.solve_optimality(inst, 1, psi)
        for player in (1, 2):
            rs.log_twisted_tensor(inst, player, phi.rows, psi.rows)
            rs.twisted_matrix(inst, player, phi, psi)
            rs.normalized_kernel(inst, player, 3, phi.rows[3], psi.rows[3])
        small = rs.random_instance(5, dims=(2, 2, 2), min_prob=0.02, arat_flag=True)
        assert len(rs.brute_force_nash(small, grid_step=0.25, eps=0.05)) >= 1
        rs.instance_digest(inst)
        rs.instance_to_dict(inst)
        assert "built on first read" in repr(inst)
        assert "built on first read" in repr(small)
        assert builds == []
        rs.validate(inst, min_prob=1e-3)
        rs.mc_cost_estimate(inst, phi, psi, 0, 5, 50, 0)
        assert len(builds) == 1
        assert inst.transition is builds[0]  # kept: a second read builds none
        assert not inst.transition.flags.writeable
        assert len(builds) == 1
        assert "built on first read" not in repr(inst)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_replace_builds_the_table_once_and_shares_it(self, builds, read_first):
        inst = rs.random_instance(6, dims=(30, 4, 4), min_prob=1e-3, arat_flag=True)
        if read_first:
            inst.transition
        hot = dataclasses.replace(inst, theta=2.0)
        assert len(builds) == 1
        assert hot.theta == 2.0 and hot.arat is inst.arat
        for f in ("p1", "p2"):
            assert getattr(hot.arat, f) is getattr(inst.arat, f)
        assert hot.transition is inst.transition is builds[0]
        assert hot.cost1 is inst.cost1 and hot.cost2 is inst.cost2
        assert len(builds) == 1

    @pytest.mark.parametrize("name", list(ASSEMBLED))
    def test_a_loaded_copy_gives_the_same_results(self, builds, name):
        lazy = ASSEMBLED[name]()
        phi, psi = random_pair(lazy, np.random.default_rng(lazy.n_states))
        digest, gap = rs.instance_digest(lazy), bits(rs.epsilon_gap(lazy, phi, psi))
        assert builds == []
        document = rs.instance_to_dict(lazy)
        assert builds == []  # the decomposition alone is written
        full = full_document(lazy)
        assert len(builds) == 1  # lazy's table, written out in full
        # the decomposition-only document loads unbuilt, and validate builds
        # its table; the full one loads with its table given
        for doc, built in ((document, 1), (full, 0)):
            before = len(builds)
            loaded = rs.instance_from_dict(doc)
            assert rs.instance_digest(lazy) == rs.instance_digest(loaded) == digest
            assert rs.instance_to_dict(loaded) == doc
            assert lazy._positive is loaded._positive is True
            assert bits(rs.epsilon_gap(loaded, phi, psi)) == gap
            reports = [dumps_decimal(dataclasses.asdict(rs.validate(inst, min_prob=1e-3)))
                       for inst in (lazy, loaded)]
            assert reports[0] == reports[1]
            assert loaded._exact_arat is loaded.arat
            assert len(builds) == before + built

    def drifted(self, g2, drift):
        """g2's decomposition with every row (0, 0, b) of p1 + p2 summing to 1 + drift."""
        parts = {f: getattr(g2.arat, f).copy() for f in game_model._ARAT_TABLES}
        parts["p1"][0, 0, 0] += drift
        return rs.AratStructure(**parts)

    def test_rows_to_renormalize_build_the_table_at_construction(self, builds, g2):
        arat = self.drifted(g2, 3e-10)
        inst = rs.assemble_from_arat(arat)
        assert len(builds) == 1 and "transition" in vars(inst)
        given = rs.GameInstance(arat.p1[:, :, None, :] + arat.p2[:, None, :, :],
                                inst.cost1, inst.cost2, arat=arat)
        assert_array_equal(inst.transition, given.transition)
        assert not np.array_equal(inst.transition, builds[0])  # renormalized
        assert inst._exact_arat is None and inst._positive
        assert rs.instance_digest(inst) == rs.instance_digest(given)
        assert len(builds) == 1

    def test_rows_off_by_more_than_the_load_tolerance_are_refused(self, g2):
        arat = self.drifted(g2, 3e-9)
        with pytest.raises(ValueError) as raised:
            rs.assemble_from_arat(arat)
        assert str(raised.value) == (
            "transition row (0, 0, 0) sums to 1.000000003, off by more than 1e-09")


class TestStrategies:
    def test_uniform_and_pure(self, g2):
        phi = rs.uniform_strategy(g2, 1)
        assert_array_equal(phi.rows, np.full((2, 2), 0.5))
        psi = rs.pure_strategy(g2, 2, [1, 0])
        assert_array_equal(psi.rows, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert psi.player == 2

    def test_rejects_bad_rows(self, g2):
        with pytest.raises(ValueError):
            rs.StationaryStrategy(1, np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            rs.StationaryStrategy(1, np.array([[1.5, -0.5]]))
        with pytest.raises(ValueError):
            rs.StationaryStrategy(3, np.array([[1.0]]))
        refused = [
            (lambda: rs.StationaryStrategy(True, np.array([[1.0]])),
             "player must be an integer, got True"),
            (lambda: rs.StationaryStrategy(np.True_, np.array([[1.0]])),
             f"player must be an integer, got {np.True_!r}"),
            (lambda: rs.StationaryStrategy(1.0, np.array([[1.0]])),
             "player must be an integer, got 1.0"),
            (lambda: rs.StationaryStrategy(3, np.array([[1.0]])),
             "player must be in [1, 2], got 3"),
            # a negative index would pick an action from the end
            (lambda: rs.pure_strategy(g2, 1, [-1, 0]), "actions[0] must be in [0, 2), got -1"),
            (lambda: rs.pure_strategy(g2, 2, [1, 2]), "actions[1] must be in [0, 2), got 2"),
            (lambda: rs.pure_strategy(g2, 2, [1, 0.0]), "actions[1] must be an integer, got 0.0"),
        ]
        for build, message in refused:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message
        assert rs.StationaryStrategy(np.int64(2), np.array([[1.0]])).player == 2
        assert_array_equal(rs.pure_strategy(g2, 2, np.array([1, 0])).rows, [[0, 1], [1, 0]])


#: every consumer of a strategy pair, called with a bad player-1 strategy
PAIR_CONSUMERS = {
    "ergodic_cost": lambda inst, phi, psi: rs.ergodic_cost(inst, 1, phi, psi),
    "finite_horizon_growth":
        lambda inst, phi, psi: rs.finite_horizon_growth(inst, 1, phi, psi, x=0, n=3),
    "solve_optimality": lambda inst, phi, psi: rs.solve_optimality(inst, 2, phi),
    "sample_path": lambda inst, phi, psi: rs.sample_path(inst, phi, psi, x0=0, n=3, seed=0),
    "mc_cost_estimate":
        lambda inst, phi, psi: rs.mc_cost_estimate(inst, phi, psi, 0, 3, 10, 0),
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

    @pytest.mark.parametrize("arat_flag", [False, True])
    def test_seed_goes_through_the_scalar_gate(self, arat_flag):
        for seed, message in (
            (-1, "seed must be >= 0, got -1"),
            (True, "seed must be an integer, got True"),
            (2.5, "seed must be an integer, got 2.5"),
        ):
            with pytest.raises(ValueError) as raised:
                rs.random_instance(seed, arat_flag=arat_flag)
            assert str(raised.value) == message
        assert rs.instance_digest(rs.random_instance(np.int64(7), arat_flag=arat_flag)) == (
            rs.instance_digest(rs.random_instance(7, arat_flag=arat_flag)))

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
        k = next(k for k, d in enumerate(dims) if d < 1)
        with pytest.raises(ValueError) as raised:
            rs.random_instance(0, dims=dims, arat_flag=arat_flag)
        name = ("states", "actions_a", "actions_b")[k]
        assert str(raised.value) == f"{name} must be >= 1, got {dims[k]}"

    @pytest.mark.parametrize("min_prob, shown", [
        (float("nan"), "nan"), (-0.1, "-0.1"), (0.0, "0.0"),
    ])
    @pytest.mark.parametrize("arat_flag", [False, True])
    def test_nonpositive_min_prob_rejected(self, min_prob, shown, arat_flag):
        with pytest.raises(ValueError) as raised:
            rs.random_instance(0, dims=(3, 2, 2), min_prob=min_prob, arat_flag=arat_flag)
        assert str(raised.value) == f"min_prob must be finite and > 0, got {shown}"

    def test_infeasible_min_prob_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            rs.random_instance(0, dims=(5, 2, 2), min_prob=0.3)
        # c_bar is checked with min_prob, before anything is drawn
        monkeypatch.setattr(game_model, "default_rng", None)
        for c_bar, shown in ((float("nan"), "nan"), (float("inf"), "inf"), (-1.0, "-1.0")):
            for arat_flag in (False, True):
                with pytest.raises(ValueError) as raised:
                    rs.random_instance(0, dims=(3, 2, 2), c_bar=c_bar, arat_flag=arat_flag)
                assert str(raised.value) == f"c_bar must be finite and >= 0, got {shown}"

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


MIXED_DOCUMENT_TEXT = """\
{
  "b": [
    0.10000000000000001,
    "inf",
    "nan",
    "-inf"
  ],
  "a": [
    true,
    false,
    3,
    -2,
    [
      1.5,
      [
        2,
        1e-300
      ]
    ],
    null
  ],
  "c": 0.33333333333333331,
  "d": 1.0000000000000001e+300,
  "e": -0,
  "f": 0.10000000149011612,
  "g": [
    "inf",
    1.5,
    "nan",
    -0,
    4.9406564584124654e-324,
    "-inf"
  ],
  "h": [],
  "i": [
    0.25
  ],
  "j": [
    0.5,
    0.10000000000000001,
    2
  ],
  "k": [
    [
      0.10000000000000001,
      0.20000000000000001
    ],
    [],
    [
      1e+308,
      -9.9999999999999991e-309
    ]
  ]
}"""


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

    def test_loading_a_document_holds_one_table(self):
        inst = rs.random_instance(0, dims=(100, 5, 5), min_prob=1e-3)
        doc = rs.instance_to_dict(inst)
        tracemalloc.start()
        try:
            loaded = rs.instance_from_dict(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the table built from the document, adopted without a second copy
        assert peak < 1.2 * inst.transition.nbytes
        assert not loaded.transition.flags.writeable
        assert rs.instance_digest(loaded) == rs.instance_digest(inst)

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
        # the one writer indents and keeps insertion order
        assert dumps_decimal({"b": 1.0, "a": 2.0}) == '{\n  "b": 1,\n  "a": 2\n}'
        # two spaces is the one layout: there is no indent to choose
        with pytest.raises(TypeError):
            dumps_decimal({"b": 1.0}, indent=4)

    def test_mixed_document_canonical_text(self):
        doc = {
            "b": [np.float64(0.1), float("inf"), float("nan"), -float("inf")],
            "a": [True, False, 3, np.int64(-2), [1.5, [2.0, 1e-300]], None],
            "c": 1 / 3, "d": np.float64(1e300), "e": -0.0, "f": np.float32(0.1),
            # lists of plain floats, the bulk of every instance document
            "g": [float("inf"), 1.5, float("nan"), -0.0, 5e-324, -float("inf")],
            "h": [], "i": [0.25], "j": [0.5, np.float64(0.1), 2.0],
            "k": [[0.1, 0.2], [], [1e308, -1e-308]],
        }
        assert dumps_decimal(doc) == MIXED_DOCUMENT_TEXT

    @pytest.mark.parametrize("doc", [
        [], {}, {"a": [], "b": {}},
        [[], [[]], {}, [{}]],
        {"a": [[], {}], "b": {"c": [], "d": {"e": {}}}},
        {"checks": {"1": {"status": "PASS", "violations": []}}, "passed": True},
        {"x": [1, 2, [3, "s"]], "y": {"z": None, "w": False}, "v": 0.5},
    ])
    def test_indented_text_matches_json_dumps(self, doc):
        assert dumps_decimal(doc) == json.dumps(doc, indent=2)

    def test_empty_containers_in_canonical_text(self):
        doc = {"b": {}, "a": [[], {}, [{}]]}
        assert dumps_decimal(doc) == (
            '{\n  "b": {},\n  "a": [\n    [],\n    {},\n    [\n      {}\n    ]\n  ]\n}'
        )

    def test_arat_corpus_digest_is_pinned(self):
        inst = corpus_instance(5, arat=True)
        assert rs.instance_digest(inst) == reference_digest(inst) == (
            "c9319a872e60cb5da7b264eff98bffcc1e09c359d150ba04ca294659b9d27c5c"
        )

    @pytest.mark.parametrize("name, digest", [
        ("g2", "7a40098a5ad56c6d2012fcaae975dbcfa3275b5be3b8a47e827b82d1e0bed74c"),
        ("corpus1", "591ccbcada61c7fc2f0d25e2d799b6e196227e8f1199f05051f6992d6edad05f"),
    ], ids=["g2", "corpus1"])
    def test_fixture_and_non_arat_digests_are_pinned(self, name, digest):
        # g2 carries its ARAT decomposition; corpus_instance(1) has none
        inst = rs.g2_instance() if name == "g2" else corpus_instance(1)
        assert rs.instance_digest(inst) == reference_digest(inst) == digest

    def test_digest_is_sha256_hex(self, g2):
        digest = rs.instance_digest(g2)
        assert len(digest) == 64
        assert all(ch in "0123456789abcdef" for ch in digest)
        # Digest pins the stored tables of the bundled fixture.
        assert digest == rs.instance_digest(rs.g2_instance())

    def test_strategy_roundtrip(self, g2, tmp_path):
        psi = rs.StationaryStrategy(2, np.array([[0.25, 0.75], [0.9, 0.1]]))
        path = tmp_path / "psi.json"
        write_document(path, rs.strategy_to_dict(psi))
        loaded = rs.strategy_from_dict(json.loads(path.read_text()))
        assert loaded.player == 2
        assert_array_equal(loaded.rows, psi.rows)

    def test_dimension_cross_check_on_load(self, g2):
        for doc in (rs.instance_to_dict(g2), full_document(g2)):
            doc["states"] = 3
            with pytest.raises(ValueError, match="states"):
                rs.instance_from_dict(doc)
        doc = full_document(g2)
        del doc["cost1"]
        with pytest.raises(ValueError, match="cost1"):
            rs.instance_from_dict(doc)


class TestDigest:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("arat", [False, True])
    def test_matches_the_struct_reference(self, seed, arat):
        inst = corpus_instance(seed, arat=arat)
        assert rs.instance_digest(inst) == reference_digest(inst)

    def test_document_layout_does_not_matter(self, g2, tmp_path):
        doc = rs.instance_to_dict(g2)
        indented = write_document(tmp_path / "indented.json", doc)
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(dict(reversed(list(doc.items()))), separators=(",", ":")))
        digests = {rs.instance_digest(read_instance(p)) for p in (indented, compact)}
        assert digests == {rs.instance_digest(g2)}

    def test_negative_zero_cost_differs_from_zero(self, g2):
        costs = []
        for zero in (0.0, -0.0):
            c = g2.cost1.copy()
            c[0, 0, 0] = zero
            costs.append(c)
        a, b = (rs.GameInstance(g2.transition, c, g2.cost2) for c in costs)
        assert rs.instance_digest(a) != rs.instance_digest(b)
        assert reference_digest(a) != reference_digest(b)

    def test_decomposition_is_part_of_the_digest(self, g2):
        bare = rs.GameInstance(g2.transition, g2.cost1, g2.cost2, g2.theta, g2.anchor_state)
        assert rs.instance_digest(bare) != rs.instance_digest(g2)
        assert rs.instance_digest(bare) == reference_digest(bare)

    @pytest.mark.parametrize("change", [{"theta": 1.5}, {"anchor_state": 1}])
    def test_theta_and_anchor_change_the_digest(self, g2, change):
        other = dataclasses.replace(g2, **change)
        assert rs.instance_digest(other) != rs.instance_digest(g2)
        assert rs.instance_digest(other) == reference_digest(other)

    def test_fortran_order_gives_the_same_digest(self):
        inst = corpus_instance(3, arat=True)
        tables = {f: np.asfortranarray(getattr(inst, f)) for f in ("transition", "cost1", "cost2")}
        arat = {f: np.asfortranarray(getattr(inst.arat, f))
                for f in ("p1", "p2", "c11", "c21", "c12", "c22")}
        fortran = rs.GameInstance(**tables, arat=rs.AratStructure(**arat))
        assert rs.instance_digest(fortran) == rs.instance_digest(inst)

    def test_hashes_the_tables_in_place(self):
        inst = rs.random_instance(0, dims=(100, 5, 5), min_prob=1e-3, arat_flag=True)
        rs.instance_digest(inst)
        tracemalloc.start()
        try:
            rs.instance_digest(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * inst.transition.nbytes


def test_span_bound_formula(g2):
    # ln(kappa) + 3 * theta * c_bar, with c_bar = 1 and theta = 1 on the fixture
    assert span_bound(g2, kappa=1.0) == pytest.approx(3.0, abs=1e-15)
    assert span_bound(g2, kappa=np.e) == pytest.approx(4.0, abs=1e-15)
    assert span_bound(g2, kappa=np.inf) == np.inf
