import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rsgame as rs
from rsgame import transforms
from rsgame.transforms import log_twisted_tensor

from helpers import (
    all_rows_normalized_kernel,
    assert_within_ulps,
    corpus_instance,
    einsum_log_twisted,
    frozen_pair_instance,
    full_document,
    lifted_arat_instance,
    mix_transition,
    pure_pair_log_q,
    random_pair,
    solve_log_kernel,
)


def zero_cost_instance(seed=0, dims=(3, 2, 2)):
    base = corpus_instance(seed, dims=dims)
    z = np.zeros(base.cost1.shape)
    return rs.GameInstance(base.transition, z, z, theta=base.theta)


UNIFORM2 = np.array([0.5, 0.5])


class TestTwist:
    """ln Q of pure pairs is the unmixed twisted table; mixed pairs weigh its rows."""

    def test_zero_cost_leaves_transition_unchanged(self):
        inst = zero_cost_instance()
        assert_array_equal(pure_pair_log_q(inst, 1), np.log(inst.transition))

    def test_row_sums_equal_exp_cost(self, g2):
        for player in (1, 2):
            table = np.exp(pure_pair_log_q(g2, player))
            assert_allclose(table.sum(axis=-1), np.exp(g2.cost(player)), rtol=1e-14)
        # cost2(x=0, a=1, b=0) = 0.9, so that twisted row carries total e^0.9
        assert np.exp(pure_pair_log_q(g2, 2))[0, 1, 0].sum() == pytest.approx(
            2.4596031111569499, abs=1e-14
        )

    def test_table_dominates_transition(self):
        inst = corpus_instance(4)
        for player in (1, 2):
            assert np.all(pure_pair_log_q(inst, player) >= np.log(inst.transition))

    def test_log_tensor_matches_log_of_table(self, g2):
        table = np.exp(g2.cost(2))[..., None] * g2.transition
        assert_allclose(pure_pair_log_q(g2, 2), np.log(table), atol=1e-13)

    def test_log_tensor_is_minus_inf_off_support(self):
        t = np.zeros((2, 1, 1, 2))
        t[0, 0, 0, 0] = 1.0
        t[1, 0, 0, 1] = 1.0
        inst = rs.GameInstance(t, np.ones((2, 1, 1)), np.ones((2, 1, 1)))
        ln = pure_pair_log_q(inst, 1)
        assert ln[0, 0, 0, 1] == -np.inf
        assert ln[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("mixed", ["phi", "psi", "both"])
    def test_mixing_matches_weighted_sum_of_the_table(self, mixed):
        # one strategy mixed in is the kernel a solve sweeps: psi for player
        # 1's, phi for player 2's; both mixed in is ln Q
        inst = corpus_instance(7)
        rng = np.random.default_rng(7)
        phi, psi = random_pair(inst, rng)
        player = 2 if mixed == "phi" else 1
        table = np.exp(inst.theta * inst.cost(player))[..., None] * inst.transition
        if mixed == "phi":
            got = solve_log_kernel(inst, 2, phi)
            want = np.einsum("xa,xaby->xby", phi.rows, table)
        elif mixed == "psi":
            got = solve_log_kernel(inst, 1, psi)
            want = np.einsum("xb,xaby->xay", psi.rows, table)
        else:
            got = log_twisted_tensor(inst, 1, phi.rows, psi.rows)
            want = np.einsum("xa,xb,xaby->xy", phi.rows, psi.rows, table)
        assert_allclose(np.exp(got), want, rtol=1e-13)

    def test_one_strategy_or_none_is_a_type_error(self, g2, g2_uniform):
        phi, psi = (s.rows for s in g2_uniform)
        table_only = rs.GameInstance(g2.transition, g2.cost1, g2.cost2, g2.theta)
        for inst in (g2, table_only):
            for args, kwargs in (((), {}), ((phi,), {}), ((), {"psi": psi}),
                                 ((None, psi), {}), ((phi, None), {})):
                with pytest.raises(TypeError):
                    log_twisted_tensor(inst, 1, *args, **kwargs)

    def test_leading_batch_axes_mix_each_map(self):
        inst = corpus_instance(8)
        rng = np.random.default_rng(8)
        pairs = [random_pair(inst, rng) for _ in range(3)]
        phis = np.stack([phi.rows for phi, _ in pairs])
        psis = np.stack([psi.rows for _, psi in pairs])
        batched = log_twisted_tensor(inst, 2, phis, psis)
        for k, (phi, psi) in enumerate(pairs):
            assert_allclose(batched[k], log_twisted_tensor(inst, 2, phi.rows, psi.rows),
                            atol=1e-14)

    def test_mixing_past_overflow_shifts_by_theta_k(self, g2):
        shifted = rs.GameInstance(g2.transition, g2.cost1 + 800.0, g2.cost2, theta=1.0)
        phi, psi = rs.uniform_strategy(g2, 1), rs.uniform_strategy(g2, 2)
        high = log_twisted_tensor(shifted, 1, phi.rows, psi.rows)
        assert np.all(np.isfinite(high))
        assert_allclose(high - 800.0, log_twisted_tensor(g2, 1, phi.rows, psi.rows),
                        atol=1e-12)


def contraction_inputs(case: str):
    """(instance, phi, psi) for one contraction case; phi and psi batch as [2, 1] and [1, 3]."""
    rng = np.random.default_rng(12)
    inst = corpus_instance(12, dims=(5, 3, 4))
    nx, na, nb = 5, 3, 4
    if case == "theta_c_1e6":  # costs in [0, 1], so theta * c spans [0, 1e6]
        inst = dataclasses.replace(inst, theta=1e6)
    if case == "zero_transitions":
        t = inst.transition.copy()
        t[0, :, :, 1] = 0.0  # unreachable under every action: -inf after mixing
        t[1, 0, :, 2] = 0.0  # unreachable under one action only
        inst = rs.GameInstance(t / t.sum(-1, keepdims=True), inst.cost1, inst.cost2)
    phi = rng.dirichlet(np.ones(na), size=(2, 1, nx))
    psi = rng.dirichlet(np.ones(nb), size=(1, 3, nx))
    if case == "zero_weights":
        phi[..., 0] = 0.0
        psi[..., 1:3] = 0.0
        phi /= phi.sum(-1, keepdims=True)
        psi /= psi.sum(-1, keepdims=True)
    if case != "batched":
        phi, psi = phi[0, 0], psi[0, 0]
    return inst, phi, psi


def one_side_log_kernel(inst, player, phi=None, psi=None) -> np.ndarray:
    """ln of the player's kernel with one strategy mixed in, [..., x, k, y], from solve kernels.

    A solve of player 1 mixes psi into its kernel and one of player 2 phi.
    The player the given strategy opposes solves, on a copy of the instance
    where both players bear this player's cost, one batch member at a time.
    """
    solver, rows = (1, psi) if phi is None else (2, phi)
    cost = inst.cost(player)
    same_cost = rs.GameInstance(inst.transition, cost, cost, inst.theta)
    kernels = [solve_log_kernel(same_cost, solver, rs.StationaryStrategy(3 - solver, rows[i]))
               for i in np.ndindex(rows.shape[:-2])]
    return np.reshape(kernels, rows.shape[:-2] + kernels[0].shape)


class TestContraction:
    """The one matrix product of ln Q and of the solve kernels against the einsum reference."""

    @pytest.mark.parametrize("case", ["batched", "zero_weights", "theta_c_1e6",
                                      "zero_transitions"])
    @pytest.mark.parametrize("mixed", ["phi", "psi", "both"])
    @pytest.mark.parametrize("player", [1, 2])
    def test_matches_the_einsum_reference(self, case, mixed, player):
        inst, phi, psi = contraction_inputs(case)
        given = {"phi": {"phi": phi}, "psi": {"psi": psi}, "both": {"phi": phi, "psi": psi}}
        if mixed == "both":
            got = log_twisted_tensor(inst, player, phi, psi)
        else:
            got = one_side_log_kernel(inst, player, **given[mixed])
        want = einsum_log_twisted(inst, player, **given[mixed])
        assert got.shape == want.shape
        assert_allclose(got, want, rtol=0, atol=1e-12)
        if case == "zero_transitions":
            assert np.isneginf(got).any()

    @pytest.mark.parametrize("mixed", ["phi", "psi", "both"])
    def test_peak_memory_is_below_half_a_table(self, mixed):
        # a copy of the transposed table (phi only, in player 2's solve kernel)
        # or of a reshape would alone be a whole table; the caller's table is
        # Fortran-ordered on purpose
        base = rs.random_instance(0, dims=(100, 10, 10), min_prob=1e-3)
        inst = rs.GameInstance(np.asfortranarray(base.transition), base.cost1, base.cost2)
        phi, psi = rs.uniform_strategy(inst, 1), rs.uniform_strategy(inst, 2)
        build = {
            "phi": lambda: rs.bellman._solve_kernel(inst, 2, phi),
            "psi": lambda: rs.bellman._solve_kernel(inst, 1, psi),
            "both": lambda: log_twisted_tensor(inst, 1, phi.rows, psi.rows),
        }[mixed]
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * inst.transition.nbytes

    def test_kernel_bytes_do_not_depend_on_blas_threads(self):
        script = (
            "import hashlib, numpy as np, rsgame as rs\n"
            "inst = rs.random_instance(0, dims=(120, 12, 12), min_prob=1e-3)\n"
            "rng = np.random.default_rng(0)\n"
            "phi = rs.StationaryStrategy(1, rng.dirichlet(np.ones(12), size=120))\n"
            "psi = rs.StationaryStrategy(2, rng.dirichlet(np.ones(12), size=120))\n"
            "for player, opponent in ((1, psi), (2, phi)):\n"
            "    kernel = rs.bellman._solve_kernel(inst, player, opponent)\n"
            "    held = kernel.shift.tobytes() + kernel.p_t.tobytes()\n"
            "    print(hashlib.sha256(held).hexdigest())\n"
            "    log_q = rs.log_twisted_tensor(inst, player, phi.rows, psi.rows)\n"
            "    print(hashlib.sha256(log_q.tobytes()).hexdigest())\n"
        )
        src = str(Path(rs.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0].split()) == 4
        assert outputs[0] == outputs[1]


def table_core(inst: rs.GameInstance, player: int, phi=None, psi=None) -> np.ndarray:
    """The table route's kernel, whatever decomposition the instance carries: ln R + sigma."""
    with np.errstate(divide="ignore"):
        sigma, _, mixed = transforms._table_side(inst, player, slice(None), phi, psi)
        return np.log(mixed) + sigma[..., None]


def sparse_rows(rng: np.random.Generator, shape) -> np.ndarray:
    """Dirichlet strategy rows with about a third of the weights set to zero."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    zero = rng.random(shape) < 1 / 3
    zero[..., rng.integers(shape[-1])] = False  # every row keeps some weight
    rows[zero] = 0.0
    return rows / rows.sum(axis=-1, keepdims=True)


def split_mixes(rng: np.random.Generator, inst: rs.GameInstance) -> list:
    """(phi, psi) to mix: each side alone, both, and brute force's batch shapes."""
    nx, na, nb = inst.n_states, inst.n_actions_a, inst.n_actions_b
    phi, psi = sparse_rows(rng, (nx, na)), sparse_rows(rng, (nx, nb))
    return [
        (None, psi), (phi, None), (phi, psi),
        (None, sparse_rows(rng, (3, nx, nb))),  # best replies against Psi maps
        (sparse_rows(rng, (2, nx, na)), None),  # ... and against Phi maps
        (sparse_rows(rng, (2, 1, nx, na)), sparse_rows(rng, (1, 3, nx, nb))),  # point tables
    ]


def route_kernels(inst: rs.GameInstance, phi, psi):
    """(kernel, table core) pairs of one mix from split_mixes.

    With both strategies, ln Q of each player; with one, the kernel a solve
    of the player it opposes sweeps, for each strategy of the batch.
    """
    if phi is not None and psi is not None:
        for player in (1, 2):
            yield log_twisted_tensor(inst, player, phi, psi), table_core(inst, player, phi, psi)
        return
    player, rows = (1, psi) if phi is None else (2, phi)
    for one in rows.reshape(-1, *rows.shape[-2:]):
        opponent = rs.StationaryStrategy(3 - player, one)
        mixed = {"psi" if player == 1 else "phi": opponent.rows}
        yield solve_log_kernel(inst, player, opponent), table_core(inst, player, **mixed)


class TestSplitRoute:
    """Kernels through an exact additive decomposition, against the table core."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2, 2), (3, 2, 3), (4, 3, 2)]),
        seed=st.integers(0, 2**16),
        log_theta=st.floats(-3.0, 3.0),
    )
    def test_matches_the_table_core(self, dims, seed, log_theta):
        inst = lifted_arat_instance(seed, dims, 10.0 ** log_theta)
        assert inst._exact_arat is not None
        rng = np.random.default_rng(seed)
        for phi, psi in split_mixes(rng, inst):
            for got, want in route_kernels(inst, phi, psi):
                assert_within_ulps(got, want, 8)

    def test_vanishing_transitions_are_minus_inf_where_the_table_has_them(self):
        rng = np.random.default_rng(21)
        nx, na, nb = 4, 3, 2
        share = rng.uniform(0.3, 0.7, size=nx)[:, None, None]
        d1 = rng.dirichlet(np.ones(nx), size=(nx, na))
        d2 = rng.dirichlet(np.ones(nx), size=(nx, nb))
        d1[0, :, 1] = d2[0, :, 1] = 0.0  # state 1 unreachable from state 0
        d1[2, 1, 3] = d2[2, :, 3] = 0.0  # state 3 from 2 only when a != 1
        d1 /= d1.sum(-1, keepdims=True)
        d2 /= d2.sum(-1, keepdims=True)
        costs = rng.uniform(0.0, 0.5, size=(4, nx, 3))
        inst = rs.assemble_from_arat(rs.AratStructure(
            share * d1, (1.0 - share) * d2,
            costs[0, :, :na], costs[1, :, :na], costs[2, :, :nb], costs[3, :, :nb],
        ), theta=2.0)
        assert inst._exact_arat is not None
        assert not inst._positive
        for phi, psi in split_mixes(rng, inst):
            for got, want in route_kernels(inst, phi, psi):
                assert np.isneginf(got).any()
                assert_within_ulps(got, want, 8)

    @pytest.mark.parametrize("decomposition", ["none", "p1 one ulp off", "c12 one ulp off"])
    def test_inexact_or_missing_decomposition_takes_the_table_route(self, decomposition):
        inst = rs.random_instance(3, dims=(4, 3, 2), min_prob=1e-3, arat_flag=True)
        a = inst.arat
        if decomposition == "none":
            arat = None
        else:
            p1, c12 = a.p1.copy(), a.c12.copy()
            if decomposition.startswith("p1"):
                p1[1, 2, 3] = np.nextafter(p1[1, 2, 3], 1.0)
            else:
                c12[3, 0] = np.nextafter(c12[3, 0], 1.0)
            arat = rs.AratStructure(p1, a.p2, a.c11, a.c21, c12, a.c22)
        inst = rs.GameInstance(inst.transition, inst.cost1, inst.cost2, inst.theta, 0, arat)
        assert inst._exact_arat is None
        for phi, psi in split_mixes(np.random.default_rng(3), inst):
            for got, want in route_kernels(inst, phi, psi):
                assert_array_equal(got, want)

    def test_exactness_is_decided_once_per_instance(self, decisions):
        # an assembled instance knows its decomposition exact from construction,
        # and so does one loaded from its decomposition-only document; a full
        # document's tables are given, and compared with the decomposition once
        assembled = rs.random_instance(4, dims=(5, 3, 2), min_prob=1e-3, arat_flag=True)
        loaded = rs.instance_from_dict(full_document(assembled))
        reassembled = rs.instance_from_dict(rs.instance_to_dict(assembled))
        phi, psi = random_pair(loaded, np.random.default_rng(4))
        for inst, decided in ((loaded, [loaded]), (assembled, []), (reassembled, [])):
            for player, opponent in ((1, psi), (2, phi)):
                log_twisted_tensor(inst, player, phi.rows, psi.rows)
                rs.bellman._solve_kernel(inst, player, opponent)
                rs.normalized_kernel(inst, player, 0, phi.rows[0], psi.rows[0])
            rs.solve_optimality(inst, 1, psi)
            rs.epsilon_gap(inst, phi, psi)
            assert decisions == decided
            decisions.clear()
        assert assembled._exact_arat is assembled.arat
        other = dataclasses.replace(loaded, theta=2.0)
        log_twisted_tensor(other, 2, phi.rows, psi.rows)
        assert decisions == [other]

    def test_solvers_run_without_the_table_core(self, g2, monkeypatch):
        def refused(*args):
            raise AssertionError("the table core was used on an exact-split instance")

        monkeypatch.setattr(transforms, "_table_side", refused)
        monkeypatch.setattr(rs.bellman, "_table_side", refused)
        phi, psi = random_pair(g2, np.random.default_rng(5))
        assert rs.solve_optimality(g2, 1, psi).converged
        assert rs.solve_optimality(g2, 2, phi).converged
        j1 = rs.ergodic_cost(g2, 1, phi, psi)
        assert rs.finite_horizon_growth(g2, 1, phi, psi, 0, 60) == pytest.approx(j1, abs=1e-9)
        c_hat, _ = rs.normalized_kernel(g2, 2, 1, phi.rows[1], psi.rows[1])
        assert np.isfinite(c_hat)
        assert len(rs.brute_force_nash(g2, grid_step=0.25, eps=0.05)) == 3


class TestMixTransition:
    def test_pure_masses_select_rows(self, g2):
        row = mix_transition(g2, 1, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert_allclose(row, g2.transition[1, 1, 0], atol=1e-15)

    def test_uniform_mix_on_fixture(self, g2):
        row = mix_transition(g2, 0, UNIFORM2, UNIFORM2)
        assert_allclose(row, [0.35, 0.65], atol=1e-15)

    def test_matches_double_loop(self):
        inst = corpus_instance(9)
        rng = np.random.default_rng(9)
        phi, psi = random_pair(inst, rng)
        for x in range(inst.n_states):
            expected = np.zeros(inst.n_states)
            for a in range(inst.n_actions_a):
                for b in range(inst.n_actions_b):
                    expected += phi.rows[x, a] * psi.rows[x, b] * inst.transition[x, a, b]
            assert_allclose(
                mix_transition(inst, x, phi.rows[x], psi.rows[x]),
                expected,
                rtol=1e-13,
            )


class TestNormalizer:
    def test_zero_cost_gives_one(self):
        inst = zero_cost_instance()
        rng = np.random.default_rng(1)
        phi, psi = random_pair(inst, rng)
        for x in range(inst.n_states):
            c_hat, _ = rs.normalized_kernel(inst, 1, x, phi.rows[x], psi.rows[x])
            val = math.exp(c_hat)
            assert val == pytest.approx(1.0, abs=1e-13)

    def test_pure_pair_is_exp_cost(self, g2):
        c_hat, _ = rs.normalized_kernel(g2, 1, 1, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        val = math.exp(c_hat)
        assert val == pytest.approx(math.exp(g2.cost1[1, 1, 1]), rel=1e-15)

    def test_fixture_uniform_values(self, g2):
        c1 = math.exp(rs.normalized_kernel(g2, 1, 0, UNIFORM2, UNIFORM2)[0])
        assert c1 == pytest.approx(1.3049957091090754, abs=1e-15)
        c2 = math.exp(rs.normalized_kernel(g2, 2, 0, UNIFORM2, UNIFORM2)[0])
        assert c2 == pytest.approx(1.6500372698745871, abs=1e-15)
        # additive costs factor the normalizer across the two players
        assert c2 == pytest.approx(
            0.25 * (1.0 + math.exp(0.4)) * (math.exp(0.5) + 1.0), rel=1e-15
        )

    def test_uniform_vs_pure_opponent_grid(self, g2):
        # ln c~_2(x, uniform, pure b) enumerated over all four (x, b) cells
        expected = {
            (0, 0): 0.71986807184000734,
            (0, 1): 0.21986807184000734,
            (1, 0): 0.81986807184000721,
            (1, 1): 0.31986807184000737,
        }
        for (x, b), want in expected.items():
            pure = np.zeros(2)
            pure[b] = 1.0
            got, _ = rs.normalized_kernel(g2, 2, x, UNIFORM2, pure)
            assert got == pytest.approx(want, abs=1e-14)

    def test_additive_factorization_on_random_arat(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            inst = corpus_instance(seed, arat=True, dims=(2, 2, 2))
            arat = inst.arat
            for _ in range(50):
                x = int(rng.integers(inst.n_states))
                phi, psi = random_pair(inst, rng)
                f1 = float(np.exp(arat.c21[x]) @ phi.rows[x])
                f2 = float(np.exp(arat.c22[x]) @ psi.rows[x])
                c_hat, _ = rs.normalized_kernel(inst, 2, x, phi.rows[x], psi.rows[x])
                got = math.exp(c_hat)
                assert got == pytest.approx(f1 * f2, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        w1=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
        w2=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
        x=st.integers(0, 1),
        player=st.integers(1, 2),
    )
    def test_bounds_hold_for_any_mixture(self, w1, w2, x, player):
        """c~ always lies in [1, e^{theta * c_bar}]."""
        g2 = rs.g2_instance()
        phi = np.array(w1) / np.sum(w1)
        psi = np.array(w2) / np.sum(w2)
        val = math.exp(rs.normalized_kernel(g2, player, x, phi, psi)[0])
        assert 1.0 - 1e-12 <= val <= math.exp(g2.theta * g2.c_bar) + 1e-12


class TestNormalizedKernel:
    def test_consistency_with_parts(self, g2):
        rng = np.random.default_rng(3)
        for _ in range(20):
            phi, psi = random_pair(g2, rng)
            x = int(rng.integers(2))
            c_hat, p_hat = rs.normalized_kernel(g2, 2, x, phi.rows[x], psi.rows[x])
            assert p_hat.sum() == pytest.approx(1.0, abs=1e-12)
            weights = np.outer(phi.rows[x], psi.rows[x]) * np.exp(g2.cost2[x])
            assert math.exp(c_hat) == pytest.approx(weights.sum(), rel=1e-15)
            # un-normalizing must recover the mixed twisted row
            mixed = np.einsum("ab,aby->y", weights, g2.transition[x])
            assert_allclose(p_hat * math.exp(c_hat), mixed, rtol=1e-13)

    def test_zero_cost_reduces_to_plain_mixing(self):
        inst = zero_cost_instance(seed=2)
        rng = np.random.default_rng(2)
        phi, psi = random_pair(inst, rng)
        for x in range(inst.n_states):
            c_hat, p_hat = rs.normalized_kernel(inst, 1, x, phi.rows[x], psi.rows[x])
            assert math.exp(c_hat) == pytest.approx(1.0, abs=1e-13)
            assert_allclose(
                p_hat,
                mix_transition(inst, x, phi.rows[x], psi.rows[x]),
                rtol=1e-12,
            )

    def test_pure_pair_recovers_transition_row(self, g2):
        _, p_hat = rs.normalized_kernel(g2, 1, 1, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert_allclose(p_hat, g2.transition[1, 0, 1], rtol=1e-15)

    def test_fixture_uniform_row_against_loop(self, g2):
        _, p_hat = rs.normalized_kernel(g2, 2, 0, UNIFORM2, UNIFORM2)
        num = np.zeros(2)
        den = 0.0
        for a in range(2):
            for b in range(2):
                w = 0.25 * math.exp(g2.cost2[0, a, b])
                num += w * g2.transition[0, a, b]
                den += w
        assert den == pytest.approx(1.6500372698745871, abs=1e-15)
        assert_allclose(p_hat, num / den, rtol=1e-14)

    @pytest.mark.parametrize("dims, theta", [
        ((2, 2, 2), 1.0), ((5, 3, 4), 0.01), ((40, 5, 5), 30.0), ((7, 1, 3), 1e3),
    ])
    def test_one_row_matches_the_all_rows_form(self, dims, theta):
        inst = rs.random_instance(4, dims=dims, min_prob=1e-3, theta=theta)
        rng = np.random.default_rng(4)
        phi, psi = random_pair(inst, rng)
        for x in (0, dims[0] - 1):
            for player in (1, 2):
                c_hat, p_hat = rs.normalized_kernel(inst, player, x, phi.rows[x], psi.rows[x])
                c_ref, p_ref = all_rows_normalized_kernel(
                    inst, player, x, phi.rows[x], psi.rows[x])
                assert abs(c_hat - c_ref) <= np.spacing(abs(c_ref))
                assert np.all(np.abs(p_hat - p_ref) <= np.spacing(p_ref))

    def test_state_out_of_range_is_refused(self, g2):
        """x goes through the scalar gate: no negative index, bool or float is a state."""
        for x, message in ((2, "x must be in [0, 2), got 2"),
                           (-3, "x must be in [0, 2), got -3"),
                           (-1, "x must be in [0, 2), got -1"),
                           (True, "x must be an integer, got True"),
                           (1.0, "x must be an integer, got 1.0")):
            with pytest.raises(ValueError) as raised:
                rs.normalized_kernel(g2, 1, x, UNIFORM2, UNIFORM2)
            assert str(raised.value) == message
        assert rs.normalized_kernel(g2, 1, np.int64(1), UNIFORM2, UNIFORM2)[0] == (
            rs.normalized_kernel(g2, 1, 1, UNIFORM2, UNIFORM2)[0])

    def test_nan_rows_are_refused(self, g2):
        nan = np.array([np.nan, np.nan])
        for phi, psi in ((nan, UNIFORM2), (UNIFORM2, nan)):
            with pytest.raises(ValueError, match="not a probability vector"):
                rs.normalized_kernel(g2, 1, 0, phi, psi)
            with pytest.raises(ValueError, match="not a probability vector"):
                rs.mixed_objective(g2, 2, 0, phi, psi, np.zeros(2))
            with pytest.raises(ValueError, match="not a probability vector"):
                rs.dual_value(g2, 2, 0, phi, psi, np.zeros(2))

    def test_rejects_non_simplex_inputs(self, g2):
        with pytest.raises(ValueError):
            rs.normalized_kernel(g2, 1, 0, np.array([0.7, 0.7]), UNIFORM2)
        with pytest.raises(ValueError):
            rs.normalized_kernel(g2, 1, 0, np.array([1.5, -0.5]), UNIFORM2)
        with pytest.raises(ValueError):
            rs.normalized_kernel(g2, 1, 0, np.array([1.0]), UNIFORM2)


@pytest.fixture(params=["split", "table"])
def g2_route(request, g2):
    """g2, whose exact decomposition takes the split route, and its table-only copy."""
    if request.param == "split":
        assert g2._exact_arat is not None
        return g2
    return rs.GameInstance(g2.transition, g2.cost1, g2.cost2, g2.theta)


class TestScalarGate:
    """player and x go through the scalar gate on both routes."""

    PLAYERS = [(0, "player must be in [1, 2], got 0"),
               (3, "player must be in [1, 2], got 3"),
               (2.0, "player must be an integer, got 2.0"),
               ("1", "player must be an integer, got '1'"),
               (True, "player must be an integer, got True")]

    @pytest.mark.parametrize("player, message", PLAYERS)
    def test_log_twisted_tensor(self, g2_route, player, message):
        rows = np.full((2, 2), 0.5)
        with pytest.raises(ValueError) as raised:
            log_twisted_tensor(g2_route, player, rows, rows)
        assert str(raised.value) == message

    @pytest.mark.parametrize("player, message", PLAYERS)
    def test_ergodic_cost(self, g2_route, player, message):
        phi, psi = rs.uniform_strategy(g2_route, 1), rs.uniform_strategy(g2_route, 2)
        for kernel in (None, rs.solve_optimality(g2_route, 1, psi).kernel):
            with pytest.raises(ValueError) as raised:
                rs.ergodic_cost(g2_route, player, phi, psi, kernel=kernel)
            assert str(raised.value) == message

    @pytest.mark.parametrize("player, message", PLAYERS)
    def test_normalized_kernel(self, g2_route, player, message):
        with pytest.raises(ValueError) as raised:
            rs.normalized_kernel(g2_route, player, 0, UNIFORM2, UNIFORM2)
        assert str(raised.value) == message

    def test_numpy_integers_are_players(self, g2_route):
        rows = np.full((2, 2), 0.5)
        for player in (1, 2):
            assert_array_equal(log_twisted_tensor(g2_route, np.int64(player), rows, rows),
                               log_twisted_tensor(g2_route, player, rows, rows))


class TestStrategyRows:
    """Strategy rows into log_twisted_tensor are probability rows over every state."""

    @pytest.mark.parametrize("bad, message", [
        (np.full((2, 2), 5.0), "is not a probability vector"),
        (np.array([[1.5, -0.5], [0.5, 0.5]]), "is not a probability vector"),
        (np.array([[np.nan, 0.5], [0.5, 0.5]]), "is not a probability vector"),
        (np.array([[0.5, 0.5 + 2e-9], [0.5, 0.5]]), "is not a probability vector"),
        (np.array([[1.0, 0.0]]), r"must have shape \(2, 2\), got \(1, 2\)"),
        (np.array([1.0, 0.0]), r"must have shape \(2, 2\), got \(2,\)"),
        (np.full((3, 2, 3), 1 / 3), r"must have shape \(3, 2, 2\), got \(3, 2, 3\)"),
    ], ids=["sum-10", "negative", "nan", "sum-off", "one-state", "vector", "actions"])
    def test_bad_rows_are_refused(self, g2_route, bad, message):
        good = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="phi " + message):
            log_twisted_tensor(g2_route, 1, bad, good)
        with pytest.raises(ValueError, match="psi " + message):
            log_twisted_tensor(g2_route, 2, good, bad)

    def test_rows_within_the_tolerance_are_kept_as_given(self, g2_route):
        """No renormalization: a row summing to 1 + 5e-10 mixes in as it is."""
        rows = np.full((2, 2), 0.5)
        drift = rows.copy()
        drift[0] += 2.5e-10
        scaled = log_twisted_tensor(g2_route, 1, drift, rows)
        assert_allclose(scaled[0] - log_twisted_tensor(g2_route, 1, rows, rows)[0],
                        np.log1p(5e-10), rtol=1e-6)


class TestTwistedMeasure:
    def test_flat_values_leave_measure_unchanged(self):
        p = np.array([0.2, 0.5, 0.3])
        assert_allclose(rs.twisted_measure(p, np.zeros(3)), p, rtol=1e-15)

    def test_two_point_literal(self):
        mu = rs.twisted_measure(np.array([0.5, 0.5]), np.array([math.log(2.0), 0.0]))
        assert_allclose(mu, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(5))
        v = rng.normal(size=5)
        assert_allclose(
            rs.twisted_measure(p, v), rs.twisted_measure(p, v + 7.5), rtol=1e-13
        )

    def test_maximizes_linear_minus_entropy(self):
        """mu* attains the sup of mu.v - KL(mu || p) over the simplex."""
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(4))
        v = rng.normal(scale=2.0, size=4)
        mu_star = rs.twisted_measure(p, v)
        best = float(mu_star @ v) - rs.relative_entropy(mu_star, p)
        for _ in range(2000):
            mu = rng.dirichlet(np.ones(4))
            val = float(mu @ v) - rs.relative_entropy(mu, p)
            assert val <= best + 1e-12
        # and the attained value is the log-partition function
        assert best == pytest.approx(math.log(float(p @ np.exp(v))), abs=1e-12)

    def test_empty_support_raises(self):
        with pytest.raises(ValueError, match="mass"):
            rs.twisted_measure(np.zeros(3), np.zeros(3))


class TestRelativeEntropy:
    def test_identical_is_zero(self):
        p = np.array([0.3, 0.7])
        assert rs.relative_entropy(p, p) == 0.0

    def test_point_vs_uniform_literal(self):
        assert rs.relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), rel=1e-15
        )

    def test_off_support_is_infinite(self):
        assert rs.relative_entropy([1.0, 0.0], [0.0, 1.0]) == np.inf
        assert rs.relative_entropy([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            kl = rs.relative_entropy(p, q)
            assert kl >= 0.0
            assert kl > 0.0  # distinct draws almost surely differ


class TestFrozenPair:
    def test_rows_and_costs_match_normalized_kernel(self, g2, g2_uniform):
        phi, psi = g2_uniform
        frozen = frozen_pair_instance(g2, 2, phi, psi)
        assert frozen.n_actions_a == frozen.n_actions_b == 1
        for x in range(2):
            c_hat, p_hat = rs.normalized_kernel(g2, 2, x, phi.rows[x], psi.rows[x])
            assert_allclose(frozen.transition[x, 0, 0], p_hat, rtol=1e-14)
            assert frozen.cost2[x, 0, 0] == pytest.approx(c_hat / g2.theta, rel=1e-15)
        assert_array_equal(frozen.cost1, np.zeros((2, 1, 1)))
        assert frozen.theta == g2.theta

    def test_preserves_ergodic_value(self, g2, g2_uniform):
        phi, psi = g2_uniform
        for player in (1, 2):
            frozen = frozen_pair_instance(g2, player, phi, psi)
            one_a = rs.uniform_strategy(frozen, 1)
            one_b = rs.uniform_strategy(frozen, 2)
            assert rs.ergodic_cost(frozen, player, one_a, one_b) == pytest.approx(
                rs.ergodic_cost(g2, player, phi, psi), abs=1e-12
            )
