"""End-to-end acceptance gate.

Eight criteria, each with a stated tolerance and (where applicable) a
runtime budget.  Every test prints exactly one PASS/FAIL line to the
terminal, bypassing capture, so a full run reads as a checklist.
"""
import time

import numpy as np
import pytest

import rsgame as rs
from rsgame.transforms import relative_entropy

from helpers import (
    corpus_instance,
    enumerate_delta,
    enumerate_kappa,
    frozen_pair_instance,
    logsumexp,
    random_pair,
)


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_growth_matches_spectral_radius(capsys):
    """200 random instances: n=2000 growth and frozen-pair VI vs. perron."""
    ok = False
    detail = "did not complete"
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_growth = 0.0
        worst_vi = 0.0
        for seed in range(200):
            inst = corpus_instance(seed)
            phi, psi = random_pair(inst, rng)
            for player in (1, 2):
                direct = rs.ergodic_cost(inst, player, phi, psi)
                growth = rs.finite_horizon_growth(inst, player, phi, psi, x=0, n=2000)
                worst_growth = max(worst_growth, abs(direct - growth))
                frozen = frozen_pair_instance(inst, player, phi, psi)
                res = rs.solve_optimality(
                    frozen, player, rs.uniform_strategy(frozen, 3 - player)
                )
                worst_vi = max(worst_vi, abs(res.rho - direct))
        elapsed = time.perf_counter() - t0
        detail = (
            f"max |growth - perron| {worst_growth:.2e} (tol 1e-5), "
            f"max |frozen VI - perron| {worst_vi:.2e} (tol 1e-8), "
            f"{elapsed:.1f}s of 30s"
        )
        assert worst_growth <= 1e-5
        assert worst_vi <= 1e-8
        assert elapsed <= 30.0
        ok = True
    finally:
        _report(capsys, 1, ok, detail)


def test_criterion_2_contraction_and_solver_convergence(capsys):
    """Measured modulus < 1, residual < 1e-12, span within the a priori bound."""
    ok = False
    detail = "did not complete"
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_ratio = 0.0
        worst_residual = 0.0
        worst_span_excess = -np.inf
        for seed in range(200):
            inst = corpus_instance(seed)
            phi, psi = random_pair(inst, rng)
            bound = rs.validate(inst, min_prob=0.02).span_bound
            for player, opp in ((1, psi), (2, phi)):
                ratio = rs.measured_contraction(inst, player, opp)
                worst_ratio = max(worst_ratio, ratio)
                res = rs.solve_optimality(inst, player, opp)
                assert res.converged and res.iterations <= 100_000
                worst_residual = max(worst_residual, res.residual)
                worst_span_excess = max(worst_span_excess, rs.span(res.v) - bound)
        elapsed = time.perf_counter() - t0
        detail = (
            f"max contraction ratio {worst_ratio:.6f} (< 1), "
            f"max residual {worst_residual:.2e} (< 1e-12), "
            f"max span excess {worst_span_excess:.2e} (<= 1e-9), "
            f"{elapsed:.1f}s of 60s"
        )
        assert worst_ratio < 1.0
        assert worst_residual < 1e-12
        assert worst_span_excess <= 1e-9
        assert elapsed <= 60.0
        ok = True
    finally:
        _report(capsys, 2, ok, detail)


def test_criterion_3_entropy_dual_representation(capsys):
    """Direct and dual operator forms agree; the twisted measure maximizes."""
    ok = False
    detail = "did not complete"
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(33)
        instances = [corpus_instance(seed) for seed in range(20)]
        worst_diff = 0.0
        worst_shortfall = -np.inf
        for trial in range(1000):
            inst = instances[trial % len(instances)]
            x = int(rng.integers(inst.n_states))
            phi, psi = random_pair(inst, rng)
            v = rng.normal(scale=2.0, size=inst.n_states)
            direct = rs.mixed_objective(inst, 2, x, phi.rows[x], psi.rows[x], v)
            dual = rs.dual_value(inst, 2, x, phi.rows[x], psi.rows[x], v)
            worst_diff = max(worst_diff, abs(direct - dual))
            # the twisted measure must beat 1e4 random simplex points
            _, p_hat = rs.normalized_kernel(inst, 2, x, phi.rows[x], psi.rows[x])
            mu_star = rs.twisted_measure(p_hat, v)
            best = float(mu_star @ v) - relative_entropy(mu_star, p_hat)
            mus = rng.dirichlet(np.ones(inst.n_states), size=10_000)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(mus > 0.0, mus / p_hat, 1.0)
                kl = np.where(mus > 0.0, mus * np.log(ratio), 0.0).sum(axis=1)
            values = mus @ v - kl
            worst_shortfall = max(worst_shortfall, float(values.max()) - best)
        elapsed = time.perf_counter() - t0
        detail = (
            f"max |direct - dual| {worst_diff:.2e} (tol 1e-10), "
            f"max sampled excess over mu* {worst_shortfall:.2e} (< 0 expected), "
            f"{elapsed:.1f}s of 20s"
        )
        assert worst_diff <= 1e-10
        assert worst_shortfall <= 1e-12
        assert elapsed <= 20.0
        ok = True
    finally:
        _report(capsys, 3, ok, detail)


def test_criterion_4_best_response_optimality(capsys):
    """rho2* lower-bounds every sampled reply and is attained at the selector."""
    ok = False
    detail = "did not complete"
    try:
        rng = np.random.default_rng(44)
        worst_violation = -np.inf
        worst_attainment = 0.0
        for seed in range(100):
            inst = corpus_instance(seed)
            phi, _ = random_pair(inst, rng)
            res = rs.solve_optimality(inst, 2, phi)
            for _ in range(50):
                _, psi = random_pair(inst, rng)
                j2 = rs.ergodic_cost(inst, 2, phi, psi)
                worst_violation = max(worst_violation, res.rho - j2)
            sel = rs.pure_strategy(inst, 2, res.selector)
            attained = rs.ergodic_cost(inst, 2, phi, sel)
            worst_attainment = max(worst_attainment, abs(attained - res.rho))
        detail = (
            f"max rho2* excess over sampled replies {worst_violation:.2e} "
            f"(tol 1e-8), max |selector value - rho2*| {worst_attainment:.2e} "
            f"(tol 1e-8)"
        )
        assert worst_violation <= 1e-8
        assert worst_attainment <= 1e-8
        ok = True
    finally:
        _report(capsys, 4, ok, detail)


def test_criterion_5_equilibrium_search_at_desk_scale(capsys):
    """Dynamics certify 1e-6 pairs; the 0.05 grid always keeps survivors."""
    ok = False
    detail = "did not complete"
    try:
        t0 = time.perf_counter()
        instances = [rs.g2_instance()] + [
            corpus_instance(seed, arat=True, dims=(2, 2, 2)) for seed in range(20)
        ]
        dynamics_failures = []
        worst_gap = 0.0
        worst_brute_gap = 0.0
        for i, inst in enumerate(instances):
            cert = rs.best_response_dynamics(inst)
            if cert.converged and rs.verify_certificate(inst, cert, eps=1e-6):
                worst_gap = max(worst_gap, cert.max_gap)
            else:
                dynamics_failures.append(i)  # logged below, never masked
            result = rs.brute_force_nash(inst, grid_step=0.05, eps=0.05)
            assert len(result) > 0
            assert result.existence_guaranteed
            worst_brute_gap = max(worst_brute_gap, result[0].max_gap)
            assert all(c.max_gap <= 0.05 + 1e-12 for c in result)
        elapsed = time.perf_counter() - t0
        failure_note = (
            f"dynamics failed on instances {dynamics_failures} "
            "(existence still certified by grid search), "
            if dynamics_failures
            else ""
        )
        detail = (
            f"{failure_note}max certified gap {worst_gap:.2e} (tol 1e-6), "
            f"best grid gap <= {worst_brute_gap:.2e} on all 21 instances, "
            f"{elapsed:.1f}s of 120s"
        )
        assert worst_gap <= 1e-6
        assert elapsed <= 120.0
        # non-convergence is tolerable only with brute-force existence, which
        # was asserted instance by instance above
        ok = True
    finally:
        _report(capsys, 5, ok, detail)


def test_criterion_6_mixed_replies_never_beat_pure(capsys):
    """The inner objective is minimized at a vertex: 1e3 mixtures per state."""
    ok = False
    detail = "did not complete"
    try:
        rng = np.random.default_rng(66)
        worst = -np.inf
        checked = 0
        for seed in range(20):
            inst = corpus_instance(seed)
            phi, _ = random_pair(inst, rng)
            v = rng.normal(size=inst.n_states)
            vals = rs.action_values(inst, 2, phi, v)
            for x in range(inst.n_states):
                pure_min = vals[x].min()
                mixtures = rng.dirichlet(np.ones(inst.n_actions_b), size=1000)
                mixed = logsumexp(
                    np.log(np.maximum(mixtures, 1e-300)) + vals[x], axis=1
                )
                worst = max(worst, float((pure_min - mixed).max()))
                checked += mixtures.shape[0]
                # spot-check the vectorization against the public op
                sample = rs.mixed_objective(
                    inst, 2, x, phi.rows[x], mixtures[0], v
                )
                assert sample == pytest.approx(float(mixed[0]), abs=1e-10)
        detail = (
            f"max (pure min - mixed objective) {worst:.2e} over {checked} "
            f"mixtures (tol 1e-12)"
        )
        assert worst <= 1e-12
        ok = True
    finally:
        _report(capsys, 6, ok, detail)


def test_criterion_7_simulation_consistency(capsys):
    """MC increments land within 3 reported SEs of the exact growth."""
    ok = False
    detail = "did not complete"
    try:
        t0 = time.perf_counter()
        g2 = rs.g2_instance()
        phi = rs.uniform_strategy(g2, 1)
        psi = rs.uniform_strategy(g2, 2)
        exact = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=50)
        hits = 0
        for rep in range(100):
            _, est = rs.mc_cost_estimate(
                g2, phi, psi, x=0, n=50, n_paths=10_000, seed=rep
            )
            hits += abs(est.value - exact) <= 3.0 * est.std_error
        elapsed = time.perf_counter() - t0
        detail = f"{hits}/100 within 3 SE (need >= 95), {elapsed:.1f}s of 60s"
        assert hits >= 95
        assert elapsed <= 60.0
        ok = True
    finally:
        _report(capsys, 7, ok, detail)


def test_criterion_8_assumption_validators(capsys):
    """Violations FAIL naming the right assumption; the fixture enumerates clean."""
    ok = False
    detail = "did not complete"
    try:
        g2 = rs.g2_instance()

        zero_entry = np.zeros((2, 1, 1, 2))
        zero_entry[0, 0, 0, 0] = 0.4
        zero_entry[0, 0, 0, 1] = 0.6
        zero_entry[1, 0, 0, 1] = 1.0
        inst = rs.GameInstance(zero_entry, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        diag = rs.validate(inst)
        assert diag.checks["3.2"].status == "FAIL"
        assert diag.checks["3.2"].message.startswith("Assumption 3.2:")
        assert "kappa" in diag.checks["3.2"].message

        disjoint = np.zeros((2, 1, 1, 2))
        disjoint[0, 0, 0, 0] = 1.0
        disjoint[1, 0, 0, 1] = 1.0
        inst = rs.GameInstance(disjoint, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        diag = rs.validate(inst)
        assert diag.delta == 1.0
        assert diag.checks["2(i)"].status == "FAIL"
        assert diag.checks["2(i)"].message.startswith("Assumption 2(i):")

        broken_t = g2.transition.copy()
        broken_t[:, :, :, 0] += 0.01
        broken_t[:, :, :, 1] -= 0.01
        diag = rs.validate(rs.GameInstance(broken_t, g2.cost1, g2.cost2, arat=g2.arat))
        assert diag.checks["4.1"].status == "FAIL"
        assert diag.checks["4.1"].message.startswith("Assumption 4.1:")

        diag = rs.validate(
            rs.GameInstance(g2.transition, g2.cost1 + 0.05, g2.cost2, arat=g2.arat)
        )
        assert diag.checks["4.2"].status == "FAIL"
        assert diag.checks["4.2"].message.startswith("Assumption 4.2:")

        clean = rs.validate(g2)
        assert clean.passed
        assert clean.delta == enumerate_delta(g2)
        assert clean.kappa == enumerate_kappa(g2)
        assert clean.delta == pytest.approx(0.4, abs=1e-14)
        assert clean.kappa == pytest.approx(1.5, abs=1e-14)
        detail = (
            f"violations named correctly; fixture delta {clean.delta:.15g}, "
            f"kappa {clean.kappa:.15g}"
        )
        ok = True
    finally:
        _report(capsys, 8, ok, detail)
