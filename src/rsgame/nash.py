"""Best responses, deviation-gap certificates, and equilibrium search.

A strategy pair is an eps-Nash point when neither player can lower their
ergodic value by more than eps through any unilateral stationary deviation.
Certification is direct: the pair's values J_i come from the spectral
oracle, the best-achievable values rho_i* from the opponent-fixed Bellman
solver, and the gaps are their differences.  Certificates are therefore
sound regardless of how a candidate pair was produced.

Candidates come from two searchers.  best_response_dynamics runs damped
alternating best responses, smoothed through an annealed logit map to avoid
the discontinuous jumps of exact argmins; convergence is not guaranteed
(cycling is a reportable outcome, not a bug), so the best certificate seen
is always returned, with a cycle report on failure.  brute_force_nash
enumerates a per-state simplex grid outright and certifies every pair —
viable only at desk scale, but an oracle the dynamics can be checked
against.  Equilibrium existence is only guaranteed for instances carrying a
verified additive (per-player) decomposition; brute-force output on other
instances is labeled accordingly.  When several equilibria survive, all are
reported without preference.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .bellman import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SolveResult,
    action_values,
    apply_T,
    relative_value_iteration,
    solve_optimality,
)
from .game_model import (
    GameInstance,
    StationaryStrategy,
    pure_strategy,
    require_solvable,
    strategy_to_dict,
    uniform_strategy,
    validate,
)
from .spectral import ergodic_cost
from .transforms import log_twisted_tensor

#: damping weight on the freshly computed response
DEFAULT_BETA = 0.5
#: logit temperature schedule: start, floor, per-round decay
DEFAULT_TAU_SCHEDULE = (0.1, 1e-4, 0.85)
DEFAULT_MAX_ROUNDS = 500
DEFAULT_EPS_TARGET = 1e-6
#: sliding window of strategy-pair fingerprints scanned for repeats
CYCLE_WINDOW = 50
#: hard cap on the number of grid pairs brute force will enumerate
MAX_GRID_PAIRS = 10_000_000
#: grid pairs evaluated per brute-force chunk, bounding its memory
CHUNK_PAIRS = 250_000


@dataclass(frozen=True, eq=False)
class BestResponse:
    """One player's optimal reply to a fixed opponent strategy.

    tied_actions[x] lists every pure action attaining the per-state minimum
    within the solver tie tolerance; a stationary strategy is a best
    response exactly when its per-state support lies inside these sets.
    response_strategy is the pure representative at the solver's selector.
    """

    solve: SolveResult
    tied_actions: list[np.ndarray]
    response_strategy: StationaryStrategy

    def contains(self, strategy: StationaryStrategy) -> bool:
        """Support-containment membership test for the best-response set."""
        for x in range(strategy.rows.shape[0]):
            support = np.flatnonzero(strategy.rows[x] > 0.0)
            if not np.isin(support, self.tied_actions[x]).all():
                return False
        return True


@dataclass(frozen=True, eq=False)
class NashCertificate:
    """Deviation-gap certificate for a stationary strategy pair.

    eps_i = J_i - rho_i_star measures how much player i could gain by the
    best unilateral deviation; both are nonnegative up to solver noise
    (~1e-9).  The pair is an eps-Nash point iff max_gap <= eps.  cycle, when
    present, is the dynamics' repeating-fingerprint report.
    """

    Phi: StationaryStrategy
    Psi: StationaryStrategy
    J1: float
    J2: float
    rho1_star: float
    rho2_star: float
    eps1: float
    eps2: float
    rounds: int = 0
    converged: bool = True
    cycle: dict | None = None

    @property
    def max_gap(self) -> float:
        return max(self.eps1, self.eps2)


def best_response(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    tol: float = DEFAULT_TOL,
) -> BestResponse:
    """Solve the player's optimality equation and extract the argmin sets."""
    result = solve_optimality(instance, player, opponent_strategy, tol=tol)
    _, tied = apply_T(instance, player, opponent_strategy, result.v)
    return BestResponse(
        solve=result,
        tied_actions=tied,
        response_strategy=pure_strategy(instance, player, result.selector),
    )


def epsilon_gap(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    tol: float = DEFAULT_TOL,
) -> NashCertificate:
    """Certify a pair: spectral values, best-response values, and the gaps."""
    j1 = ergodic_cost(instance, 1, Phi, Psi)
    j2 = ergodic_cost(instance, 2, Phi, Psi)
    rho1 = solve_optimality(instance, 1, Psi, tol=tol).rho
    rho2 = solve_optimality(instance, 2, Phi, tol=tol).rho
    return NashCertificate(
        Phi=Phi, Psi=Psi, J1=j1, J2=j2,
        rho1_star=rho1, rho2_star=rho2,
        eps1=j1 - rho1, eps2=j2 - rho2,
    )


def verify_certificate(
    instance: GameInstance, certificate: NashCertificate, eps: float
) -> bool:
    """Recompute a certificate from scratch and check it, trusting nothing.

    Fresh solver and spectral runs must reproduce every stored value within
    1e-8 and the recomputed max gap must be <= eps.
    """
    fresh = epsilon_gap(instance, certificate.Phi, certificate.Psi)
    stored = (certificate.J1, certificate.J2, certificate.rho1_star,
              certificate.rho2_star, certificate.eps1, certificate.eps2)
    recomputed = (fresh.J1, fresh.J2, fresh.rho1_star,
                  fresh.rho2_star, fresh.eps1, fresh.eps2)
    if any(abs(s - r) > 1e-8 for s, r in zip(stored, recomputed)):
        return False
    return fresh.max_gap <= eps


def _smoothed_rows(values: np.ndarray, tau: float) -> np.ndarray:
    """Logit map over per-state action values: rows proportional to e^{-val/tau}."""
    z = -(values - values.min(axis=1, keepdims=True)) / tau
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def _damp(old_rows: np.ndarray, target_rows: np.ndarray, beta: float) -> np.ndarray:
    mixed = (1.0 - beta) * old_rows + beta * target_rows
    return mixed / mixed.sum(axis=1, keepdims=True)


def _fingerprint(phi_rows: np.ndarray, psi_rows: np.ndarray) -> int:
    return hash((np.round(phi_rows, 9).tobytes(), np.round(psi_rows, 9).tobytes()))


def best_response_dynamics(
    instance: GameInstance,
    init_pair: tuple[StationaryStrategy, StationaryStrategy] | None = None,
    beta: float = DEFAULT_BETA,
    tau_schedule: tuple[float, float, float] | None = DEFAULT_TAU_SCHEDULE,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    eps_target: float = DEFAULT_EPS_TARGET,
    tol: float = DEFAULT_TOL,
) -> NashCertificate:
    """Damped alternating best responses with annealed logit smoothing.

    Each round updates player 1 against the current Psi, then player 2
    against the already-updated Phi:

        Phi <- (1 - beta) Phi + beta * logit_tau(player-1 action values)
        Psi <- (1 - beta) Psi + beta * logit_tau(player-2 action values)

    with the temperature tau annealed geometrically from tau_schedule =
    (tau0, tau_min, decay); tau_schedule=None plays exact (unsmoothed) pure
    responses.  After each round the current pair is certified; the run
    stops as soon as max(eps1, eps2) <= eps_target.  On exhausting
    max_rounds the best certificate seen is returned with converged=False
    and a cycle report when the recent strategy-pair fingerprint window
    contained a repeat.  Non-convergence is a legitimate outcome of this
    class of dynamics and must be handled by the caller.

    Args:
        init_pair: starting (Phi, Psi); uniform randomization by default.
        beta: damping weight in (0, 1] on the new response.
        eps_target: certification target for max(eps1, eps2).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    if eps_target <= 0.0:
        raise ValueError(f"eps_target must be > 0, got {eps_target!r}")
    if tau_schedule is not None:
        tau, tau_min, decay = tau_schedule
        if not (tau > 0.0 and tau_min > 0.0 and 0.0 < decay < 1.0):
            raise ValueError(f"invalid tau_schedule {tau_schedule!r}")
    require_solvable(instance)
    if init_pair is None:
        Phi = uniform_strategy(instance, 1)
        Psi = uniform_strategy(instance, 2)
    else:
        Phi, Psi = init_pair

    best: NashCertificate = epsilon_gap(instance, Phi, Psi, tol=tol)
    if best.max_gap <= eps_target:
        return best
    seen: deque[int] = deque(maxlen=CYCLE_WINDOW)
    cycle: dict | None = None
    solve1 = solve_optimality(instance, 1, Psi, tol=tol)
    for rounds in range(1, int(max_rounds) + 1):
        vals1 = action_values(instance, 1, Psi, solve1.v)
        if tau_schedule is None:
            target1 = pure_strategy(instance, 1, vals1.argmin(axis=1)).rows
        else:
            target1 = _smoothed_rows(vals1, tau)
        Phi = StationaryStrategy(1, _damp(Phi.rows, target1, beta))

        solve2 = solve_optimality(instance, 2, Phi, tol=tol)
        vals2 = action_values(instance, 2, Phi, solve2.v)
        if tau_schedule is None:
            target2 = pure_strategy(instance, 2, vals2.argmin(axis=1)).rows
        else:
            target2 = _smoothed_rows(vals2, tau)
        Psi = StationaryStrategy(2, _damp(Psi.rows, target2, beta))

        # certify the updated pair; solve1 doubles as next round's response
        solve1 = solve_optimality(instance, 1, Psi, tol=tol)
        j1 = ergodic_cost(instance, 1, Phi, Psi)
        j2 = ergodic_cost(instance, 2, Phi, Psi)
        cert = NashCertificate(
            Phi=Phi, Psi=Psi, J1=j1, J2=j2,
            rho1_star=solve1.rho, rho2_star=solve2.rho,
            eps1=j1 - solve1.rho, eps2=j2 - solve2.rho,
            rounds=rounds,
        )
        if cert.max_gap <= eps_target:
            return cert
        if cert.max_gap < best.max_gap:
            best = cert
        fp = _fingerprint(Phi.rows, Psi.rows)
        if fp in seen:
            # distance to the most recent repeat = the cycle's minimal period
            recent = list(seen)
            period = len(recent) - max(i for i, s in enumerate(recent) if s == fp)
            cycle = {"round": rounds, "period": period}
        seen.append(fp)
        if tau_schedule is not None:
            tau = max(tau * decay, tau_min)
    return replace(best, rounds=int(max_rounds), converged=False, cycle=cycle)


# ---------------------------------------------------------------------------
# brute-force grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """Outcome of a grid enumeration: surviving certificates, best first.

    existence_guaranteed is True when the instance carries an additive
    decomposition that checks out numerically; without it an equilibrium
    need not exist and an empty survivor list is not a contradiction.
    Iterating the result iterates the certificates.
    """

    certificates: list[NashCertificate]
    grid_step: float
    eps: float
    searched_pairs: int
    existence_guaranteed: bool

    @property
    def label(self) -> str:
        if self.existence_guaranteed:
            return "existence guaranteed (additive decomposition verified)"
        return "existence not guaranteed (no verified additive decomposition)"

    def __len__(self) -> int:
        return len(self.certificates)

    def __iter__(self):
        return iter(self.certificates)

    def __getitem__(self, i):
        return self.certificates[i]


def _simplex_grid(n: int, step: float) -> np.ndarray:
    """All probability vectors over n atoms with coordinates in multiples of step."""
    k = round(1.0 / step)
    if abs(k * step - 1.0) > 1e-9 or k < 1:
        raise ValueError(f"grid_step {step!r} must evenly divide 1")
    combos = itertools.combinations(range(k + n - 1), n - 1)
    points = []
    for dividers in combos:
        edges = (-1,) + dividers + (k + n - 1,)
        points.append([edges[i + 1] - edges[i] - 1 for i in range(n)])
    return np.array(points, dtype=float) / k


def _strategy_maps(n_states: int, points: np.ndarray) -> np.ndarray:
    """Stack every per-state assignment of grid points: [map, state, action]."""
    m = points.shape[0]
    combos = np.array(list(itertools.product(range(m), repeat=n_states)))
    return points[combos]


def _log_mix(log_table: np.ndarray, log_weights: np.ndarray, axis: int) -> np.ndarray:
    """Weighted log-sum-exp: ln sum_k w_k e^{log_table_k} over one axis.

    log_weights broadcasts against log_table; a zero weight enters as -inf
    and drops out.  Callers guarantee a finite term in every sum (strictly
    positive transitions and weights summing to one).
    """
    # the mixed axis goes first: reductions over a short inner axis are slow
    z = np.ascontiguousarray(np.moveaxis(log_table + log_weights, axis, 0))
    top = z.max(axis=0)
    z -= top
    np.exp(z, out=z)
    return np.log(z.sum(axis=0)) + top


def _rvi_values(log_kernel: np.ndarray, anchor: int, tol: float) -> np.ndarray:
    """Optimal ergodic values of a stack of log kernels L[n, x, own action, y]."""
    result = relative_value_iteration(log_kernel, anchor, tol)
    if not result.converged:
        raise RuntimeError(
            f"batched value iteration did not converge in {DEFAULT_MAX_ITER} steps"
        )
    return result.rho


def _log_perron(log_q: np.ndarray, anchor: int) -> np.ndarray:
    """ln spectral radius of each positive matrix e^{log_q[n]}.

    Two states take the closed form of the larger eigenvalue, scaled by
    m = max(a, d, (b+c)/2) over the log entries [[a, b], [c, d]]; the
    discriminant is a sum of nonnegative terms, so nothing cancels.  Other
    sizes run single-action relative value iteration.
    """
    if log_q.shape[1] != 2:
        return _rvi_values(log_q[:, :, None, :], anchor, DEFAULT_TOL)
    a, b, c, d = log_q[:, 0, 0], log_q[:, 0, 1], log_q[:, 1, 0], log_q[:, 1, 1]
    m = np.maximum(np.maximum(a, d), 0.5 * (b + c))
    ea, ed = np.exp(a - m), np.exp(d - m)
    root = 0.5 * (ea + ed) + np.sqrt(0.25 * (ea - ed) ** 2 + np.exp(b + c - 2 * m))
    return m + np.log(root)


def brute_force_nash(
    instance: GameInstance,
    grid_step: float = 0.05,
    eps: float = 0.05,
    tol: float = DEFAULT_TOL,
) -> BruteForceResult:
    """Enumerate a per-state simplex grid and certify every strategy pair.

    Both players' stationary strategies are restricted to per-state mixing
    weights in multiples of grid_step; every resulting pair is certified via
    its spectral values against the grid-free best responses, and all pairs
    with max(eps1, eps2) <= eps are returned sorted by gap.  The enumeration
    is refused above MAX_GRID_PAIRS pairs.  Kernels are mixed in log space
    and values taken on row-shifted kernels, so large theta * cost cannot
    overflow; pairs are evaluated in chunks of CHUNK_PAIRS to bound memory.
    """
    require_solvable(instance)
    points_a = _simplex_grid(instance.n_actions_a, grid_step)
    points_b = _simplex_grid(instance.n_actions_b, grid_step)
    maps_a = _strategy_maps(instance.n_states, points_a)
    maps_b = _strategy_maps(instance.n_states, points_b)
    s1, s2 = maps_a.shape[0], maps_b.shape[0]
    if s1 * s2 > MAX_GRID_PAIRS:
        raise ValueError(
            f"grid too large: {s1} x {s2} = {s1 * s2} pairs exceeds {MAX_GRID_PAIRS}"
        )
    anchor = instance.anchor_state
    with np.errstate(divide="ignore"):
        log_psi = np.log(maps_b)  # [map, x, action]
    # each Phi map mixed into both players' kernels once: [i, x, b, y]; the
    # player-2 kernel is also the kernel of player 2's reply to Phi
    by_phi1 = log_twisted_tensor(instance, 1, phi=maps_a)
    by_phi2 = log_twisted_tensor(instance, 2, phi=maps_a)

    # best-response values: rho1*[j] against every Psi map, rho2*[i] against
    # every Phi map — grid-free, so gaps are measured against all deviations
    rho1_star = _rvi_values(log_twisted_tensor(instance, 1, psi=maps_b), anchor, tol)
    rho2_star = _rvi_values(by_phi2, anchor, tol)

    kept = []
    for start in range(0, s1 * s2, CHUNK_PAIRS):
        idx = np.arange(start, min(start + CHUNK_PAIRS, s1 * s2))
        i, j = idx // s2, idx % s2
        psi_j = log_psi[j][..., None]
        j1 = _log_perron(_log_mix(by_phi1[i], psi_j, axis=2), anchor)
        j2 = _log_perron(_log_mix(by_phi2[i], psi_j, axis=2), anchor)
        keep = np.maximum(j1 - rho1_star[j], j2 - rho2_star[i]) <= eps
        kept.append((idx[keep], j1[keep], j2[keep]))

    # survivors in pair order, then a stable sort by gap
    idx, j1, j2 = map(np.concatenate, zip(*kept))
    i, j = idx // s2, idx % s2
    eps1 = j1 - rho1_star[j]
    eps2 = j2 - rho2_star[i]
    order = np.argsort(np.maximum(eps1, eps2), kind="stable")
    phis = {k: StationaryStrategy(1, maps_a[k]) for k in np.unique(i).tolist()}
    psis = {k: StationaryStrategy(2, maps_b[k]) for k in np.unique(j).tolist()}
    columns = (i, j, j1, j2, rho1_star[j], rho2_star[i], eps1, eps2)
    certificates = [
        NashCertificate(
            Phi=phis[a], Psi=psis[b], J1=v1, J2=v2,
            rho1_star=r1, rho2_star=r2, eps1=e1, eps2=e2,
        )
        for a, b, v1, v2, r1, r2, e1, e2 in zip(*(c[order].tolist() for c in columns))
    ]
    if instance.arat is None:
        guaranteed = False
    else:
        checks = validate(instance).checks
        guaranteed = checks["4.1"].status == "PASS" and checks["4.2"].status == "PASS"
    return BruteForceResult(
        certificates=certificates,
        grid_step=float(grid_step),
        eps=float(eps),
        searched_pairs=s1 * s2,
        existence_guaranteed=guaranteed,
    )


# ---------------------------------------------------------------------------
# certificate documents
# ---------------------------------------------------------------------------

def certificate_to_dict(certificate: NashCertificate) -> dict:
    d = {
        "phi": strategy_to_dict(certificate.Phi),
        "psi": strategy_to_dict(certificate.Psi),
        "J1": certificate.J1,
        "J2": certificate.J2,
        "rho1_star": certificate.rho1_star,
        "rho2_star": certificate.rho2_star,
        "eps1": certificate.eps1,
        "eps2": certificate.eps2,
        "rounds": certificate.rounds,
        "converged": certificate.converged,
    }
    if certificate.cycle is not None:
        d["cycle"] = dict(certificate.cycle)
    return d
