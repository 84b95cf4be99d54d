"""Best responses, deviation-gap certificates, and equilibrium search.

A strategy pair is an eps-Nash point when neither player can lower their
ergodic value by more than eps through any unilateral stationary deviation.
Certification is direct: in epsilon_gap the best-achievable values
rho_i* come from the opponent-fixed Bellman solver, the pair's values J_i
are log Perron roots, and the gaps are their differences.  Each player's
solve builds one opponent-mixed kernel, and J_i is read from that same
kernel with the player's own strategy mixed in, so a certificate reads the
transition table once per player.  On an exact additive decomposition the
solve sweeps only the opponent's mixed side, and J_i is the root of the
doubly mixed kernel, the value verify_certificate recomputes.
Certificates are sound regardless of how a candidate pair was produced,
and verify_certificate recomputes every value independently, from doubly
mixed kernels of its own.

Candidates come from two searchers.  best_response_dynamics runs damped
alternating best responses, smoothed through an annealed logit map to avoid
the discontinuous jumps of exact argmins; convergence is not guaranteed
(cycling is a reportable outcome, not a bug), so the best certificate seen
is always returned, with a cycle report on failure; when the rounds run
out, the argmax pure pair of that certificate is certified once more.
brute_force_nash enumerates a per-state simplex grid outright and
certifies every pair — viable only at desk scale, but an oracle the
dynamics can be checked against.  It runs no solve: every value it reports
is a log Perron root, rho_i* being the least root over the player's pure
grid maps, which attain it.  Equilibrium existence is only guaranteed for
instances carrying a verified additive (per-player) decomposition;
brute-force output on other instances is labeled accordingly.  When
several equilibria survive, all are reported without preference.
"""
from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
# action_values, apply_T and validate are unused here; bench/tracing.py patches them here
from .bellman import (  # noqa: F401
    DEFAULT_TOL,
    SolveResult,
    action_values,
    apply_T,
    solve_optimality,
)
from .game_model import (  # noqa: F401
    GameInstance,
    StationaryStrategy,
    _decomposition_checks,
    _scalar,
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
#: brute-force certificates built per step when a result is iterated
_CERTIFICATE_BLOCK = 1024


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
    present, is the dynamics' repeating-fingerprint report, and snapped is
    True when the dynamics certified the argmax pure pair of their best
    certificate rather than a pair they played.
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
    snapped: bool = False

    @property
    def max_gap(self) -> float:
        return max(self.eps1, self.eps2)


def best_response(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    tol: float = DEFAULT_TOL,
) -> BestResponse:
    """Solve the player's optimality equation and extract the argmin sets.

    Args:
        player: the integer 1 or 2.
        tol: the solve's stopping tolerance, a real, finite and > 0.
    """
    result = solve_optimality(instance, player, opponent_strategy, tol=tol)
    return BestResponse(
        solve=result,
        tied_actions=result.tied_actions(),
        response_strategy=pure_strategy(instance, player, result.selector),
    )


def _certificate(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    solve1: SolveResult,
    solve2: SolveResult,
    rounds: int = 0,
) -> NashCertificate:
    """The pair's certificate from each player's solve against the other's strategy.

    rho_i* is solve i's value and J_i comes from the kernel solve i swept,
    with the player's own strategy mixed in.
    """
    j1 = ergodic_cost(instance, 1, Phi, Psi, kernel=solve1.kernel)
    j2 = ergodic_cost(instance, 2, Phi, Psi, kernel=solve2.kernel)
    return NashCertificate(
        Phi=Phi, Psi=Psi, J1=j1, J2=j2,
        rho1_star=solve1.rho, rho2_star=solve2.rho,
        eps1=j1 - solve1.rho, eps2=j2 - solve2.rho,
        rounds=rounds,
    )


def epsilon_gap(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    tol: float = DEFAULT_TOL,
) -> NashCertificate:
    """Certify a pair: best-response values, the pair's values, and the gaps.

    Per player, one solve against the opponent; J_i comes from the kernel
    that solve swept.

    Args:
        tol: the solves' stopping tolerance, a real, finite and > 0.
    """
    solve1 = solve_optimality(instance, 1, Psi, tol=tol)
    solve2 = solve_optimality(instance, 2, Phi, tol=tol)
    return _certificate(instance, Phi, Psi, solve1, solve2)


def verify_certificate(
    instance: GameInstance, certificate: NashCertificate, eps: float
) -> bool:
    """Recompute a certificate from scratch and check it, trusting nothing.

    Fresh spectral values of the doubly mixed kernels and fresh solver runs
    must reproduce every stored value within 1e-8, and the recomputed max
    gap must be <= eps.  Unlike :func:`epsilon_gap`, J_i does not come from
    the solver's kernel, so the check stays independent of it.

    Args:
        eps: the largest gap accepted, a real, finite and >= 0.
    """
    eps = _scalar("eps", eps, 0)
    Phi, Psi = certificate.Phi, certificate.Psi
    j1, j2 = ergodic_cost(instance, 1, Phi, Psi), ergodic_cost(instance, 2, Phi, Psi)
    rho1 = solve_optimality(instance, 1, Psi).rho
    rho2 = solve_optimality(instance, 2, Phi).rho
    stored = (certificate.J1, certificate.J2, certificate.rho1_star,
              certificate.rho2_star, certificate.eps1, certificate.eps2)
    recomputed = (j1, j2, rho1, rho2, j1 - rho1, j2 - rho2)
    if any(abs(s - r) > 1e-8 for s, r in zip(stored, recomputed)):
        return False
    return max(j1 - rho1, j2 - rho2) <= eps


def _smoothed_rows(values: np.ndarray, tau: float) -> np.ndarray:
    """Logit map over per-state action values: rows proportional to e^{-val/tau}."""
    z = -(values - values.min(axis=1, keepdims=True)) / tau
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def _response(
    instance: GameInstance, old: StationaryStrategy, solve: SolveResult,
    tau: float | None, beta: float,
) -> StationaryStrategy:
    """The damped response of ``old``'s player to ``solve``, its solve against the other strategy.

    The target is the solve's pure selector when tau is None, else the
    logit map of its action values at temperature tau; beta of it is mixed
    into old's rows.
    """
    if tau is None:
        target = pure_strategy(instance, old.player, solve.selector).rows
    else:
        target = _smoothed_rows(solve.action_values, tau)
    mixed = (1.0 - beta) * old.rows + beta * target
    return StationaryStrategy(old.player, mixed / mixed.sum(axis=1, keepdims=True))


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
    (tau0, tau_min, tau_decay); tau_schedule=None plays exact (unsmoothed)
    pure responses.  After each round the current pair is certified; the run
    stops as soon as max(eps1, eps2) <= eps_target.  On exhausting
    max_rounds the argmax pure pair of the best certificate seen (per state,
    each player's heaviest action, the lowest among ties) is certified once,
    and returned with snapped=True if it meets eps_target: dynamics that
    settle next to a pure equilibrium at the temperature floor approach it
    without reaching it.  Otherwise the best certificate seen is returned
    with converged=False, and in either case with a cycle report when the
    recent strategy-pair fingerprint window contained a repeat.
    Non-convergence is a legitimate outcome of this class of dynamics and
    must be handled by the caller.

    Args:
        init_pair: starting (Phi, Psi); uniform randomization by default.
        beta: damping weight on the new response, a real in (0, 1].
        tau_schedule: tau0 and tau_min reals, finite and > 0, and
            tau_decay a real in (0, 1).
        max_rounds: round cap, an integer >= 0 (0 certifies the starting
            pair and its argmax pure pair alone).
        eps_target: certification target for max(eps1, eps2), a real,
            finite and > 0.
        tol: the solves' stopping tolerance, a real, finite and > 0.
    """
    beta = _scalar("beta", beta, 0, 1, ends="(]")
    eps_target = _scalar("eps_target", eps_target, 0, ends="()")
    max_rounds = _scalar("max_rounds", max_rounds, 0, integer=True)
    tau = None
    if tau_schedule is not None:
        tau0, tau_min, decay = tau_schedule
        tau = _scalar("tau0", tau0, 0, ends="()")
        tau_min = _scalar("tau_min", tau_min, 0, ends="()")
        decay = _scalar("tau_decay", decay, 0, 1, ends="()")
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
    for rounds in range(1, max_rounds + 1):
        Phi = _response(instance, Phi, solve1, tau, beta)
        solve2 = solve_optimality(instance, 2, Phi, tol=tol)
        Psi = _response(instance, Psi, solve2, tau, beta)
        # certify the updated pair from the two solves' own kernels; solve1
        # doubles as next round's response
        solve1 = solve_optimality(instance, 1, Psi, tol=tol)
        cert = _certificate(instance, Phi, Psi, solve1, solve2, rounds)
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
        if tau is not None:
            tau = max(tau * decay, tau_min)
    snap = epsilon_gap(instance, *(
        pure_strategy(instance, s.player, s.rows.argmax(axis=1)) for s in (best.Phi, best.Psi)
    ), tol=tol)
    if snap.max_gap <= eps_target:
        return replace(snap, rounds=max_rounds, cycle=cycle, snapped=True)
    return replace(best, rounds=max_rounds, converged=False, cycle=cycle)


# ---------------------------------------------------------------------------
# brute-force grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BruteForceResult(Sequence):
    """Outcome of a grid enumeration: a lazy sequence of survivors, best first.

    The survivors are held as columns in best-first order: the Phi and Psi
    map indices into maps_a and maps_b, and J1, J2, rho1_star, rho2_star,
    eps1 and eps2.  Indexing, slicing and iteration build the
    NashCertificate objects on demand; certificates of one result share one
    StationaryStrategy per map index.  existence_guaranteed is True when the
    instance carries an additive decomposition that checks out numerically;
    without it an equilibrium need not exist and an empty result is not a
    contradiction.
    """

    phi_index: np.ndarray
    psi_index: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    rho1_star: np.ndarray
    rho2_star: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    maps_a: np.ndarray
    maps_b: np.ndarray
    grid_step: float
    eps: float
    searched_pairs: int
    existence_guaranteed: bool
    _strategies: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def label(self) -> str:
        if self.existence_guaranteed:
            return "existence guaranteed (additive decomposition verified)"
        return "existence not guaranteed (no verified additive decomposition)"

    def __len__(self) -> int:
        return len(self.phi_index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._certificates(key)
        k = range(len(self))[key]  # IndexError past either end
        return self._certificates(slice(k, k + 1))[0]

    def __iter__(self):
        for start in range(0, len(self), _CERTIFICATE_BLOCK):
            yield from self._certificates(slice(start, start + _CERTIFICATE_BLOCK))

    def _strategy(self, player: int, k: int) -> StationaryStrategy:
        strategy = self._strategies.get((player, k))
        if strategy is None:
            maps = self.maps_a if player == 1 else self.maps_b
            strategy = self._strategies[player, k] = StationaryStrategy(player, maps[k])
        return strategy

    def _certificates(self, rows: slice) -> list[NashCertificate]:
        columns = (self.phi_index, self.psi_index, self.J1, self.J2,
                   self.rho1_star, self.rho2_star, self.eps1, self.eps2)
        return [
            NashCertificate(
                Phi=self._strategy(1, a), Psi=self._strategy(2, b), J1=v1, J2=v2,
                rho1_star=r1, rho2_star=r2, eps1=e1, eps2=e2,
            )
            for a, b, v1, v2, r1, r2, e1, e2 in zip(*(c[rows].tolist() for c in columns))
        ]


def _simplex_grid(n: int, step: float) -> np.ndarray:
    """All probability vectors over n atoms with coordinates in multiples of step."""
    # a step outside (0, 1], nan included, cannot divide 1: reject it before dividing
    k = round(1.0 / step) if 0.0 < step <= 1.0 else 0
    if abs(k * step - 1.0) > 1e-9 or k < 1:
        raise ValueError(f"grid_step {step!r} must evenly divide 1")
    combos = itertools.combinations(range(k + n - 1), n - 1)
    points = []
    for dividers in combos:
        edges = (-1,) + dividers + (k + n - 1,)
        points.append([edges[i + 1] - edges[i] - 1 for i in range(n)])
    return np.array(points, dtype=float) / k


def _strategy_maps(n_states: int, n_points: int) -> np.ndarray:
    """Every per-state assignment of grid points, as point indices [map, state]."""
    return np.array(list(itertools.product(range(n_points), repeat=n_states)))


def _gather(table: np.ndarray, index_a: np.ndarray, index_b: np.ndarray) -> np.ndarray:
    """Pair kernels [ni * nj, x, y] from a point-pair table ln Q [pa, pb, x, y].

    Pair (i, j), Phi major, takes row x of ln Q [index_a[i, x], index_b[j, x],
    x]: per state, one take over each player's points.  The kernels are
    stored state-major, [x, ni, nj, y], so each state's second take writes
    one contiguous block, and are returned as a strided view.
    """
    ni, n = index_a.shape
    out = np.empty((n, ni, len(index_b), n))
    for x in range(n):
        by_a = np.take(table[:, :, x], index_a[:, x], axis=0)
        # every index is a grid point: 'clip' only skips the buffered bounds check
        np.take(by_a, index_b[:, x], axis=1, out=out[x], mode="clip")
    return out.transpose(1, 2, 0, 3).reshape(-1, n, n)


def _chunk_roots(
    tables: list[np.ndarray], index_a: np.ndarray, index_b: np.ndarray, anchor: int, tol: float
):
    """Yield (rows, cols, roots) over the pairs index_a x index_b, in chunks.

    roots holds ln r [rows, cols] per point-pair table.  Chunks are whole
    Phi rows, or one row's Psi tiles when a row alone exceeds CHUNK_PAIRS,
    so no root batch holds more than CHUNK_PAIRS pairs; pair order (Phi
    major) is the enumeration order.
    """
    s1, s2 = len(index_a), len(index_b)
    rows, cols = max(1, CHUNK_PAIRS // s2), min(s2, CHUNK_PAIRS)
    for i0 in range(0, s1, rows):
        ia = slice(i0, min(i0 + rows, s1))
        for j0 in range(0, s2, cols):
            jb = slice(j0, min(j0 + cols, s2))
            yield ia, jb, [
                spectral._log_perron(_gather(table, index_a[ia], index_b[jb]), anchor, tol)
                .reshape(ia.stop - i0, jb.stop - j0) for table in tables
            ]


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
    with max(eps1, eps2) <= eps are returned, sorted by gap, as a lazy
    BruteForceResult.  The enumeration is refused above MAX_GRID_PAIRS
    pairs.  Kernels are mixed in log space and values taken on row-shifted
    kernels, so large theta * cost cannot overflow; pairs are evaluated in
    chunks of at most CHUNK_PAIRS to bound memory.

    A best-response value is attained by a pure stationary selector on
    strictly positive kernels, so rho1*[j] is the least J1 over the pure
    Phi maps against Psi map j, and rho2*[i] the least J2 over the pure Psi
    maps against Phi map i.  Every grid contains the simplex vertices, so
    these values are grid-free, and they come from the same root finder as
    the pairs' values: a pure pair's gap is 0 exactly.

    Args:
        grid_step: the grid's spacing, a real in (0, 1] that divides 1 evenly.
        eps: survivor threshold on max(eps1, eps2), a real, finite and >= 0.
        tol: the bracket tolerance of every root taken, pairs and pure maps
            alike, a real, finite and > 0; two-state roots take a closed
            form and ignore it.
    """
    grid_step = _scalar("grid_step", grid_step, 0, 1, ends="(]")
    tol = _scalar("tol", tol, 0, ends="()")
    eps = _scalar("eps", eps, 0)
    require_solvable(instance)
    points_a = _simplex_grid(instance.n_actions_a, grid_step)
    points_b = _simplex_grid(instance.n_actions_b, grid_step)
    n = instance.n_states
    # counted before any map is built: the maps grow as points ** states
    s1, s2 = len(points_a) ** n, len(points_b) ** n
    if s1 * s2 > MAX_GRID_PAIRS:
        raise ValueError(
            f"grid too large: {s1} x {s2} = {s1 * s2} pairs exceeds {MAX_GRID_PAIRS}"
        )
    index_a = _strategy_maps(n, len(points_a))
    index_b = _strategy_maps(n, len(points_b))
    maps_a, maps_b = points_a[index_a], points_b[index_b]
    anchor = instance.anchor_state

    # a pair's kernel row at x depends only on the two grid points it plays
    # at x: per player, every point pair mixed once, ln Q [pa, pb, x, y]
    phi = np.broadcast_to(points_a[:, None, None], (len(points_a), 1, n, points_a.shape[1]))
    psi = np.broadcast_to(points_b[None, :, None], (1, len(points_b), n, points_b.shape[1]))
    tables = [log_twisted_tensor(instance, p, phi, psi) for p in (1, 2)]

    # best-response values over the pure maps, whose every point is a simplex
    # vertex (points are j/k, so a vertex's 1.0 is exact)
    pure_a = index_a[(points_a.max(axis=-1) == 1.0)[index_a].all(axis=-1)]
    pure_b = index_b[(points_b.max(axis=-1) == 1.0)[index_b].all(axis=-1)]
    rho1_star, rho2_star = np.full(s2, np.inf), np.full(s1, np.inf)
    for _, jb, (roots,) in _chunk_roots(tables[:1], pure_a, index_b, anchor, tol):
        np.minimum(rho1_star[jb], roots.min(axis=0), out=rho1_star[jb])
    for ia, _, (roots,) in _chunk_roots(tables[1:], index_a, pure_b, anchor, tol):
        np.minimum(rho2_star[ia], roots.min(axis=1), out=rho2_star[ia])

    kept = []
    for ia, jb, (j1, j2) in _chunk_roots(tables, index_a, index_b, anchor, tol):
        keep = np.maximum(j1 - rho1_star[jb], j2 - rho2_star[ia, None]) <= eps
        i, j = np.nonzero(keep)
        kept.append((i + ia.start, j + jb.start, j1[keep], j2[keep]))

    # survivors in pair order, then a stable sort by gap
    i, j, j1, j2 = map(np.concatenate, zip(*kept))
    eps1 = j1 - rho1_star[j]
    eps2 = j2 - rho2_star[i]
    order = np.argsort(np.maximum(eps1, eps2), kind="stable")
    guaranteed = all(c.status == "PASS" for c in _decomposition_checks(instance).values())
    return BruteForceResult(
        phi_index=i[order], psi_index=j[order], J1=j1[order], J2=j2[order],
        rho1_star=rho1_star[j][order], rho2_star=rho2_star[i][order],
        eps1=eps1[order], eps2=eps2[order], maps_a=maps_a, maps_b=maps_b,
        grid_step=grid_step,
        eps=eps,
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
