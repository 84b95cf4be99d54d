"""Span seminorm, the one-player log-exponential Bellman operators, and
relative value iteration against a fixed opponent strategy.

With the opponent's stationary strategy mixed into the twisted kernel, the
operator for the remaining player is

    (Tv)(x) = min over own pure actions k of
              ln sum_y M(x, k, y) e^{v(y)},

where M is the opponent-mixed twisted kernel.  The objective is the
logarithm of a functional linear in the player's mixing weights, so the
minimum over mixed actions is attained at a pure action; the full tied set
is tracked because equilibria may mix over ties.  Relative value iteration
anchors iterates at the instance's anchor state and stops once the span of
successive differences is below the constant TOL, yielding the optimal
ergodic value rho and the relative value function v with v(anchor) = 0.

A solve sweeps M in one form on both routes, able to sweep a value vector
and to mix in the player's own strategy.  Its pieces come from
transforms, the one place the twisted kernel is built; this module never
reads the decomposition or scales a cost by theta.  The opponent's
strategy, mixed into its side by transforms._mixed_side, leaves

    M(x, k, y) = e^{shift(x, k)} (p_own(x, k, y) + r(x, y)),

and a sweep is ln((p_own u)(x, k) + (r u)(x)) + shift + max v with
u = e^{v - max v} <= 1.  Without an exact additive decomposition,
shift = sigma and p_own = R of the opponent mixed into the table
(transforms._table_side), and there is no r.  With one (P = p1 + p2 and
c_i = c_i1 + c_i2 bit for bit), M is never formed: with the player's own
log weights and part (w_own, p_own), p1 or p2, and the opponent's mixed
side (sigma, T, R) from transforms._split_side, shift = w_own + sigma +
ln T and r = R / T.  Either way a sweep is one product with p_own (and
one X*Y product with r), and every factor is bounded, so large
theta * cost products cannot overflow.  One relative value iteration
loop, in solve_optimality, serves both routes.
Brute force takes its best-response values from Perron roots instead
(see nash.brute_force_nash), so every solve here is a single kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game_model import (
    GameInstance,
    StationaryStrategy,
    _scalar,
    check_strategy,
    require_solvable,
)
from .transforms import (
    _mixed_side,
    _split_side,
    _table_side,
    log_twisted_tensor,
    normalized_kernel,
    relative_entropy,
    twisted_measure,
)

#: stopping tolerance on span(v_{k+1} - v_k)
TOL = 1e-12
#: default iteration cap for relative value iteration
DEFAULT_MAX_ITER = 100_000
#: absolute tolerance at which per-state action values count as tied
TIE_TOL = 1e-10
#: stopping floor per unit of the largest |Tv| in a sweep: values near M
#: carry rounding of about eps*M, so a span below a few of those is noise
_NOISE_FLOOR = 4.0 * np.finfo(float).eps


def _ties(vals: np.ndarray) -> list[np.ndarray]:
    """Per state x, the sorted actions k with vals[x, k] within TIE_TOL of the minimum."""
    tv = vals.min(axis=1)
    return [np.flatnonzero(vals[x] <= tv[x] + TIE_TOL) for x in range(vals.shape[0])]


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Fixed point of one player's optimality equation vs. a fixed opponent.

    rho is the optimal ergodic value, v the relative value function with
    v[anchor] = 0, selector a per-state minimizing pure action (lowest index
    among ties), residual the final span of successive differences, and
    iterations the number of operator applications.  action_values [x, k]
    is the final sweep at v, so (Tv)(x) is its row minimum, and kernel is
    the opponent-mixed kernel M the sweeps ran on, e^{shift} (p_own + r)
    (see the module docstring).  It is kept so callers can mix in the
    player's own strategy without rebuilding the opponent's
    (``kernel.mix_own(rows)`` gives ln Q [x, y]).
    """

    rho: float
    v: np.ndarray
    selector: np.ndarray
    residual: float
    iterations: int
    action_values: np.ndarray
    kernel: _Kernel = field(repr=False)
    converged: bool = True

    def tied_actions(self) -> list[np.ndarray]:
        """Per state, the sorted pure actions within TIE_TOL of the minimum."""
        return _ties(self.action_values)


def span(v) -> float:
    """Span seminorm max(v) - min(v); zero exactly on constant vectors."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("span of an empty vector")
    return float(v.max() - v.min())


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The player's twisted kernel with the opponent mixed in, M = e^{shift} (p_own + r).

    Held as the sweeps read it: shift [x, k], p_own as p_t [y, x*k] and r
    as r_t [y, x], transposed views for one product each, with r_t None on
    the table route.  opponent holds the rows the opponent's side was mixed
    with, so the doubly mixed kernel can be built from them.
    """

    instance: GameInstance
    player: int
    opponent: np.ndarray
    shift: np.ndarray
    p_t: np.ndarray
    r_t: np.ndarray | None

    @property
    def shape(self) -> tuple[int, ...]:
        return (*self.shift.shape, self.p_t.shape[0])

    def sweep(self, v: np.ndarray) -> np.ndarray:
        """Action values ln((p_own u)(x, k) + (r u)(x)) + shift + max v, [..., x, k].

        u = e^{v - max v} <= 1 and v [..., y] may carry leading axes.  The
        sum holds p_own + r at the argmax of v, at least min P on the table
        route and min P / T on the split route, so it stays a normal float.
        """
        top = v.max(axis=-1, keepdims=True)
        u = np.exp(v - top)
        sums = (u @ self.p_t).reshape(u.shape[:-1] + self.shift.shape)
        if self.r_t is not None:
            sums += (u @ self.r_t)[..., None]
        np.log(sums, out=sums)
        sums += self.shift
        sums += top[..., None]
        return sums

    def mix_own(self, rows: np.ndarray) -> np.ndarray:
        """ln Q [x, y]: the doubly mixed kernel of rows against the opponent's rows.

        On the table route rows are mixed into the held M by
        :func:`transforms._mixed_side`, and the table is not read again.  On
        the split route Q is built by :func:`log_twisted_tensor` with both
        strategies, so it is the kernel :func:`spectral.twisted_matrix`
        gives for the same pair.
        """
        if self.r_t is None:
            with np.errstate(divide="ignore"):
                sigma, _, mixed = _mixed_side(self.shift, self.p_t.T.reshape(self.shape), rows)
            return np.log(mixed) + sigma[:, None]
        phi, psi = (rows, self.opponent) if self.player == 1 else (self.opponent, rows)
        return log_twisted_tensor(self.instance, self.player, phi, psi)


def _solve_kernel(instance: GameInstance, player: int, opponent: StationaryStrategy) -> _Kernel:
    """The player's twisted kernel with the opponent mixed in, in the form a solve sweeps."""
    player = _scalar("player", player, 1, 2, integer=True, ends="[]")
    rows = check_strategy(instance, opponent, 3 - player)
    mixed = {"psi": rows} if player == 1 else {"phi": rows}
    with np.errstate(divide="ignore"):
        if instance._exact_arat is None:
            shift, _, p_own = _table_side(instance, player, slice(None), **mixed)
            r_t = None
        else:
            w_own, p_own, sigma, t, r = _split_side(instance, player, slice(None), **mixed)
            shift = w_own + (sigma + np.log(t))[:, None]
            r_t = (r / t[:, None]).T
    p_t = p_own.reshape(-1, p_own.shape[-1]).T
    return _Kernel(instance, player, rows, shift, p_t, r_t)


def action_values(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    v: np.ndarray,
) -> np.ndarray:
    """Per-state, per-own-pure-action operator values [x][k].

    Entry (x, k) is ln sum_y M(x,k,y) e^{v(y)}; (Tv)(x) is its row minimum.
    """
    return _solve_kernel(instance, player, opponent_strategy).sweep(np.asarray(v, dtype=float))


def apply_T(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    v: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One application of the player's operator.

    Returns:
        (Tv, tied): the per-state minimal values and, per state, the sorted
        array of pure actions within TIE_TOL of the minimum.
    """
    vals = action_values(instance, player, opponent_strategy, v)
    return vals.min(axis=1), _ties(vals)


def mixed_objective(
    instance: GameInstance, player: int, x: int, phi, psi, v
) -> float:
    """Direct form of the operator objective at a fully mixed action pair.

    c^_i(x, phi, psi) + ln sum_y e^{v(y)} P^_i(y | x, phi, psi).  For player
    2 this is the inner objective as a function of psi; for player 1, of phi.

    Args:
        x: the state, an integer in [0, n_states).
    """
    x = _scalar("x", x, 0, instance.n_states, integer=True)
    c_hat, p_hat = normalized_kernel(instance, player, x, phi, psi)
    v = np.asarray(v, dtype=float)
    top = v.max()
    return c_hat + float(np.log(p_hat @ np.exp(v - top)) + top)


def dual_value(instance: GameInstance, player: int, x: int, phi, psi, v) -> float:
    """Entropy form of the operator objective.

    Evaluates c^ + integral of v d(mu*) - KL(mu* || P^) at the twisted
    measure mu*(y) proportional to e^{v(y)} P^(y).  Agrees with
    :func:`mixed_objective` to ~1e-10; the twisted measure maximizes the
    bracketed concave functional over all next-state measures.

    Args:
        x: the state, an integer in [0, n_states).
    """
    x = _scalar("x", x, 0, instance.n_states, integer=True)
    c_hat, p_hat = normalized_kernel(instance, player, x, phi, psi)
    v = np.asarray(v, dtype=float)
    mu = twisted_measure(p_hat, v)
    return c_hat + float(mu @ v) - relative_entropy(mu, p_hat)


def solve_optimality(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Relative value iteration for one player against a fixed opponent.

    Iterates v <- Tv - (Tv)(anchor) from v = 0 until span(v_{k+1} - v_k)
    < TOL = 1e-12, then reads rho, a minimizing selector and the action
    values off a final operator application; the result keeps the kernel it
    swept.  The stop never asks for less than the sweep's rounding noise:
    once the span stops shrinking it only has to be below max(TOL, 4 eps
    max|Tv|), so values near theta*c = 1e6 converge as values near 1 do.
    Rounding can also trap the iterates in a cycle of period 2 whose span
    stays above both; the sweeps then go on from the midpoint of its two
    iterates, which only changes solves that would otherwise never stop.
    The tolerance is a constant: the solution (rho, v) is unique, so no
    caller chooses where the iteration stops.  On an exact
    additive decomposition the sweeps run on the opponent's mixed side and
    M is never formed (see the module docstring).  At the fixed point
    rho + v = Tv, rho is the player's optimal ergodic value against the
    fixed opponent, and every stationary strategy supported on per-state
    argmins attains it.

    Args:
        player: the integer 1 or 2.
        max_iter: iteration cap, an integer >= 1; on hitting it the last
            iterate is returned with converged=False and the final residual.

    Raises:
        AssumptionError: if the instance has nonpositive transition entries.
    """
    max_iter = _scalar("max_iter", max_iter, 1, integer=True)
    require_solvable(instance)
    kernel = _solve_kernel(instance, player, opponent_strategy)
    anchor = instance.anchor_state
    v = np.zeros(instance.n_states)
    earlier = (None, None)  # the two iterates before v
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        tv = kernel.sweep(v).min(axis=-1)
        v_next = tv - tv[anchor]
        diff = v_next - v
        previous, residual = residual, float(diff.max() - diff.min())
        # the floor is only worked out once the span stops shrinking, which
        # in exact arithmetic it never does: a stall is rounding noise
        if residual < TOL or (
            residual >= previous and residual < _NOISE_FLOOR * float(np.abs(tv).max())
        ):
            v, converged = v_next, True
            break
        # iterates that repeat the two before them cycle for good, and span
        # contractions have no cycle in exact arithmetic: the sweeps go on
        # from the midpoint of the cycle (the span is equal in a 2-cycle)
        if residual == previous and (
            np.array_equal(v_next, earlier[1]) and np.array_equal(v, earlier[0])
        ):
            v_next = (v_next + v) / 2
        earlier = (earlier[1], v)
        v = v_next
    vals = kernel.sweep(v)
    return SolveResult(
        rho=float(vals.min(axis=-1)[anchor]),
        v=v,
        selector=vals.argmin(axis=-1),
        residual=residual,
        iterations=iterations,
        converged=converged,
        action_values=vals,
        kernel=kernel,
    )


def measured_contraction(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    n_pairs: int = 500,
    span_cap: float = 5.0,
    seed: int = 0,
) -> float:
    """Empirical contraction modulus of T on vectors of span <= span_cap.

    Samples n_pairs pairs (v1, v2) uniformly from [0, span_cap]^X and
    reports the largest span(Tv1 - Tv2) / span(v1 - v2).  Pairs with a
    degenerate denominator are resampled.  No closed-form modulus is
    available, so the value is measured and regression-pinned; it must come
    out < 1 on instances that pass validation.

    Args:
        player: the integer 1 or 2.
        n_pairs: number of pairs, an integer >= 1.
        span_cap: upper end of the sampling box, a real, finite and > 0.
        seed: seed of the pair generator, an integer >= 0.
    """
    remaining = _scalar("n_pairs", n_pairs, 1, integer=True)
    span_cap = _scalar("span_cap", span_cap, 0, ends="()")
    if instance.n_states == 1:
        return 0.0  # every Tv is a scalar; the ratio is identically zero
    kernel = _solve_kernel(instance, player, opponent_strategy)
    rng = np.random.default_rng(_scalar("seed", seed, 0, integer=True))

    def batch_tv(vs: np.ndarray) -> np.ndarray:
        return kernel.sweep(vs).min(axis=-1)

    worst = 0.0
    for _ in range(100):
        v1 = rng.uniform(0.0, span_cap, size=(remaining, instance.n_states))
        v2 = rng.uniform(0.0, span_cap, size=(remaining, instance.n_states))
        diff = v1 - v2
        denom = diff.max(axis=1) - diff.min(axis=1)
        ok = denom > 1e-12
        if np.any(ok):
            num = batch_tv(v1[ok]) - batch_tv(v2[ok])
            ratios = (num.max(axis=1) - num.min(axis=1)) / denom[ok]
            worst = max(worst, float(ratios.max()))
        remaining -= int(ok.sum())
        if remaining == 0:
            return worst
    raise RuntimeError("could not sample enough nondegenerate pairs")
