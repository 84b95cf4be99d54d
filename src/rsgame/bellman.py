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
anchors iterates at the instance's anchor state and stops on the span of
successive differences, yielding the optimal ergodic value rho and the
relative value function v with v(anchor) = 0.

Every sweep runs on row-shifted kernels K = e^{ln M - rowmax} <= 1 as
ln(K e^{v - max v}) + rowmax + max v, so large theta * cost products cannot
overflow.  One batched relative value iteration serves single solves here
and whole stacks of kernels in the brute-force search.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .game_model import (
    GameInstance,
    StationaryStrategy,
    check_strategy,
    require_solvable,
)
from .transforms import log_twisted_tensor, normalized_kernel, relative_entropy, twisted_measure

#: default stopping tolerance on span(v_{k+1} - v_k)
DEFAULT_TOL = 1e-12
#: default iteration cap for relative value iteration
DEFAULT_MAX_ITER = 100_000
#: absolute tolerance at which per-state action values count as tied
TIE_TOL = 1e-10
#: stopping floor per unit of the largest |Tv| in a sweep: values near M
#: carry rounding of about eps*M, so a span below a few of those is noise
_NOISE_FLOOR = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Fixed point of one player's optimality equation vs. a fixed opponent.

    rho is the optimal ergodic value, v the relative value function with
    v[anchor] = 0, selector a per-state minimizing pure action (lowest index
    among ties), residual the final span of successive differences, and
    iterations the number of operator applications.  From
    :func:`relative_value_iteration` on a stack of kernels, rho, v and
    selector carry the stack's leading axes.
    """

    rho: float
    v: np.ndarray
    selector: np.ndarray
    residual: float
    iterations: int
    converged: bool = True


def span(v) -> float:
    """Span seminorm max(v) - min(v); zero exactly on constant vectors."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("span of an empty vector")
    return float(v.max() - v.min())


def _log_mixed_kernel(
    instance: GameInstance, player: int, opponent: StationaryStrategy
) -> np.ndarray:
    """ln M[x, own action, y]: twisted kernel with the opponent mixed in."""
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    rows = check_strategy(instance, opponent, 3 - player)
    if player == 1:
        return log_twisted_tensor(instance, 1, psi=rows)
    return log_twisted_tensor(instance, 2, phi=rows)


def _shifted(log_kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, s) with e^{log_kernel} = e^s K, s the row max and K <= 1.

    A row of e^{log_kernel} is a combination sum_t w_t P_t of transition
    rows with weights w_t > 0, so it lies between W min P and W (W = sum_t
    w_t).  K is then at least the smallest transition entry, and each sum of
    K e^{v - max v} (which holds K itself at the argmax of v) stays a normal
    float for any theta * cost.
    """
    shift = log_kernel.max(axis=-1)
    return np.exp(log_kernel - shift[..., None]), shift


def _sweep(kernel: np.ndarray, shift: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Action values ln sum_y e^{s} K(x, k, y) e^{v(y)}, [..., x, k].

    v [..., y] broadcasts against the kernel's leading axes.
    """
    top = v.max(axis=-1)
    sums = np.einsum("...xky,...y->...xk", kernel, np.exp(v - top[..., None]))
    return np.log(sums) + shift + top[..., None, None]


def action_values(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    v: np.ndarray,
) -> np.ndarray:
    """Per-state, per-own-pure-action operator values [x][k].

    Entry (x, k) is ln sum_y M(x,k,y) e^{v(y)}; (Tv)(x) is its row minimum.
    """
    kernel, shift = _shifted(_log_mixed_kernel(instance, player, opponent_strategy))
    return _sweep(kernel, shift, np.asarray(v, dtype=float))


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
    tv = vals.min(axis=1)
    tied = [np.flatnonzero(vals[x] <= tv[x] + TIE_TOL) for x in range(vals.shape[0])]
    return tv, tied


def mixed_objective(
    instance: GameInstance, player: int, x: int, phi, psi, v
) -> float:
    """Direct form of the operator objective at a fully mixed action pair.

    c^_i(x, phi, psi) + ln sum_y e^{v(y)} P^_i(y | x, phi, psi).  For player
    2 this is the inner objective as a function of psi; for player 1, of phi.
    """
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
    """
    c_hat, p_hat = normalized_kernel(instance, player, x, phi, psi)
    v = np.asarray(v, dtype=float)
    mu = twisted_measure(p_hat, v)
    return c_hat + float(mu @ v) - relative_entropy(mu, p_hat)


def relative_value_iteration(
    log_kernel: np.ndarray,
    anchor: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Relative value iteration on a stack of log kernels L[..., x, k, y].

    Iterates v <- Tv - (Tv)(anchor), with (Tv)(x) = min_k ln sum_y
    e^{L(x,k,y) + v(y)}, from v = 0 until the span of successive
    differences is below tol for every kernel in the stack, then reads
    rho = (Tv)(anchor) and the selector off one more sweep.  The result's
    rho, v and selector carry the stack's leading axes; residual is the
    largest span over the stack.  With one own action rho is the log
    Perron root of e^L.

    The stop never asks for less than the sweep's rounding noise: once the
    span stops shrinking it only has to be below max(tol, 4 eps max|Tv|),
    so values near theta*c = 1e6 converge as values near 1 do.
    """
    kernel, shift = _shifted(log_kernel)
    v = np.zeros(log_kernel.shape[:-2])
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, int(max_iter) + 1):
        tv = _sweep(kernel, shift, v).min(axis=-1)
        v_next = tv - tv[..., anchor, None]
        diff = v_next - v
        previous, residual = residual, float((diff.max(axis=-1) - diff.min(axis=-1)).max())
        v = v_next
        # the floor is only worked out once the span stops shrinking, which
        # in exact arithmetic it never does: a stall is rounding noise
        if residual < tol or (
            residual >= previous and residual < _NOISE_FLOOR * float(np.abs(tv).max())
        ):
            converged = True
            break
    vals = _sweep(kernel, shift, v)
    return SolveResult(
        rho=vals.min(axis=-1)[..., anchor],
        v=v,
        selector=vals.argmin(axis=-1),
        residual=residual,
        iterations=iterations,
        converged=converged,
    )


def solve_optimality(
    instance: GameInstance,
    player: int,
    opponent_strategy: StationaryStrategy,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Relative value iteration for one player against a fixed opponent.

    Iterates v <- Tv - (Tv)(anchor) from v = 0 until span(v_{k+1} - v_k)
    < tol, or until it stalls below the rounding floor of
    :func:`relative_value_iteration`, then reads rho and a minimizing
    selector off a final operator application.  At the fixed point
    rho + v = Tv, rho is the player's optimal ergodic value against the
    fixed opponent, and every stationary strategy supported on per-state
    argmins attains it.

    Args:
        tol: stopping tolerance on the span of successive differences.
        max_iter: iteration cap; on hitting it the last iterate is returned
            with converged=False and the final residual.

    Raises:
        AssumptionError: if the instance has nonpositive transition entries.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    require_solvable(instance)
    ln_m = _log_mixed_kernel(instance, player, opponent_strategy)
    result = relative_value_iteration(ln_m, instance.anchor_state, tol, max_iter)
    return replace(result, rho=float(result.rho))


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
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if span_cap <= 0.0:
        raise ValueError("span_cap must be > 0")
    if instance.n_states == 1:
        return 0.0  # every Tv is a scalar; the ratio is identically zero
    kernel, shift = _shifted(_log_mixed_kernel(instance, player, opponent_strategy))
    rng = np.random.default_rng(seed)

    def batch_tv(vs: np.ndarray) -> np.ndarray:
        return _sweep(kernel, shift, vs).min(axis=-1)

    worst = 0.0
    remaining = int(n_pairs)
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
