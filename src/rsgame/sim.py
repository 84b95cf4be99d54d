"""Trajectory simulation and Monte Carlo validation of the exact oracles.

Paths of the controlled chain are sampled with both players following fixed
stationary strategies: at each step the actions are drawn independently
from Phi(x) and Psi(x), then the next state from P(.|x,a,b).  All
randomness for a run comes from one seeded generator.  The draws are
streamed one (variable, path) block per step, so they are consumed in a
fixed (step, variable, path) order: path i uses the same uniforms however
many steps are held at once, and a single path (sample_path) sees the
stream a one-path Monte Carlo run sees.  Each index is drawn by inverse-CDF
sampling, as the first whose cumulative probability exceeds its uniform,
found by a vectorised binary search over the cumulative row (_drawer), so a
draw costs log2 of the row width in one-element gathers per path; a pure
strategy's actions are looked up instead, one gather per path.

mc_cost_estimate targets the n-th increment of the log moment generating
function, ln E_x[e^{theta S_n}] - ln E_x[e^{theta S_{n-1}}] — the exact
quantity spectral.finite_horizon_growth computes — by evaluating both
log-mean-exponentials on the same sample of paths.  One walk serves both
players: each path's two cost sums are kept side by side, so the estimates
for players 1 and 2 come from the same paths.  The standard error
comes from the delta method: the increment is a smooth function of two
sample means, and its influence-function variance is the sum of squared
differences of the two exponential-weight vectors.  Like any log-mean-exp
estimator it is biased low in finite samples (Jensen); the bias is measured
by the test suite and documented rather than corrected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game_model import GameInstance, StationaryStrategy, _scalar, check_strategy


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sampled path: n+1 states, n action pairs, running cost sums.

    cost_sums has shape (2, n+1): row i holds the running sums of player
    i+1's costs, starting at 0.
    """

    states: np.ndarray
    actions_a: np.ndarray
    actions_b: np.ndarray
    cost_sums: np.ndarray


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Monte Carlo estimate of the n-step growth increment from one state."""

    value: float
    std_error: float
    n_paths: int
    horizon: int
    seed: int


def _drawer(probs: np.ndarray, n_paths: int):
    """Draw function over the rows of a probability table.

    ``draw(r, u)`` returns, for each path i, the first index whose
    cumulative probability in row r[i] exceeds u[i]; rows are numbered in
    row-major order over the table's leading axes.  The cumulative entries
    from each row's last positive entry onward are set to +inf, so a u at or
    above a last sum that rounds below 1 picks the last positive index,
    never a zero-probability entry after it.  Rows of a nonnegative
    cumulative sum never decrease in floating point, so the pick equals the
    count of entries <= u, clamped to the last positive index.

    The count is found by binary search (inverse-CDF sampling by bisection,
    Devroye 1986, §III.2).  Each cumulative row is padded with +inf to a
    power-of-two width 2^k, and the search takes k one-element gathers per
    path: at half-width s it probes entry pos + s - 1 and moves pos up by s
    when that entry is <= u.  Its scratch is five O(n_paths) buffers, reused
    from step to step.

    A table whose every row has exactly one positive entry, a pure
    strategy's, is drawn by one lookup of that entry's index instead: its
    cumulative row is 0 before the entry and +inf from it on, so the search
    picks that index for every u in [0, 1).
    """
    width = probs.shape[-1]
    rows = probs.reshape(-1, width)
    positive = rows > 0.0
    if np.all(positive.sum(axis=1) == 1):
        picks = positive.argmax(axis=1)
        return lambda r, u: picks.take(r)
    span = 1 << (width - 1).bit_length()  # the least power of two >= width
    table = np.full((rows.shape[0], span), np.inf)
    np.cumsum(rows, axis=1, out=table[:, :width])
    # column k is +inf in the rows whose entries after k are all zero; the
    # walk back needs O(rows) scratch and stops at the first column where
    # no row is still in its zero tail, the last one for positive tables
    tail = np.ones(rows.shape[0], dtype=bool)
    for k in range(width - 1, -1, -1):
        table[tail, k] = np.inf
        tail &= rows[:, k] == 0.0
        if not tail.any():
            break
    flat = table.ravel()
    halves = [span >> k for k in range(1, span.bit_length())]
    base = np.empty(n_paths, dtype=np.intp)
    pos = np.empty(n_paths, dtype=np.intp)
    probe = np.empty(n_paths, dtype=np.intp)
    vals = np.empty(n_paths)
    below = np.empty(n_paths, dtype=bool)

    def draw(r: np.ndarray, u: np.ndarray) -> np.ndarray:
        np.multiply(r, span, out=base)
        np.copyto(pos, base)
        for s in halves:
            np.add(pos, s - 1, out=probe)
            # every probe is in range: 'clip' only skips the buffered bounds check
            flat.take(probe, out=vals, mode="clip")
            np.less_equal(vals, u, out=below)
            np.multiply(below, s, out=probe)
            np.add(pos, probe, out=pos)
        return pos - base

    return draw


def _walk(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x0: int,
    n: int,
    n_paths: int,
    seed: int,
):
    """Check the inputs, then return a generator of n steps of n_paths paths.

    Each step is (x, a, b, y): int arrays over paths holding the state, both
    actions and the next state.  A step draws one (3, n_paths) block of
    uniforms u and picks each index as the first whose cumulative
    probability exceeds u (see _drawer).
    """
    n = _scalar("n", n, 1, integer=True)
    n_paths = _scalar("n_paths", n_paths, 1, integer=True)
    x0 = _scalar("x0", x0, 0, instance.n_states, integer=True)
    seed = _scalar("seed", seed, 0, integer=True)
    draw_a = _drawer(check_strategy(instance, Phi, 1), n_paths)
    draw_b = _drawer(check_strategy(instance, Psi, 2), n_paths)
    draw_y = _drawer(instance.transition, n_paths)
    na, nb = instance.n_actions_a, instance.n_actions_b

    def steps():
        rng = np.random.default_rng(seed)
        y = np.full(n_paths, x0)
        for _ in range(n):
            x = y
            u = rng.random((3, n_paths))
            a = draw_a(x, u[0])
            b = draw_b(x, u[1])
            y = draw_y((x * na + a) * nb + b, u[2])
            yield x, a, b, y

    return steps()


def sample_path(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x0: int,
    n: int,
    seed: int,
) -> Trajectory:
    """Sample one n-step trajectory; deterministic per seed.

    This is the one-path case of the walk behind :func:`mc_cost_estimate`,
    so a one-path estimate with the same seed reads this path.  Works for
    any valid transition table, including rows with zero entries
    (deterministic chains), which the optimizing solvers reject.

    Args:
        x0: start state, an integer in [0, n_states).
        n: number of steps, an integer >= 1.
        seed: seed of the one generator every draw comes from, an integer >= 0.
    """
    steps = zip(*_walk(instance, Phi, Psi, x0, n, 1, seed))
    x, a, b, y = (np.concatenate(v) for v in steps)
    costs = np.stack([instance.cost1[x, a, b], instance.cost2[x, a, b]])
    cost_sums = np.concatenate([np.zeros((2, 1)), np.cumsum(costs, axis=1)], axis=1)
    return Trajectory(np.append(x, y[-1]), a, b, cost_sums)


def mc_cost_estimate(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x: int,
    n: int,
    n_paths: int,
    seed: int,
) -> tuple[McEstimate, McEstimate]:
    """Estimate both players' n-step growth increments by simulation.

    Simulates n_paths independent paths from x once and returns one
    estimate per player, (player 1, player 2), each

        value = ln sum_paths e^{theta S_n} - ln sum_paths e^{theta S_{n-1}},

    which estimates ln E[e^{theta S_n}] - ln E[e^{theta S_{n-1}}] (the path
    count cancels in the difference).  Aggregation is log-sum-exp, so large
    exponents never overflow.  std_error is the delta-method standard error
    of the difference, accounting for the correlation induced by sharing
    paths between the two terms.  Memory is O(n_paths): only the running
    sums S_n and S_{n-1} of both players are kept.

    Args:
        x: start state, an integer in [0, n_states).
        n: horizon, an integer >= 1.
        n_paths: number of paths, an integer >= 1.
        seed: seed of the one generator every draw comes from, an integer >= 0.
    """
    # both cost tables as [player, flat (x, a, b)] columns: one take per step
    costs = np.stack([instance.cost1, instance.cost2]).reshape(2, -1)
    na, nb = instance.n_actions_a, instance.n_actions_b
    steps = _walk(instance, Phi, Psi, x, n, n_paths, seed)
    total = prev_total = np.zeros((2, n_paths))
    for xs, a, b, _ in steps:
        prev_total, total = total, total + costs.take((xs * na + a) * nb + b, axis=1)
    return tuple(
        _estimate(instance.theta * s_n, instance.theta * s_m, n, seed)
        for s_n, s_m in zip(total, prev_total)
    )


def _logsumexp(z: np.ndarray) -> float:
    """ln sum e^z, shifted by the maximum so no term overflows."""
    top = z.max()
    return np.log(np.exp(z - top).sum()) + top


def _estimate(z_n: np.ndarray, z_m: np.ndarray, n: int, seed: int) -> McEstimate:
    """Increment and delta-method standard error from one player's exponents."""
    n_paths = z_n.shape[0]
    ln_n, ln_m = _logsumexp(z_n), _logsumexp(z_m)
    value = float(ln_n - ln_m)
    p = np.exp(z_n - ln_n)
    q = np.exp(z_m - ln_m)
    if n_paths == 1:
        std_error = 0.0
    else:
        std_error = float(
            np.sqrt(n_paths / (n_paths - 1.0)) * np.sqrt(((p - q) ** 2).sum())
        )
    return McEstimate(
        value=value, std_error=std_error, n_paths=n_paths, horizon=int(n), seed=int(seed)
    )
