"""Trajectory simulation and Monte Carlo validation of the exact oracles.

Paths of the controlled chain are sampled with both players following fixed
stationary strategies: at each step the actions are drawn independently
from Phi(x) and Psi(x), then the next state from P(.|x,a,b).  All
randomness for a run comes from one seeded generator.  The draws are
streamed one (variable, path) block per step, so they are consumed in a
fixed (step, variable, path) order: path i uses the same uniforms however
many steps are held at once, and a single path (sample_path) sees the
stream a one-path Monte Carlo run sees.

mc_cost_estimate targets the n-th increment of the log moment generating
function, ln E_x[e^{theta S_n}] - ln E_x[e^{theta S_{n-1}}] — the exact
quantity spectral.finite_horizon_growth computes — by evaluating both
log-mean-exponentials on the same sample of paths.  The standard error
comes from the delta method: the increment is a smooth function of two
sample means, and its influence-function variance is the sum of squared
differences of the two exponential-weight vectors.  Like any log-mean-exp
estimator it is biased low in finite samples (Jensen); the bias is measured
by the test suite and documented rather than corrected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .game_model import GameInstance, StationaryStrategy, check_strategy


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
    uniforms u and picks each index as the count of cumulative
    probabilities <= u, clamped to the last index against rounding in the
    cumulative sums.
    """
    if n < 1 or n_paths < 1:
        raise ValueError(f"n and n_paths must be >= 1, got {n} and {n_paths}")
    if not 0 <= x0 < instance.n_states:
        raise ValueError(f"start state {x0} out of range")
    cum_a = np.cumsum(check_strategy(instance, Phi, 1), axis=1)
    cum_b = np.cumsum(check_strategy(instance, Psi, 2), axis=1)
    cum_p = np.cumsum(instance.transition, axis=3)
    na, nb, nx = instance.n_actions_a, instance.n_actions_b, instance.n_states
    n, n_paths = int(n), int(n_paths)

    def steps():
        rng = np.random.default_rng(seed)
        y = np.full(n_paths, int(x0))
        for _ in range(n):
            x = y
            u = rng.random((3, n_paths))
            a = np.minimum((cum_a[x] <= u[0][:, None]).sum(axis=1), na - 1)
            b = np.minimum((cum_b[x] <= u[1][:, None]).sum(axis=1), nb - 1)
            y = np.minimum((cum_p[x, a, b] <= u[2][:, None]).sum(axis=1), nx - 1)
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
    """
    steps = zip(*_walk(instance, Phi, Psi, x0, n, 1, seed))
    x, a, b, y = (np.concatenate(v) for v in steps)
    costs = np.stack([instance.cost1[x, a, b], instance.cost2[x, a, b]])
    cost_sums = np.concatenate([np.zeros((2, 1)), np.cumsum(costs, axis=1)], axis=1)
    return Trajectory(np.append(x, y[-1]), a, b, cost_sums)


def mc_cost_estimate(
    instance: GameInstance,
    player: int,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x: int,
    n: int,
    n_paths: int,
    seed: int,
) -> McEstimate:
    """Estimate the n-step growth increment by simulation.

    Simulates n_paths independent paths from x and returns

        value = ln sum_paths e^{theta S_n} - ln sum_paths e^{theta S_{n-1}},

    which estimates ln E[e^{theta S_n}] - ln E[e^{theta S_{n-1}}] (the path
    count cancels in the difference).  Aggregation is log-sum-exp, so large
    exponents never overflow.  std_error is the delta-method standard error
    of the difference, accounting for the correlation induced by sharing
    paths between the two terms.  Memory is O(n_paths): only the running
    sums S_n and S_{n-1} are kept.
    """
    cost = instance.cost(player)
    steps = _walk(instance, Phi, Psi, x, n, n_paths, seed)
    n_paths = int(n_paths)
    total = prev_total = np.zeros(n_paths)
    for xs, a, b, _ in steps:
        prev_total, total = total, total + cost[xs, a, b]
    z_n = instance.theta * total
    z_m = instance.theta * prev_total
    value = float(logsumexp(z_n) - logsumexp(z_m))
    p = np.exp(z_n - logsumexp(z_n))
    q = np.exp(z_m - logsumexp(z_m))
    if n_paths == 1:
        std_error = 0.0
    else:
        std_error = float(
            np.sqrt(n_paths / (n_paths - 1.0)) * np.sqrt(((p - q) ** 2).sum())
        )
    return McEstimate(
        value=value, std_error=std_error, n_paths=n_paths, horizon=int(n), seed=int(seed)
    )
