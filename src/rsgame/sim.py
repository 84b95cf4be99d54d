"""Trajectory simulation and Monte Carlo validation of the exact oracles.

Paths of the controlled chain are sampled with both players following fixed
stationary strategies: at each step the actions are drawn independently
from Phi(x) and Psi(x), then the next state from P(.|x,a,b).  All
randomness for a run comes from one seeded generator whose draws are laid
out in a fixed (step, variable, path) block, so path i consumes the same
uniforms no matter how the computation is scheduled.

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


def sample_path(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x0: int,
    n: int,
    seed: int,
) -> Trajectory:
    """Sample one n-step trajectory; deterministic per seed.

    Works for any valid transition table, including rows with zero entries
    (deterministic chains), which the optimizing solvers reject.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= x0 < instance.n_states:
        raise ValueError(f"x0 = {x0} out of range")
    cum_a = np.cumsum(check_strategy(instance, Phi, 1), axis=1)
    cum_b = np.cumsum(check_strategy(instance, Psi, 2), axis=1)
    cum_p = np.cumsum(instance.transition, axis=3)
    draws = np.random.default_rng(seed).random((int(n), 3))
    states = np.empty(int(n) + 1, dtype=int)
    actions_a = np.empty(int(n), dtype=int)
    actions_b = np.empty(int(n), dtype=int)
    c1 = np.empty(int(n))
    c2 = np.empty(int(n))
    x = int(x0)
    states[0] = x
    for t in range(int(n)):
        a = int(np.searchsorted(cum_a[x], draws[t, 0], side="right"))
        b = int(np.searchsorted(cum_b[x], draws[t, 1], side="right"))
        a = min(a, instance.n_actions_a - 1)
        b = min(b, instance.n_actions_b - 1)
        y = int(np.searchsorted(cum_p[x, a, b], draws[t, 2], side="right"))
        y = min(y, instance.n_states - 1)
        actions_a[t], actions_b[t] = a, b
        c1[t] = instance.cost1[x, a, b]
        c2[t] = instance.cost2[x, a, b]
        x = y
        states[t + 1] = x
    zero = np.zeros(1)
    cost_sums = np.stack(
        [np.concatenate([zero, np.cumsum(c1)]), np.concatenate([zero, np.cumsum(c2)])]
    )
    return Trajectory(states, actions_a, actions_b, cost_sums)


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
    paths between the two terms.
    """
    if n < 1 or n_paths < 1:
        raise ValueError("n and n_paths must be >= 1")
    if not 0 <= x < instance.n_states:
        raise ValueError(f"x = {x} out of range")
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    n, n_paths = int(n), int(n_paths)
    cum_a = np.cumsum(check_strategy(instance, Phi, 1), axis=1)
    cum_b = np.cumsum(check_strategy(instance, Psi, 2), axis=1)
    cum_p = np.cumsum(instance.transition, axis=3)
    cost = instance.cost(player)
    # one fixed block of uniforms: draws[t, k, i] is path i's k-th draw at
    # step t, independent of evaluation order
    draws = np.random.default_rng(seed).random((n, 3, n_paths))
    state = np.full(n_paths, int(x))
    total = np.zeros(n_paths)
    prev_total = np.zeros(n_paths)
    for t in range(n):
        a = (cum_a[state] <= draws[t, 0][:, None]).sum(axis=1)
        b = (cum_b[state] <= draws[t, 1][:, None]).sum(axis=1)
        a = np.minimum(a, instance.n_actions_a - 1)
        b = np.minimum(b, instance.n_actions_b - 1)
        if t == n - 1:
            prev_total = total.copy()
        total = total + cost[state, a, b]
        rows = cum_p[state, a, b]
        state = np.minimum(
            (rows <= draws[t, 2][:, None]).sum(axis=1), instance.n_states - 1
        )
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
        value=value, std_error=std_error, n_paths=n_paths, horizon=n, seed=int(seed)
    )
