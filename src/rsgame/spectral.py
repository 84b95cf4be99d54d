"""Spectral oracle for the ergodic value of a frozen strategy pair.

Once both players commit to stationary strategies, the expectation
E_x[e^{theta * accumulated cost over n steps}] is the x-th entry of Q^n 1,
where Q is the strategy-mixed twisted matrix.  The long-run growth rate is
therefore ln of the spectral radius of Q — an independent check on the
Bellman solvers that involves no optimization at all.  Positive matrices
make the radius simple: power iteration with max-normalization converges
geometrically.

finite_horizon_growth returns the n-th increment of the log moment
generating function, ln (Q^n 1)(x) - ln (Q^{n-1} 1)(x), which converges to
the ergodic value geometrically (at the eigenvalue-ratio rate); the plain
time average (1/n) ln (Q^n 1)(x), exposed as horizon_log_mgf / n, carries an
O(1/n) bias from the eigenvector spread and is kept for documentation of
the prelimit.

Q is held as ln Q, built by transforms.log_twisted_tensor, and every
product runs in log space on the row-shifted matrix K = e^{ln Q - rowmax}
<= 1 with a max-normalized vector, so large theta * cost cannot overflow.
The power sweep is kept apart from the Bellman solvers' value iteration, so
the oracle stays an independent check on them.  ergodic_cost can instead
take Q from a solve's opponent-mixed kernel, mixing in only the player's own
strategy.  On the table route that saves a pass over the transition table
when the kernel is at hand, at the price of that independence.  On an exact
additive decomposition the solve never formed its kernel, and Q is the
doubly mixed kernel of both strategies, the same one twisted_matrix builds.
"""
from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .game_model import GameInstance, StationaryStrategy, _scalar, check_strategy
from .transforms import log_twisted_tensor

if TYPE_CHECKING:
    from .bellman import _DenseKernel, _SplitKernel

DEFAULT_TOL = 1e-12
MAX_POWER_STEPS = 100_000
#: bracket floor per unit of the largest |growth| in a step: growths near M
#: carry rounding of about eps*M, so a bracket below a few of those is noise
_NOISE_FLOOR = 4.0 * np.finfo(float).eps


def twisted_matrix(
    instance: GameInstance, player: int, Phi: StationaryStrategy, Psi: StationaryStrategy
) -> np.ndarray:
    """ln Q[x][y], Q[x][y] = sum_{a,b} Phi(a|x) Psi(b|x) e^{theta*c_i(x,a,b)} P(y|x,a,b).

    Args:
        player: i, the integer 1 or 2.
    """
    return log_twisted_tensor(
        instance, player, check_strategy(instance, Phi, 1), check_strategy(instance, Psi, 2)
    )


def _log_powers(log_q: np.ndarray):
    """Yield (growth, log_u, scale) after each product u <- Q u, from u = 1.

    After k products ln(Q^k 1) = log_u + scale with max(log_u) = 0, and
    growth = ln(Q^k 1) - ln(Q^{k-1} 1) is read off without the large
    running scale.
    """
    shift = log_q.max(axis=1)
    kernel = np.exp(log_q - shift[:, None])
    log_u = np.zeros(log_q.shape[0])
    scale = 0.0
    while True:
        nxt = np.log(kernel @ np.exp(log_u)) + shift
        growth = nxt - log_u
        top = nxt.max()
        log_u = nxt - top
        scale += top
        yield growth, log_u, scale


def _nth_power(log_q: np.ndarray, n: int):
    return next(islice(_log_powers(log_q), n - 1, None))


def perron_value(
    log_q: np.ndarray, anchor: int = 0, tol: float = DEFAULT_TOL
) -> tuple[float, np.ndarray]:
    """Log spectral radius and log right eigenvector of a positive matrix Q, given ln Q.

    Power iteration in log space.  Each step's per-state growth brackets the
    log radius (Collatz-Wielandt); once the bracket is narrower than tol,
    or than the step's rounding noise 4 eps max|growth| if that is wider,
    one more step gives the value at the anchor.  Returns (ln r, ln w), the
    eigenvector w scaled so ln w[anchor] = 0; w itself would overflow once
    its entries spread past ~e^709.

    Args:
        anchor: the state that pins ln w to 0, an integer in [0, n).

    Raises:
        ValueError: if ln Q is not square, has an entry that is not finite
            (Q not strictly positive), or anchor is out of range.
        RuntimeError: if the step cap is hit (cannot happen for strictly
            positive matrices; kept as a defensive guard).
    """
    log_q = np.asarray(log_q, dtype=float)
    if log_q.ndim != 2 or log_q.shape[0] != log_q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {log_q.shape}")
    if not np.all(np.isfinite(log_q)):
        raise ValueError("perron_value requires a strictly positive matrix")
    anchor = _scalar("anchor", anchor, 0, log_q.shape[0], integer=True)
    bracketed = False
    for growth, log_u, _ in islice(_log_powers(log_q), MAX_POWER_STEPS):
        if bracketed:
            return float(growth[anchor]), log_u - log_u[anchor]
        top, bottom = growth.max(), growth.min()
        bracketed = top - bottom < max(tol, _NOISE_FLOOR * max(top, -bottom))
    raise RuntimeError(f"power iteration did not converge in {MAX_POWER_STEPS} steps")


def ergodic_cost(
    instance: GameInstance,
    player: int,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    kernel: _DenseKernel | _SplitKernel | None = None,
) -> float:
    """Risk-sensitive ergodic value of a frozen pair: ln spectral radius of Q.

    Equals the limit of (1/n) ln E_x[e^{theta * n-step cost}], independent of
    the start state for strictly positive transition laws.

    Q is twisted_matrix(instance, player, Phi, Psi), unless kernel is given:
    ``SolveResult.kernel`` after the player's solve against the other
    strategy, the player's twisted kernel M [x, own action, y] with that
    strategy already mixed in.  Q is then M with the player's own strategy
    mixed in.  On the table route the transition table is not read, and
    the result agrees with the default to a few ulps of max(1, |value|).
    On an exact additive decomposition the solve never formed M, and Q is
    the doubly mixed kernel built from both strategies' rows, so the
    result equals the default exactly.

    Args:
        player: the integer 1 or 2.

    Raises:
        ValueError: if the kernel was swept for the other player or does
            not fit the player's actions.
    """
    if kernel is None:
        log_q = twisted_matrix(instance, player, Phi, Psi)
    else:
        own = check_strategy(instance, Phi if player == 1 else Psi, player)
        if kernel.player != player or kernel.shape != (*own.shape, instance.n_states):
            raise ValueError(
                f"kernel {kernel.shape} of player {kernel.player} does not match "
                f"player {player}'s actions {own.shape}"
            )
        log_q = kernel.mix_own(own)
    ln_r, _ = perron_value(log_q, instance.anchor_state)
    return ln_r


def finite_horizon_growth(
    instance: GameInstance,
    player: int,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x: int,
    n: int,
) -> float:
    """Exact n-step growth of the twisted expectation from state x.

    Returns ln E_x[e^{theta S_n}] - ln E_x[e^{theta S_{n-1}}], the per-step
    increment of the log moment generating function (S_k the k-step cost
    sum), computed by n log-stabilized matrix-vector products.  The
    increments converge geometrically to :func:`ergodic_cost`; at n = 1 the
    value is ln of the twisted row sum at x.

    Args:
        player: the integer 1 or 2.
        x: start state, an integer in [0, n_states).
        n: horizon, an integer >= 1.
    """
    n = _scalar("n", n, 1, integer=True)
    x = _scalar("x", x, 0, instance.n_states, integer=True)
    growth, _, _ = _nth_power(twisted_matrix(instance, player, Phi, Psi), n)
    return float(growth[x])


def horizon_log_mgf(
    instance: GameInstance,
    player: int,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x: int,
    n: int,
) -> float:
    """Exact ln E_x[e^{theta * n-step cost}] = ln (Q^n 1)(x).

    The time average of this quantity approaches the ergodic value only at
    rate O(1/n); it is the distribution target for Monte Carlo validation.

    Args:
        player: the integer 1 or 2.
        x: start state, an integer in [0, n_states).
        n: horizon, an integer >= 0.
    """
    n = _scalar("n", n, 0, integer=True)
    x = _scalar("x", x, 0, instance.n_states, integer=True)
    log_q = twisted_matrix(instance, player, Phi, Psi)
    if n == 0:
        return 0.0
    _, log_u, scale = _nth_power(log_q, n)
    return float(log_u[x] + scale)
