"""Spectral oracle for the ergodic value of a frozen strategy pair.

Once both players commit to stationary strategies, the expectation
E_x[e^{theta * accumulated cost over n steps}] is the x-th entry of Q^n 1,
where Q is the strategy-mixed twisted matrix.  The long-run growth rate is
therefore ln of the spectral radius of Q — an independent check on the
Bellman solvers that involves no optimization at all.  This module is the
one home of that root, for single matrices and brute force's stacks
alike, and the size picks the method: two states take the closed form of
the larger eigenvalue, other sizes power iteration with max-normalization,
which converges geometrically on positive matrices and stops on a bracket
below the constant TOL.

finite_horizon_growth returns the n-th increment of the log moment
generating function, ln (Q^n 1)(x) - ln (Q^{n-1} 1)(x), which converges to
the ergodic value geometrically (at the eigenvalue-ratio rate); the plain
time average (1/n) ln (Q^n 1)(x), exposed as horizon_log_mgf / n, carries an
O(1/n) bias from the eigenvector spread and is kept for documentation of
the prelimit.

Q is held as ln Q, built by transforms.log_twisted_tensor, and every
product runs in log space on the row-shifted matrix K = e^{ln Q - rowmax}
<= 1 with a max-normalized vector, so large theta * cost cannot overflow.
The roots are kept apart from the Bellman solvers' value iteration, so the
oracle stays an independent check on them.  ergodic_cost can instead
take Q from a solve's opponent-mixed kernel, mixing in only the player's own
strategy.  On the table route that saves a pass over the transition table
when the kernel is at hand, at the price of that independence.  On an exact
additive decomposition the solve never formed its kernel, and Q is the
doubly mixed kernel of both strategies, the same one twisted_matrix builds.
"""
from __future__ import annotations

from functools import reduce
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .game_model import GameInstance, StationaryStrategy, _scalar, check_strategy
from .transforms import log_twisted_tensor

if TYPE_CHECKING:
    from .bellman import _Kernel

#: bracket tolerance of a power-iteration root
TOL = 1e-12
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


def _over_states(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc reduced over the state axis of a [..., x].

    A stack folds its few state columns elementwise: numpy's reduce over a
    short last axis costs ~30 times as much per entry.
    """
    if a.ndim == 1:
        return ufunc.reduce(a)
    return reduce(ufunc, np.moveaxis(a, -1, 0))


def _any(flags: np.ndarray) -> bool:
    """Whether any flag is set: a single matrix's one flag is a numpy scalar,
    whose Python truth test costs a tenth of any()."""
    return bool(flags) if flags.ndim == 0 else bool(flags.any())


def _log_powers(log_q: np.ndarray):
    """Yield (growth, log_u, scale) after each product u <- Q u, from u = 1.

    ln Q may be one matrix [x, y] or a stack [..., x, y], every matrix
    multiplied on its own.  After k products ln(Q^k 1) = log_u + scale with
    max(log_u) = 0 per matrix, and growth = ln(Q^k 1) - ln(Q^{k-1} 1) is
    read off without the large running scale.  The product is a matmul, so
    a matrix's bits do not depend on the rest of its stack.
    """
    shift = log_q.max(axis=-1)
    kernel = np.exp(log_q - shift[..., None])
    log_u = np.zeros(log_q.shape[:-1])
    scale = 0.0
    while True:
        nxt = kernel @ np.exp(log_u)[..., None]
        nxt = np.log(nxt, out=nxt)[..., 0]
        nxt += shift
        growth = nxt - log_u
        top = _over_states(np.maximum, nxt)
        nxt -= top[..., None]
        log_u = nxt
        scale = scale + top
        yield growth, log_u, scale


def _nth_power(log_q: np.ndarray, n: int):
    return next(islice(_log_powers(log_q), n - 1, None))


def _power_roots(log_q: np.ndarray, anchor: int) -> tuple[np.ndarray, np.ndarray]:
    """(ln r, ln w) of each matrix of a stack ln Q [..., x, y], by power iteration.

    Each step's per-state growth brackets a matrix's log radius
    (Collatz-Wielandt).  One step after its bracket is narrower than TOL,
    or than the step's rounding noise 4 eps max|growth| if that is wider,
    a matrix's value is read at the anchor, with ln w[anchor] = 0.  Each
    matrix stops on its own bracket, so its value is the one it has alone.
    """
    ln_r = np.empty(log_q.shape[:-2])
    log_w = np.empty(log_q.shape[:-1])
    if ln_r.size == 0:
        return ln_r, log_w
    running = np.ones(ln_r.shape, dtype=bool)
    bracketed = ~running
    for growth, log_u, _ in islice(_log_powers(log_q), MAX_POWER_STEPS):
        if _any(bracketed):
            new = bracketed & running
            np.copyto(ln_r, growth[..., anchor], where=new)
            np.copyto(log_w, log_u - log_u[..., anchor, None], where=new[..., None])
            running &= ~new
            if not _any(running):
                return ln_r, log_w
        top, bottom = _over_states(np.maximum, growth), _over_states(np.minimum, growth)
        # spread < max(TOL, 4 eps max(top, -bottom)), one bound at a time: on
        # a single matrix's numpy scalars np.maximum costs ten comparisons
        spread = top - bottom
        bracketed = (
            (spread < TOL) | (spread < _NOISE_FLOOR * top) | (spread < -_NOISE_FLOOR * bottom)
        )
    raise RuntimeError(f"power iteration did not converge in {MAX_POWER_STEPS} steps")


def _log_perron(log_q: np.ndarray, anchor: int) -> np.ndarray:
    """ln spectral radius of each positive matrix of a stack ln Q [..., x, y], unchecked.

    Two states take the closed form of the larger eigenvalue, scaled by
    m = max(a, d, (b+c)/2) over the log entries [[a, b], [c, d]]; the
    discriminant is a sum of nonnegative terms, so nothing cancels, and
    anchor plays no part.  Other sizes run :func:`_power_roots`.
    """
    if log_q.shape[-1] != 2:
        return _power_roots(log_q, anchor)[0]
    a, b, c, d = log_q[..., 0, 0], log_q[..., 0, 1], log_q[..., 1, 0], log_q[..., 1, 1]
    # m + ln(0.5 (ea + ed) + sqrt(0.25 (ea - ed)^2 + e^{b + c - 2m})) in four
    # buffers, written in place: fresh pages cost more than the arithmetic
    m = np.maximum(a, d)
    u = np.add(b, c)
    u *= 0.5
    np.maximum(m, u, out=m)
    np.subtract(a, m, out=u)
    ea = np.exp(u, out=u)
    ed = np.subtract(d, m)
    np.exp(ed, out=ed)
    diff = np.subtract(ea, ed)
    half_sum = np.add(ea, ed, out=ea)
    half_sum *= 0.5
    np.square(diff, out=diff)
    diff *= 0.25
    # b + c - 2m as 2 (0.5 (b + c) - m): scaling by 2 is exact, so the bits agree
    cross = np.add(b, c, out=ed)
    cross *= 0.5
    cross -= m
    cross *= 2.0
    diff += np.exp(cross, out=cross)
    half_sum += np.sqrt(diff, out=diff)
    m += np.log(half_sum, out=half_sum)
    return m


def _two_state_vector(log_q: np.ndarray) -> np.ndarray:
    """ln w of the Perron vector of a positive 2x2 matrix Q, given ln Q.

    w = (q01, r - q00) when q00 <= q11, else (r - q11, q10).  The gap
    r - min(q00, q11) = h + sqrt(h^2 + q01 q10), h = |q00 - q11| / 2, is a
    sum of nonnegative terms, so it is formed without subtracting r and
    stays positive when r rounds to the diagonal.  It is scaled by e^s, s
    the larger of ln h and ln sqrt(q01 q10), so nothing under- or overflows.
    """
    (a, b), (c, d) = log_q
    with np.errstate(divide="ignore"):  # ln h = -inf when q00 = q11
        ln_h = max(a, d) + np.log(-0.5 * np.expm1(-abs(a - d)))
    ln_p = 0.5 * (b + c)
    s = max(ln_h, ln_p)
    h = np.exp(ln_h - s)
    ln_gap = s + np.log(h + np.hypot(h, np.exp(ln_p - s)))
    return np.array([b, ln_gap] if a <= d else [ln_gap, c])


def perron_value(log_q: np.ndarray, anchor: int = 0) -> tuple[float, np.ndarray]:
    """Log spectral radius and log right eigenvector of a positive matrix Q, given ln Q.

    Two states take the closed form of the larger eigenvalue and its
    eigenvector.  Other sizes run power iteration in log space: each
    step's per-state growth brackets the log radius (Collatz-Wielandt);
    once the bracket is narrower than TOL = 1e-12, or than the step's
    rounding noise 4 eps max|growth| if that is wider, one more step gives
    the value at the anchor.  Returns (ln r, ln w), the eigenvector w
    scaled so ln w[anchor] = 0; w itself would overflow once its entries
    spread past ~e^709.

    Args:
        anchor: the state that pins ln w to 0, an integer in [0, n).

    Raises:
        ValueError: if ln Q is not square, has an entry that is not finite
            (Q not strictly positive), or anchor is out of range.
        RuntimeError: if power iteration hits its step cap.  Twisted
            matrices settle in a few dozen steps, but a matrix whose rows
            spread their own entries over many orders of magnitude can be
            nearly periodic and never settle.
    """
    log_q = np.asarray(log_q, dtype=float)
    if log_q.ndim != 2 or log_q.shape[0] != log_q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {log_q.shape}")
    if not np.all(np.isfinite(log_q)):
        raise ValueError("perron_value requires a strictly positive matrix")
    anchor = _scalar("anchor", anchor, 0, log_q.shape[0], integer=True)
    if log_q.shape[0] != 2:
        ln_r, log_w = _power_roots(log_q, anchor)
        return float(ln_r), log_w
    log_w = _two_state_vector(log_q)
    return float(_log_perron(log_q[None], anchor)[0]), log_w - log_w[anchor]


def ergodic_cost(
    instance: GameInstance,
    player: int,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    kernel: _Kernel | None = None,
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
    player = _scalar("player", player, 1, 2, integer=True, ends="[]")
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
