"""Exponential-cost kernel transformations.

Everything downstream of the raw model works with the twisted kernel
e^{theta*c_i(x,a,b)} * P(y|x,a,b), mixed over the players' strategies, and
with its normalization: the log-normalizer c^_i(x, phi, psi) (the log of
the normalizing constant c~_i) and the normalized probability kernel P^_i.
:func:`log_twisted_tensor` is the one place where theta * cost meets the
transition law.  It works in log space with the weights shifted by their
maximum, so large theta * cost never overflows.  This module also provides
the twisted next-state measure that attains the entropy dual and relative
entropy itself.
"""
from __future__ import annotations

import numpy as np

from .game_model import GameInstance


def _check_simplex(name: str, w: np.ndarray, size: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {w.shape}")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not a probability vector: {w!r}")
    return w


def log_twisted_tensor(
    instance: GameInstance, player: int, phi=None, psi=None
) -> np.ndarray:
    """ln of the player's twisted kernel, with any given strategy rows mixed in.

    phi [..., x, a] and psi [..., x, b] are strategy rows; leading batch axes
    broadcast.  Each one given sums out its action axis:

        ln sum_{a,b} phi(a|x) psi(b|x) e^{theta*c_i(x,a,b)} P(y|x,a,b),

    indexed [..., x, b, y] (phi only), [..., x, a, y] (psi only) or
    [..., x, y] (both).  With neither, the result is the unmixed table
    [x][a][b][y].  The log weights w = theta*c + ln phi + ln psi are shifted
    by their maximum s over the mixed actions, and the sum is taken as
    ln(sum e^{w - s} P) + s: no e^{theta*c} is formed, and the 4-d log table
    is never built when a strategy is given.  Entries are -inf where the
    (mixed) transition vanishes.
    """
    w = instance.theta * instance.cost(player)
    with np.errstate(divide="ignore"):
        if phi is None and psi is None:
            return w[..., None] + np.log(instance.transition)
        if phi is not None:
            w = w + np.log(phi)[..., None]
        if psi is not None:
            w = w + np.log(psi)[..., None, :]
        axes, out = {
            (True, False): ((-2,), "xby"),
            (False, True): ((-1,), "xay"),
            (True, True): ((-2, -1), "xy"),
        }[phi is not None, psi is not None]
        shift = w.max(axis=axes, keepdims=True)
        mixed = np.einsum(f"...xab,xaby->...{out}", np.exp(w - shift), instance.transition)
        return np.log(mixed) + shift.squeeze(axis=axes)[..., None]


def normalized_kernel(
    instance: GameInstance, player: int, x: int, phi, psi
) -> tuple[float, np.ndarray]:
    """Mixed twisted row at x, normalized into a probability row: (c_hat, p_hat).

    Row x of ln Q = log_twisted_tensor(instance, player, phi, psi) with phi
    and psi played in every state gives the log-normalizer c_hat = ln sum_y
    Q(x, y) (the transition rows sum to one) and the normalized row p_hat =
    Q(x, .) / e^{c_hat}, formed from ln Q shifted by its maximum so neither
    overflows.
    """
    phi = _check_simplex("phi", phi, instance.n_actions_a)
    psi = _check_simplex("psi", psi, instance.n_actions_b)
    n = instance.n_states
    log_q = log_twisted_tensor(
        instance, player, np.broadcast_to(phi, (n, phi.size)),
        np.broadcast_to(psi, (n, psi.size)),
    )
    top = log_q[x].max()
    row = np.exp(log_q[x] - top)
    total = row.sum()
    return float(np.log(total) + top), row / total


def twisted_measure(p_hat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The measure proportional to e^{v(y)} p_hat(y).

    This is the maximizer of mu -> integral of v d(mu) - KL(mu || p_hat)
    over probability measures on next states.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    v = np.asarray(v, dtype=float)
    w = p_hat * np.exp(v - v.max())
    total = w.sum()
    if total <= 0.0:
        raise ValueError("p_hat has no mass")
    return w / total


def relative_entropy(p, q) -> float:
    """KL divergence sum p ln(p/q), with 0 ln 0 = 0 and +inf off support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    on = p > 0.0
    if np.any(q[on] == 0.0):
        return float("inf")
    return float(np.sum(p[on] * np.log(p[on] / q[on])))
