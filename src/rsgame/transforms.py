"""Exponential-cost kernel transformations.

Everything downstream of the raw model works with the twisted kernel
e^{theta*c_i(x,a,b)} * P(y|x,a,b), mixed over the players' strategies, and
with its normalization: the normalizing constant c~_i(x, phi, psi), the
log-normalizer c^_i = ln c~_i, and the normalized probability kernel P^_i.
:func:`log_twisted_tensor` is the one place where theta * cost meets the
transition law.  It works in log space with the weights shifted by their
maximum, so large theta * cost never overflows.  This module also provides
the twisted next-state measure that attains the entropy dual, relative
entropy itself, and plain bilinear strategy mixing of the transition law.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game_model import GameInstance, StationaryStrategy, check_strategy


@dataclass(frozen=True, eq=False)
class MixedEvaluation:
    """Normalized twisted kernel at one state under a mixed-action pair.

    c_hat is the log-normalizer, p_hat the normalized next-state
    probability row, and c_tilde = e^{c_hat} the normalizing constant (in
    [1, e^{theta*c_bar}]); c_tilde overflows to inf once c_hat passes ~709.
    """

    x: int
    phi: np.ndarray
    psi: np.ndarray
    c_hat: float
    p_hat: np.ndarray

    @property
    def c_tilde(self) -> float:
        return float(np.exp(self.c_hat))


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


def mix_transition(instance: GameInstance, x: int, phi, psi) -> np.ndarray:
    """Transition row at x under mixed actions: sum_{a,b} P(.|x,a,b) phi(a) psi(b)."""
    phi = _check_simplex("phi", phi, instance.n_actions_a)
    psi = _check_simplex("psi", psi, instance.n_actions_b)
    return np.einsum("a,b,aby->y", phi, psi, instance.transition[x])


def normalized_kernel(instance: GameInstance, player: int, x: int, phi, psi) -> MixedEvaluation:
    """Mixed twisted row at x, normalized into a probability row.

    Row x of ln Q = log_twisted_tensor(instance, player, phi, psi) with phi
    and psi played in every state gives c_hat = ln sum_y Q(x, y) (the
    transition rows sum to one) and p_hat = Q(x, .) / e^{c_hat}.
    """
    phi = _check_simplex("phi", phi, instance.n_actions_a)
    psi = _check_simplex("psi", psi, instance.n_actions_b)
    n = instance.n_states
    log_q = log_twisted_tensor(
        instance, player, np.broadcast_to(phi, (n, phi.size)),
        np.broadcast_to(psi, (n, psi.size)),
    )
    c_hat, p_hat = _normalize(log_q[x])
    return MixedEvaluation(x=x, phi=phi, psi=psi, c_hat=float(c_hat), p_hat=p_hat)


def _normalize(log_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-sums and normalized rows of e^{log_q}, without overflow."""
    top = log_q.max(axis=-1, keepdims=True)
    rows = np.exp(log_q - top)
    total = rows.sum(axis=-1, keepdims=True)
    return (np.log(total) + top)[..., 0], rows / total


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


def frozen_pair_instance(
    instance: GameInstance,
    player: int,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
) -> GameInstance:
    """Single-action game equivalent to holding both strategies fixed.

    The new transition rows are the normalized twisted rows P^_i(.|x, Phi(x),
    Psi(x)) and the player's cost is c^_i / theta, so running value iteration
    on the result reproduces the frozen pair's ergodic value.  The other
    player's cost is zeroed (irrelevant once both strategies are frozen).
    """
    log_q = log_twisted_tensor(
        instance, player, check_strategy(instance, Phi, 1), check_strategy(instance, Psi, 2)
    )
    c_hat, p_hat = _normalize(log_q)
    # c_hat >= 0 for nonnegative costs; clip the rounding of a zero-cost row
    own_cost = np.maximum(c_hat, 0.0)[:, None, None] / instance.theta
    zero = np.zeros_like(own_cost)
    cost1, cost2 = (own_cost, zero) if player == 1 else (zero, own_cost)
    return GameInstance(
        p_hat[:, None, None, :], cost1, cost2, instance.theta, instance.anchor_state
    )
