"""Exponential-cost kernel transformations.

Everything downstream of the raw model works with the twisted kernel
e^{theta*c_i(x,a,b)} * P(y|x,a,b), mixed over the players' strategies, and
with its normalization: the log-normalizer c^_i(x, phi, psi) (the log of
the normalizing constant c~_i) and the normalized probability kernel P^_i.
This module is the one place where theta * cost meets the transition law.
:func:`log_twisted_tensor` builds the kernel with both strategies mixed
in, and the Bellman solver takes its opponent-mixed kernel from the same
two route builders, :func:`_table_side` and, on an exact additive
decomposition, :func:`_split_side`, without the log.  Every strategy is mixed in by one
primitive, :func:`_mixed_side`: in log space, with the weights shifted by
their maximum so large theta * cost never overflows, and with one matrix
product over the mixed action axes, read straight from the transition
table without copying it or, when the instance's additive decomposition
reproduces its tables exactly, from the per-player parts p1 and p2 of that
decomposition.  This module also provides the twisted next-state measure
that attains the entropy dual and relative entropy itself.
"""
from __future__ import annotations

import numpy as np

from .game_model import GameInstance


def _check_simplex(name: str, w: np.ndarray, size: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {w.shape}")
    # written so a NaN sum fails too
    if np.any(w < 0.0) or not abs(w.sum() - 1.0) <= 1e-9:
        raise ValueError(f"{name} is not a probability vector: {w!r}")
    return w


def log_twisted_tensor(instance: GameInstance, player: int, phi, psi) -> np.ndarray:
    """ln Q: the player's twisted kernel with both strategies mixed in.

    phi [..., x, a] and psi [..., x, b] are strategy rows; leading batch axes
    broadcast.  The result, indexed [..., x, y], is

        ln Q(x, y) = ln sum_{a,b} phi(a|x) psi(b|x) e^{theta*c_i(x,a,b)} P(y|x,a,b).

    The log weights are shifted by their maximum over the actions, and the
    sum is taken as ln(sum e^{w - s} P) + s: no e^{theta*c} is formed.
    Entries are -inf where the mixed transition vanishes.  The kernel is
    mixed by one of two routes:

    - the split route, when the instance's additive decomposition
      reproduces its tables bit for bit (decided once per instance):
      P = p1 + p2 and c_i = c_i1 + c_i2 let each player's side be summed on
      its own, from p1 [x, a, y] and p2 [x, b, y], in O(X*(A+B)*Y) instead
      of O(X*A*B*Y) (see :func:`_log_kernel`);
    - otherwise the table route: one matrix product per state, in BLAS at
      memory speed, of the weights w = theta*c + ln phi + ln psi against the
      table's reshape P [x, a*b, y].

    Raises:
        TypeError: if phi or psi is missing; the one-player kernel with only
            the opponent mixed in is the one a solve sweeps
            (``SolveResult.kernel``).
    """
    if phi is None or psi is None:
        raise TypeError("log_twisted_tensor mixes in both strategies: give phi and psi")
    return _log_kernel(instance, player, slice(None), phi, psi)


def _log_kernel(instance: GameInstance, player: int, rows: slice, phi, psi) -> np.ndarray:
    """:func:`log_twisted_tensor` on the states ``rows``, which phi and psi already cover.

    The table route is ln Q = ln R + sigma of :func:`_table_side`.  On the
    split route, with (w_a, p1, sigma_b, T, R) from :func:`_split_side` (psi
    mixed into player 2's side) and (sigma_a, T_a, R_a) of phi mixed into
    player 1's,

        ln Q = ln(T R_a + T_a R) + sigma_a + sigma_b                 [..., x, y].

    Every beta is at most 1, so nothing overflows; an entry is -inf exactly
    where the mixed transition vanishes.
    """
    with np.errstate(divide="ignore"):
        if instance._exact_arat is None:
            sigma, _, mixed = _table_side(instance, player, rows, phi, psi)
        else:
            w_a, p1, sigma_b, t, r = _split_side(instance, player, rows, phi, psi)
            sigma_a, t_a, r_a = _mixed_side(w_a, p1, phi)
            mixed = t[..., None] * r_a + t_a[..., None] * r
            sigma = sigma_a + sigma_b
        np.log(mixed, out=mixed)
    mixed += sigma[..., None]
    return mixed


def _split_side(instance: GameInstance, player: int, rows: slice, phi=None, psi=None) -> tuple:
    """One strategy mixed into the player's exact decomposition: (w_kept, p_kept, sigma, T, R).

    The table is e^{w_a + w_b} (p1 + p2), with w_a = theta*c_i1 [x, a] on
    player 1's actions and w_b = theta*c_i2 [x, b] on player 2's.  psi, when
    given, is mixed into player 2's side and player 1's side (w_a, p1) is
    kept; otherwise phi is mixed into player 1's and (w_b, p2) is kept.
    With (sigma, T, R) of the mixed side (:func:`_mixed_side`), the kernel
    with that strategy mixed in is

        M(x, k, y) = e^{w_kept(x, k) + sigma(x)} (T(x) p_kept(x, k, y) + R(x, y)),

    all on the states ``rows``.  Called with divide warnings off.
    """
    split = instance._exact_arat
    c_a, c_b = (split.c11, split.c12) if player == 1 else (split.c21, split.c22)
    sides = [(c_a, split.p1), (c_b, split.p2)]
    (c_kept, p_kept), (c_mixed, p_mixed) = sides if psi is not None else sides[::-1]
    sigma, t, r = _mixed_side(
        instance.theta * c_mixed[rows], p_mixed[rows], phi if psi is None else psi
    )
    return instance.theta * c_kept[rows], p_kept[rows], sigma, t, r


def _table_side(instance: GameInstance, player: int, rows: slice, phi=None, psi=None) -> tuple:
    """The given strategies mixed into the player's table: (sigma, T, R) of :func:`_mixed_side`.

    The log weights w = theta*c_i [x, a, b] and rows P [x, a, b, y] of the
    states ``rows`` are arranged with the mixed action axis last: psi mixes
    P as it is, phi its transposed view [x, b, a, y] (no copy), and both
    its reshape [x, a*b, y] with w + ln phi.  The kernel with them mixed in
    is then

        M [..., x, k, y] (one given) or Q [..., x, y] (both) = e^{sigma} R,

    k the action left unmixed.  Called with divide warnings off.
    """
    w, t = instance.theta * instance.cost(player)[rows], instance.transition[rows]
    if phi is None:
        s = psi[..., None, :]
    elif psi is None:
        w, t, s = w.swapaxes(-1, -2), t.swapaxes(1, 2), phi[..., None, :]
    else:
        w = w + np.log(phi)[..., None]
        w = w.reshape(*w.shape[:-2], -1)
        s = np.concatenate([psi] * phi.shape[-1], axis=-1)  # psi(b|x) at a*B + b
        t = t.reshape(t.shape[0], -1, t.shape[3])
    return _mixed_side(w, t, s)


def _mixed_side(w: np.ndarray, p: np.ndarray, s) -> tuple:
    """(sigma, T, R) of one mixed action side: log weights w [x, k], rows p [x, k, y].

    With g = w + ln s over strategy rows s [..., x, k], sigma = max_k g and
    beta = e^{g - sigma} <= 1: T = sum_k beta [..., x] and
    R = sum_k beta_k p [..., x, y], one matrix product per state.  w and p
    may carry an unmixed action axis after x, as on the table route.  This is
    the one place a strategy is mixed into a kernel.  Called with divide
    warnings off, for the ln 0 of a zero strategy weight.
    """
    g = w + np.log(s)
    sigma = np.maximum.reduce(g, axis=-1)
    g -= sigma[..., None]
    beta = np.exp(g, out=g)
    return sigma, np.add.reduce(beta, axis=-1), np.matmul(beta[..., None, :], p)[..., 0, :]


def normalized_kernel(
    instance: GameInstance, player: int, x: int, phi, psi
) -> tuple[float, np.ndarray]:
    """Mixed twisted row at x, normalized into a probability row: (c_hat, p_hat).

    Row x of ln Q = log_twisted_tensor(instance, player, phi, psi) with phi
    and psi played in every state gives the log-normalizer c_hat = ln sum_y
    Q(x, y) (the transition rows sum to one) and the normalized row p_hat =
    Q(x, .) / e^{c_hat}, formed from ln Q shifted by its maximum so neither
    overflows.  Only row x is mixed, by the same route as the whole kernel.
    """
    phi = _check_simplex("phi", phi, instance.n_actions_a)
    psi = _check_simplex("psi", psi, instance.n_actions_b)
    x = range(instance.n_states)[x]  # IndexError past either end
    log_q = _log_kernel(instance, player, slice(x, x + 1), phi[None], psi[None])[0]
    top = log_q.max()
    row = np.exp(log_q - top)
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
