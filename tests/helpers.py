"""Shared corpus builders, reference oracles and file writers for the test suite."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import rsgame as rs
from rsgame.game_model import dumps_decimal


def corpus_instance(seed: int, arat: bool = False, dims=None) -> rs.GameInstance:
    """Seeded random instance with dimensions drawn from the seed.

    States in 2..6, action counts in 1..4, min_prob 0.02 -- small enough
    to solve in bulk, varied enough to exercise degenerate shapes.
    """
    rng = np.random.default_rng(1000 + seed)
    if dims is None:
        dims = (
            int(rng.integers(2, 7)),
            int(rng.integers(1, 5)),
            int(rng.integers(1, 5)),
        )
    return rs.random_instance(seed, dims=dims, min_prob=0.02, arat_flag=arat)


def random_pair(instance: rs.GameInstance, rng: np.random.Generator):
    phi = rs.StationaryStrategy(
        1, rng.dirichlet(np.ones(instance.n_actions_a), size=instance.n_states)
    )
    psi = rs.StationaryStrategy(
        2, rng.dirichlet(np.ones(instance.n_actions_b), size=instance.n_states)
    )
    return phi, psi


def enumerate_delta(instance: rs.GameInstance) -> float:
    """Exhaustive minorization defect: max TV distance over pure tuples."""
    t = instance.transition
    n, na, nb, _ = t.shape
    worst = 0.0
    for x in range(n):
        for a in range(na):
            for b in range(nb):
                for xp in range(n):
                    for ap in range(na):
                        for bp in range(nb):
                            tv = 0.0
                            for y in range(n):
                                tv += abs(t[x, a, b, y] - t[xp, ap, bp, y])
                            worst = max(worst, 0.5 * tv)
    return worst


def enumerate_kappa(instance: rs.GameInstance) -> float:
    """Exhaustive likelihood-ratio bound over action tuples and state pairs."""
    t = instance.transition
    n, na, nb, _ = t.shape
    worst = 1.0
    for a in range(na):
        for b in range(nb):
            for y in range(n):
                for x in range(n):
                    for xp in range(n):
                        num = t[x, a, b, y]
                        den = t[xp, a, b, y]
                        if num == 0.0 and den == 0.0:
                            continue
                        if den == 0.0:
                            return float("inf")
                        worst = max(worst, num / den)
    return worst


def pairwise_tv_distances(instance: rs.GameInstance) -> np.ndarray:
    """L1 distances between all pure transition rows, built in one tensor.

    The one-shot (X*A*B)^2 * X form that game_model's tiled pass replaces;
    kept as the reference for that pass.
    """
    rows = instance.transition.reshape(-1, instance.n_states)
    return np.abs(rows[:, None, :] - rows[None, :, :]).sum(-1)


def mix_transition(instance: rs.GameInstance, x: int, phi, psi) -> np.ndarray:
    """Transition row at x under mixed actions: sum_{a,b} P(.|x,a,b) phi(a) psi(b)."""
    return np.einsum("a,b,aby->y", phi, psi, instance.transition[x])


def frozen_pair_instance(
    instance: rs.GameInstance,
    player: int,
    Phi: rs.StationaryStrategy,
    Psi: rs.StationaryStrategy,
) -> rs.GameInstance:
    """Single-action game equivalent to holding both strategies fixed.

    The new transition rows are the normalized twisted rows P^_i(.|x, Phi(x),
    Psi(x)) and the player's cost is c^_i / theta, so running value iteration
    on the result reproduces the frozen pair's ergodic value.  The other
    player's cost is zeroed (irrelevant once both strategies are frozen).
    """
    log_q = rs.twisted_matrix(instance, player, Phi, Psi)
    top = log_q.max(axis=1, keepdims=True)
    rows = np.exp(log_q - top)
    total = rows.sum(axis=1, keepdims=True)
    c_hat = (np.log(total) + top)[:, 0]
    # c_hat >= 0 for nonnegative costs; clip the rounding of a zero-cost row
    own_cost = np.maximum(c_hat, 0.0)[:, None, None] / instance.theta
    zero = np.zeros_like(own_cost)
    cost1, cost2 = (own_cost, zero) if player == 1 else (zero, own_cost)
    return rs.GameInstance(
        (rows / total)[:, None, None, :], cost1, cost2, instance.theta, instance.anchor_state
    )


def write_document(path, doc: dict) -> str:
    """Write ``doc`` as a decimal JSON document, as the CLI reads it; returns the path."""
    with open(path, "w") as f:
        f.write(dumps_decimal(doc) + "\n")
    return str(path)


def read_instance(path) -> rs.GameInstance:
    """The instance in a JSON document written by :func:`write_document` or the CLI."""
    return rs.instance_from_dict(json.loads(Path(path).read_text()))
