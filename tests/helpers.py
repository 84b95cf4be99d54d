"""Shared corpus builders, reference oracles and file writers for the test suite."""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
from numpy.testing import assert_array_equal

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


def lifted_arat_instance(seed: int, dims, theta: float) -> rs.GameInstance:
    """An exact-split instance whose theta * cost reaches ~800 for any theta."""
    base = rs.random_instance(seed, dims=dims, min_prob=1e-3, arat_flag=True)
    a = base.arat
    lift = 800.0 / theta  # each component is below 0.5, each cost below 1
    arat = rs.AratStructure(a.p1, a.p2, a.c11 * lift, a.c21 * lift, a.c12 * lift, a.c22 * lift)
    return rs.assemble_from_arat(arat, theta=theta)


def random_pair(instance: rs.GameInstance, rng: np.random.Generator):
    phi = rs.StationaryStrategy(
        1, rng.dirichlet(np.ones(instance.n_actions_a), size=instance.n_states)
    )
    psi = rs.StationaryStrategy(
        2, rng.dirichlet(np.ones(instance.n_actions_b), size=instance.n_states)
    )
    return phi, psi


def assert_within_ulps(got: np.ndarray, want: np.ndarray, ulps: float) -> None:
    assert got.shape == want.shape
    assert_array_equal(np.isneginf(got), np.isneginf(want))
    on = np.isfinite(want)
    assert np.all(np.isfinite(got[on]))
    bound = ulps * np.finfo(float).eps * np.maximum(1.0, np.abs(want[on]))
    assert np.all(np.abs(got[on] - want[on]) <= bound)


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


def einsum_log_twisted(instance: rs.GameInstance, player: int, phi=None, psi=None) -> np.ndarray:
    """ln of the mixed twisted kernel by one einsum: the reference for log_twisted_tensor.

    The log weights theta*c + ln phi + ln psi are laid out on the whole
    [..., x, a, b] grid, shifted by their maximum over the mixed axes, and
    contracted with the transition table by einsum's generic loop; at least
    one of phi and psi must be given.
    """
    w = instance.theta * instance.cost(player)
    with np.errstate(divide="ignore"):
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


def solve_log_kernel(
    instance: rs.GameInstance, player: int, opponent: rs.StationaryStrategy
) -> np.ndarray:
    """ln M [x, k, y]: the opponent-mixed kernel a solve of player sweeps, read off its sweep.

    Swept at v = ln e_y (0 at y, -inf elsewhere), the kernel gives
    ln sum_y' M(x, k, y') e^{v(y')} = ln M(x, k, y), one y per batch row.
    """
    kernel = rs.bellman._solve_kernel(instance, player, opponent)
    with np.errstate(divide="ignore"):
        return np.moveaxis(kernel.sweep(np.log(np.eye(instance.n_states))), 0, -1)


def pure_pair_log_q(instance: rs.GameInstance, player: int) -> np.ndarray:
    """ln Q of every pure pair (a, b) played in every state, as a table [x, a, b, y].

    A pure row weighs one action by 1 and the rest by 0, so row x of the
    pair's ln Q is theta*c_i(x, a, b) + ln P(.|x, a, b): the unmixed twisted
    table, from one batched call of log_twisted_tensor.
    """
    nx, na, nb = instance.n_states, instance.n_actions_a, instance.n_actions_b
    phi = np.broadcast_to(np.eye(na)[:, None, None, :], (na, 1, nx, na))
    psi = np.broadcast_to(np.eye(nb)[None, :, None, :], (1, nb, nx, nb))
    return rs.log_twisted_tensor(instance, player, phi, psi).transpose(2, 0, 1, 3)


def all_rows_normalized_kernel(
    instance: rs.GameInstance, player: int, x: int, phi, psi
) -> tuple[float, np.ndarray]:
    """(c_hat, p_hat) with phi and psi mixed into every state's rows, then row x kept.

    The all-rows form that normalized_kernel's one-row mixing replaces; kept
    as its reference.
    """
    n = instance.n_states
    log_q = rs.log_twisted_tensor(
        instance, player, np.broadcast_to(phi, (n, len(phi))),
        np.broadcast_to(psi, (n, len(psi))),
    )
    top = log_q[x].max()
    row = np.exp(log_q[x] - top)
    total = row.sum()
    return float(np.log(total) + top), row / total


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


def full_document(instance: rs.GameInstance) -> dict:
    """The instance's document in the full form: ``transition``, ``cost1`` and ``cost2`` included.

    ``instance_to_dict`` writes an instance assembled from its decomposition
    as the decomposition alone; this writes the tables out as well, in the
    full form's key order, as documents holding given tables have them.
    Loading it takes the given-table path.
    """
    doc = rs.instance_to_dict(instance)
    arat = doc.pop("arat", None)
    doc.update((key, getattr(instance, key).tolist())
               for key in ("transition", "cost1", "cost2"))
    if arat is not None:
        doc["arat"] = arat
    return doc


def read_instance(path) -> rs.GameInstance:
    """The instance in a JSON document written by :func:`write_document` or the CLI."""
    return rs.instance_from_dict(json.loads(Path(path).read_text()))


def logsumexp(z, axis=None):
    """ln sum e^z over ``axis`` (all entries by default), shifted by the maximum."""
    top = np.max(z, axis=axis, keepdims=True)
    return np.log(np.exp(z - top).sum(axis=axis)) + np.squeeze(top, axis=axis)


def reference_digest(instance: rs.GameInstance) -> str:
    """The documented binary instance digest, packed value by value with struct.

    The reference for rsgame.instance_digest: the entries come from
    ``tolist()`` and are packed by ``struct``, not taken from NumPy's buffers.
    """
    tables = {"transition": instance.transition, "cost1": instance.cost1,
              "cost2": instance.cost2}
    if instance.arat is not None:
        for f in ("p1", "p2", "c11", "c21", "c12", "c22"):
            tables[f] = getattr(instance.arat, f)
    h = hashlib.sha256()
    for key in sorted(tables):
        shape = tables[key].shape
        entries = tables[key].ravel().tolist()  # C order
        h.update(key.encode("utf-8") + b"\0")
        h.update(struct.pack(f"<{1 + len(shape)}q", len(shape), *shape))
        h.update(struct.pack(f"<{len(entries)}d", *entries))
    h.update(struct.pack("<d", instance.theta))
    h.update(struct.pack("<q", instance.anchor_state))
    return h.hexdigest()
