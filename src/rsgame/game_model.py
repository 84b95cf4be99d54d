"""Model types, validation, and file formats for finite two-player stochastic games.

A game instance holds a transition law P(y | x, a, b), one cost table per
player, a risk-sensitivity parameter theta > 0, and a distinguished anchor
state used to pin relative value functions.  The solvers in the rest of the
package require the standing model conditions checked by :func:`validate`:
a total-variation contraction coefficient delta < 1, uniformly positive
transition probabilities, and a finite worst-case density ratio kappa.
Games with additive (per-player) transition and cost decompositions carry an
optional :class:`AratStructure`, which is what the equilibrium-existence
machinery needs.

All tables are dense numpy arrays and enter through one gate, :func:`_own`:
instances are immutable after construction (the arrays are marked
read-only) and safe to share across workers.  An instance assembled from a
decomposition (:func:`assemble_from_arat`, so :func:`random_instance` with
``arat_flag`` and :func:`g2_instance`) holds ``p1`` and ``p2`` in place of
the X*A*B*Y transition table: it checks the rows of ``p1 + p2`` a block of
states at a time at construction, knows its decomposition exact from then
on, and builds the table only when something first reads ``transition``.
Its document holds the decomposition alone (:func:`instance_to_dict`).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np
# loaded with the package: numpy >= 2 defers numpy.random to its first use,
# which would otherwise land inside the first random_instance call
from numpy.random import default_rng

#: tolerance accepted for row sums on load / construction before renormalizing
ROW_SUM_TOL = 1e-9
#: tolerance at which stored tables are considered exact (type invariants)
EXACT_TOL = 1e-12
#: default uniform lower bound required of every transition probability
DEFAULT_MIN_PROB = 1e-6


class AssumptionError(ValueError):
    """A model condition required by the solvers does not hold."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array this module owns read-only, in place."""
    a.flags.writeable = False
    return a


def _own(a) -> np.ndarray:
    """The one gate for tables: a read-only, C-ordered float array no caller can write.

    A read-only array that owns its data is adopted, such as a table this
    module has just built and frozen, or another instance's table
    (``dataclasses.replace`` hands those back): it can change only if its
    holder flips it writable again, which an instance's own tables allow as
    well.  Anything else is copied, and the copy frozen.  C order lets the
    kernel code reshape and transpose the table as views.
    """
    if type(a) is np.ndarray and not a.flags.writeable and a.flags.owndata:
        return _frozen(np.asarray(a, dtype=float, order="C"))
    return _frozen(np.array(a, dtype=float, order="C"))


def _finite_nonnegative(name: str, a: np.ndarray) -> np.ndarray:
    """``a``, once every entry is known to be finite and >= 0; else ValueError.

    min and max carry a NaN through, so two reductions decide it without a
    temporary the size of the table.
    """
    if not (a.min(initial=0.0) >= 0.0 and a.max(initial=0.0) < np.inf):
        raise ValueError(f"{name} entries must be finite and >= 0")
    return a


def _scalar(name: str, value, low, high=math.inf, *, integer: bool = False, ends: str = "[)"):
    """The one gate for scalars: ``value`` as a checked int or float, else ValueError.

    With ``integer`` the value must be a Python or numpy integer, else a
    real: a Python or numpy integer or float.  A bool or a string is
    neither, and nothing is truncated, parsed or rounded.  The value must
    lie between ``low`` and ``high``, each end closed or open as ``ends``
    writes it in interval notation; NaN lies in no interval.  Messages read
    ``<name> must be <kind or interval>, got <value!r>``, with an interval
    open to +inf written ``finite and > low`` for reals and ``>= low`` for
    integers.
    """
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if not ((low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)):
        if high < math.inf:
            where = f"in {ends[0]}{low}, {high}{ends[1]}"
        else:
            where = ("finite and " if not integer else "") + (
                f"> {low}" if ends[0] == "(" else f">= {low}")
        raise ValueError(f"{name} must be {where}, got {value!r}")
    return int(value) if integer else float(value)


def _check_rows(name: str, rows: np.ndarray) -> tuple[np.ndarray, bool]:
    """Validate probability rows (last axis), renormalizing tiny drift.

    Rows whose sums deviate from 1 by more than ROW_SUM_TOL raise
    ValueError; rows within ROW_SUM_TOL but beyond EXACT_TOL are
    renormalized so the stored table satisfies the exact-sum invariant.
    Rows already exact are kept bit-for-bit.  Returns the rows and whether
    every entry is > 0, decided by the one minimum that also rules out
    negative entries (renormalizing by a sum within ROW_SUM_TOL of 1 keeps a
    positive entry positive).
    """
    # fmin skips NaN, which the row sums reject below
    low = np.fmin.reduce(rows, axis=None, initial=np.inf)
    if low < 0.0:
        idx = tuple(int(i[0]) for i in np.nonzero(rows < 0.0))
        raise ValueError(f"{name} has negative entry at index {idx}")
    sums = rows.sum(axis=-1)
    err = np.abs(sums - 1.0)
    off = ~(err <= ROW_SUM_TOL)  # a NaN entry makes its row's sum NaN: off too
    if np.any(off):
        idx = tuple(int(i) for i in np.argwhere(off)[0])
        raise ValueError(
            f"{name} row {idx} sums to {float(sums[idx])!r}, off by more than {ROW_SUM_TOL:g}"
        )
    if np.any(err > EXACT_TOL):
        rows = rows / sums[..., None]
    return rows, bool(low > 0.0)


#: the tables of an additive decomposition, in the order files list them
_ARAT_TABLES = ("p1", "p2", "c11", "c21", "c12", "c22")
#: the dimensions of an instance, as documents and random_instance name them
_DIMS = ("states", "actions_a", "actions_b")


@dataclass(frozen=True, eq=False)
class AratStructure:
    """Additive decomposition of transitions and costs into per-player parts.

    ``p1[x][a]`` and ``p2[x][b]`` are substochastic rows over next states
    adding up to the full transition row; ``c11/c21`` are the player-1-action
    cost components and ``c12/c22`` the player-2-action components, with
    cost_i(x,a,b) = c_i1(x,a) + c_i2(x,b).  Every entry of all six tables
    must be finite and >= 0, as the cost tables' must: a NaN would compare
    unequal to everything and so pass every consistency check.
    """

    p1: np.ndarray  # [x][a][y]
    p2: np.ndarray  # [x][b][y]
    c11: np.ndarray  # [x][a]
    c21: np.ndarray  # [x][a]
    c12: np.ndarray  # [x][b]
    c22: np.ndarray  # [x][b]

    def __post_init__(self):
        for f in _ARAT_TABLES:
            object.__setattr__(self, f, _finite_nonnegative(f, _own(getattr(self, f))))
        if self.p1.ndim != 3 or self.p2.ndim != 3:
            raise ValueError("p1 and p2 must be [x][action][y] tables")
        if self.p1.shape[0] != self.p2.shape[0] or self.p1.shape[2] != self.p2.shape[2]:
            raise ValueError(
                f"p1 {self.p1.shape} and p2 {self.p2.shape} disagree on states"
            )
        if np.any(self.p1.sum(-1) > 1.0 + ROW_SUM_TOL) or np.any(
            self.p2.sum(-1) > 1.0 + ROW_SUM_TOL
        ):
            raise ValueError("p1/p2 rows must be substochastic (sum <= 1)")
        if self.c11.shape != self.p1.shape[:2] or self.c21.shape != self.p1.shape[:2]:
            raise ValueError("c11/c21 must be [x][a] tables matching p1")
        if self.c12.shape != self.p2.shape[:2] or self.c22.shape != self.p2.shape[:2]:
            raise ValueError("c12/c22 must be [x][b] tables matching p2")


#: float64 scratch bytes one tile of a blocked pass over a table may use (the
#: row check of p1 + p2, the pairwise-distance pass): small enough that a tile
#: stays in a core's L2 cache
_TILE_BYTES = 256 * 2**10


def _sum_table(arat: AratStructure) -> np.ndarray:
    """The transition table p1 + p2 [x][a][b][y] of a decomposition, built whole and frozen."""
    return _frozen(arat.p1[:, :, None, :] + arat.p2[:, None, :, :])


def _split_positivity(arat: AratStructure) -> bool | None:
    """Whether every entry of p1 + p2 is > 0, when no row of it would be renormalized; else None.

    The rows are formed a block of states at a time, ``p1[xs][:, :, None] +
    p2[xs][:, None]``, in blocks of about _TILE_BYTES (at least one state:
    one at 300x20x20, which was fastest there).  A row sum runs along the
    block's contiguous last axis, so it has the bits :func:`_check_rows`
    gets from the whole table.  None as soon as a row sum is more than
    EXACT_TOL off 1: the caller then builds the table and checks it whole,
    which renormalizes the row or raises.  No entry is negative or NaN,
    since the decomposition's tables passed :func:`_finite_nonnegative`, so
    the smallest entry decides positivity as :func:`_check_rows`'s minimum
    does.
    """
    p1, p2 = arat.p1, arat.p2
    step = max(1, _TILE_BYTES // (p1[0].nbytes * p2.shape[1]))
    low = np.inf
    for x in range(0, len(p1), step):
        block = p1[x:x + step, :, None] + p2[x:x + step, None]
        if not np.all(np.abs(block.sum(axis=-1) - 1.0) <= EXACT_TOL):
            return None
        low = min(low, block.min())
    return bool(low > 0.0)


class _Unbuilt:
    """The ``transition`` argument :func:`assemble_from_arat` passes: p1 + p2, built on first read."""

    def __repr__(self) -> str:
        return "<p1 + p2, built on first read>"


_UNBUILT = _Unbuilt()


@dataclass(frozen=True, eq=False)
class GameInstance:
    """A finite two-player stochastic game with risk-sensitive ergodic cost.

    Args:
        transition: [x][a][b] -> probability row over next states.
        cost1, cost2: cost tables indexed [x][a][b], finite and >= 0.
        theta: risk-sensitivity parameter, a real, finite and > 0.
        anchor_state: state at which relative value functions are pinned
            to 0, an integer in [0, n_states).
        arat: optional additive decomposition (dimension-checked here;
            numerical consistency with the full tables is reported by
            :func:`validate`, not enforced at construction).

    Construction accepts transition rows summing to 1 within 1e-9 and
    renormalizes any drift beyond 1e-12, so stored rows always sum to 1 at
    the exact tolerance.  Zero transition entries are representable (e.g.
    deterministic chains for simulation tests) but fail validation.

    An instance from :func:`assemble_from_arat` whose rows of p1 + p2 need
    no renormalizing holds no transition table: it is built from ``p1`` and
    ``p2`` on the first read of ``transition`` and kept.  Such an instance
    knows its decomposition exact from construction; ``repr`` and
    :func:`instance_digest` do not build the table, and
    :func:`instance_to_dict` writes the decomposition alone.
    ``dataclasses.replace`` reads every field, so it builds the table; the
    copy holds the same arrays and treats the table as given, exactly as an
    instance built with it.
    """

    transition: np.ndarray
    cost1: np.ndarray
    cost2: np.ndarray
    theta: float = 1.0
    anchor_state: int = 0
    arat: AratStructure | None = None
    #: every transition entry is > 0, decided once at construction
    _positive: bool = field(init=False, repr=False)
    #: built from the decomposition alone (assemble_from_arat, no row
    #: renormalized): every table is the sum of its parts, bit for bit
    _assembled: bool = field(init=False, repr=False)

    def __post_init__(self):
        a = self.arat
        unbuilt = self.transition is _UNBUILT
        t = None if unbuilt else _own(self.transition)
        shape = (*a.p1.shape[:2], *a.p2.shape[1:]) if unbuilt else t.shape
        if len(shape) != 4 or shape[0] != shape[3]:
            raise ValueError(
                f"transition must be [x][a][b][y] with matching state axes, got {shape}"
            )
        if 0 in shape:
            raise ValueError(f"transition {shape} has an empty state or action axis")
        if unbuilt:
            positive = _split_positivity(a)
            if positive is None:  # a row to renormalize: the table is built and checked
                t = _sum_table(a)
        if t is None:
            del self.__dict__["transition"]  # built by __getattr__ on first read
            # assemble_from_arat built the cost tables from the same parts
            self.__dict__["_exact_arat"] = a
        else:
            # renormalized rows come back as a new array: frozen here
            t, positive = _check_rows("transition", t)
            object.__setattr__(self, "transition", _frozen(t))
        object.__setattr__(self, "_positive", positive)
        object.__setattr__(self, "_assembled", t is None)
        for f in ("cost1", "cost2"):
            c = _own(getattr(self, f))
            if c.shape != shape[:3]:
                raise ValueError(f"{f} shape {c.shape} != {shape[:3]}")
            object.__setattr__(self, f, _finite_nonnegative(f, c))
        object.__setattr__(self, "theta", _scalar("theta", self.theta, 0, ends="()"))
        object.__setattr__(self, "anchor_state", _scalar(
            "anchor_state", self.anchor_state, 0, shape[0], integer=True))
        if a is not None:
            if a.p1.shape != (shape[0], shape[1], shape[3]):
                raise ValueError(f"arat.p1 shape {a.p1.shape} inconsistent with {shape}")
            if a.p2.shape != (shape[0], shape[2], shape[3]):
                raise ValueError(f"arat.p2 shape {a.p2.shape} inconsistent with {shape}")

    def __getattr__(self, name: str):
        # reached only for an attribute the instance does not hold: an
        # assembled instance's transition table, built here once
        if name != "transition" or "arat" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        t = self.__dict__["transition"] = _sum_table(self.arat)
        return t

    def __repr__(self) -> str:
        # the generated repr would read, and so build, an unbuilt table
        shown = (f"{f.name}={self.__dict__.get(f.name, _UNBUILT)!r}"
                 for f in fields(self) if f.repr)
        return f"{type(self).__name__}({', '.join(shown)})"

    def _transition_blocks(self) -> Iterable[np.ndarray]:
        """The transition law in C order, in blocks, without building it.

        A held table is one block.  An unbuilt one comes as ``p1[x, a] +
        p2[x]`` [b, y] for each (x, a) in turn: the entries the built table
        would hold, bit for bit, with no temporary larger than one block.
        """
        if "transition" in self.__dict__:
            return (self.transition,)
        a = self.arat
        return (row + p2 for p1, p2 in zip(a.p1, a.p2) for row in p1[:, None])

    def _transition_rows(self, x, a, b) -> np.ndarray:
        """The rows ``transition[x, a, b]``, without building the table.

        An unbuilt table's rows are ``p1[x, a] + p2[x, b]``, the addition
        that builds it, so they have the built rows' bits.
        """
        if "transition" in self.__dict__:
            return self.transition[x, a, b]
        return self.arat.p1[x, a] + self.arat.p2[x, b]

    @property
    def n_states(self) -> int:
        return self.cost1.shape[0]

    @property
    def n_actions_a(self) -> int:
        return self.cost1.shape[1]

    @property
    def n_actions_b(self) -> int:
        return self.cost1.shape[2]

    @property
    def c_bar(self) -> float:
        """Common cost bound: the largest cost entry across both players."""
        return float(max(self.cost1.max(), self.cost2.max(), 0.0))

    def cost(self, player: int) -> np.ndarray:
        """The player's cost table [x][a][b]; player is the integer 1 or 2."""
        player = _scalar("player", player, 1, 2, integer=True, ends="[]")
        return self.cost1 if player == 1 else self.cost2

    def _compare_decomposition(self, compare):
        """``compare(sum of parts, stored table)`` for each table the decomposition must equal.

        The one pass that pairs the decomposition with the tables: first
        both cost tables whole, then the transition law one state slab
        ``[a, b, y]`` at a time.  Each sum is dropped once ``compare``
        returns, so no temporary outgrows one slab, and the results come
        one by one, so a caller that stops early forms no later sum.
        Requires ``arat``.
        """
        a = self.arat
        yield compare(a.c11[:, :, None] + a.c12[:, None, :], self.cost1)
        yield compare(a.c21[:, :, None] + a.c22[:, None, :], self.cost2)
        for t, p1, p2 in zip(self.transition, a.p1, a.p2):
            yield compare(p1[:, None] + p2[None], t)

    @cached_property
    def _exact_arat(self) -> AratStructure | None:
        """The decomposition if it reproduces every stored table bit for bit, else None.

        Every sum of parts in :meth:`_compare_decomposition` must equal its
        table under ``==``; the pass stops at the first one that does not.
        Decided on first use and kept.  An assembled instance (``_assembled``)
        is exact by construction and never runs this pass.  A decomposition
        one ulp off anywhere (rows renormalized on construction, a document
        failing "4.1") gives None.
        """
        a = self.arat
        if a is None or not all(self._compare_decomposition(lambda s, t: (s == t).all())):
            return None
        return a


@dataclass(frozen=True, eq=False)
class StationaryStrategy:
    """A time-invariant randomized rule: one probability row per state.

    Args:
        player: the integer 1 or 2, the action axis the rows mix over.
        rows: [x][action] probability rows.
    """

    player: int
    rows: np.ndarray  # [x][action]

    def __post_init__(self):
        object.__setattr__(
            self, "player", _scalar("player", self.player, 1, 2, integer=True, ends="[]"))
        r = _own(self.rows)
        if r.ndim != 2:
            raise ValueError(f"rows must be a 2-d [state][action] table, got {r.shape}")
        object.__setattr__(self, "rows", _frozen(_check_rows("strategy", r)[0]))


def check_strategy(
    instance: GameInstance, strategy: StationaryStrategy, player: int
) -> np.ndarray:
    """The strategy's rows, once it is known to be player's and to fit the instance.

    Raises:
        ValueError: if the strategy belongs to the other player or its rows
            are not [n_states][player's action count].
    """
    if strategy.player != player:
        raise ValueError(
            f"strategy belongs to player {strategy.player}, expected player {player}"
        )
    n = instance.n_actions_a if player == 1 else instance.n_actions_b
    if strategy.rows.shape != (instance.n_states, n):
        raise ValueError(
            f"player {player} rows {strategy.rows.shape} do not match the instance "
            f"({instance.n_states} states, {n} actions)"
        )
    return strategy.rows


def uniform_strategy(instance: GameInstance, player: int) -> StationaryStrategy:
    """Uniform randomization over the player's actions in every state.

    Args:
        player: the integer 1 or 2.
    """
    n = instance.n_actions_a if player == 1 else instance.n_actions_b
    return StationaryStrategy(player, np.full((instance.n_states, n), 1.0 / n))


def pure_strategy(
    instance: GameInstance, player: int, actions: Sequence[int]
) -> StationaryStrategy:
    """Point-mass strategy at ``actions[x]`` in each state ``x``.

    Args:
        player: the integer 1 or 2.
        actions: one integer in [0, player's action count) per state.
    """
    n = instance.n_actions_a if player == 1 else instance.n_actions_b
    rows = np.zeros((instance.n_states, n))
    for x, a in enumerate(actions):
        rows[x, _scalar(f"actions[{x}]", a, 0, n, integer=True)] = 1.0
    return StationaryStrategy(player, rows)


# ---------------------------------------------------------------------------
# model constants and the assumption validator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionCheck:
    """Verdict for one standing model condition."""

    description: str
    status: str  # "PASS" | "FAIL" | "SKIP"
    message: str = ""
    violations: tuple = ()


@dataclass(frozen=True)
class ModelDiagnostics:
    """Constants and per-assumption verdicts produced by :func:`validate`."""

    delta: float
    kappa: float
    c_bar: float
    span_bound: float
    min_prob: float
    checks: dict[str, AssumptionCheck] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks.values())

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks.values() if c.status == "FAIL"]


_DESCRIPTIONS = {
    "1": "costs and transition law continuous in the actions",
    "2(i)": "total-variation contraction coefficient delta < 1",
    "2(ii)": "uniform minorization: every transition probability >= min_prob",
    "3.1": "transition densities well defined w.r.t. the counting measure",
    "3.2": "worst-case density ratio kappa finite",
    "4.1": "transition law splits into per-player substochastic kernels",
    "4.2": "costs separate additively in the two action variables",
}


#: violating index tuples a FAIL verdict lists: the first ones, row-major
_MAX_VIOLATIONS = 20


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L1 distances between each row of a and each row of b, [len(a), len(b)].

    Each one is |a_i - b_j| summed along the contiguous last axis, so its
    bits depend on the pair alone: not on the tile it falls in, nor on which
    of the two rows comes first (|p - q| = |q - p| exactly).
    """
    diff = a[:, None, :] - b[None, :, :]
    return np.abs(diff, out=diff).sum(axis=-1)


def _tv_distances(instance: GameInstance) -> tuple[float, list]:
    """Largest L1 distance between pure transition rows, and the first disjoint pairs.

    The rows are the R = X*A*B rows P(.|x,a,b), flattened in (x, a, b)
    order.  The distance matrix is symmetric, so only its upper triangle is
    formed, tile by tile: a block of rows against the columns from the
    block's diagonal on, in tiles of about _TILE_BYTES of scratch
    whatever the instance size.  Each pair is formed once, apart from the
    pairs below the diagonal inside a row block's first tile.  Time is still
    O(R^2 * X).

    The pairs (i, j) at distance >= 2 - EXACT_TOL (disjoint supports) are
    listed as the full matrix holds them: each upper-triangle hit (i, j)
    also stands for its mirror (j, i), and the first _MAX_VIOLATIONS in
    row-major order are kept by their index i*R + j.  A hit in a row block
    indexes at or past the block's first row, so once the kept pairs all lie
    above it, no later hit is looked at.
    """
    rows = instance.transition.reshape(-1, instance.n_states)
    n_rows, width = rows.shape
    tile_pairs = max(1, _TILE_BYTES // (width * 8))
    block = min(n_rows, math.isqrt(tile_pairs))
    cols = min(n_rows, tile_pairs // block)
    threshold = 2.0 - EXACT_TOL
    worst = 0.0
    first = np.empty(0, dtype=np.int64)  # row-major indices of the kept pairs
    for i in range(0, n_rows, block):
        listing = len(first) < _MAX_VIOLATIONS or first[-1] >= i * n_rows
        for j in range(i, n_rows, cols):
            dist = _pair_distances(rows[i:i + block], rows[j:j + cols])
            top = float(dist.max())
            worst = max(worst, top)
            if listing and top >= threshold:
                p, q = np.nonzero(dist >= threshold)
                p, q = p + i, q + j
                upper = p < q
                p, q = p[upper], q[upper]
                hits = np.concatenate((first, p * n_rows + q, q * n_rows + p))
                first = np.sort(hits)[:_MAX_VIOLATIONS]
    return worst, [divmod(int(k), n_rows) for k in first]


def compute_kappa(instance: GameInstance) -> float:
    """Largest ratio P(y|x,a,b) / P(y|x',a,b) over states x, x'.

    Per (a, b, y) the largest ratio is max_x P / min_x P: correctly rounded
    division is monotone in each argument, so this equals the pairwise
    maximum bit for bit.  Returns ``inf`` when some row has mass on a next
    state that another row (same actions) gives zero probability; 0/0
    positions are ignored.
    """
    t = instance.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = t.max(axis=0) / t.min(axis=0)  # [a, b, y]
    ratios[np.isnan(ratios)] = 1.0  # 0/0: every row misses y
    return float(ratios.max())


def span_bound(instance: GameInstance, kappa: float | None = None) -> float:
    """A priori bound ln(kappa) + 3*theta*c_bar on the span of value iterates."""
    k = compute_kappa(instance) if kappa is None else kappa
    return math.log(k) + 3.0 * instance.theta * instance.c_bar if k < math.inf else math.inf


def _first_violations(*masks: np.ndarray) -> tuple:
    """Index tuples of the first _MAX_VIOLATIONS true entries, mask after mask.

    Each mask is scanned one state slab (leading index) at a time in
    row-major order, so no index array outgrows one slab.
    """
    found: list[tuple] = []
    for mask in masks:
        for x, slab in enumerate(mask):
            hits = np.argwhere(slab)[: _MAX_VIOLATIONS - len(found)]
            found.extend((x, *(int(i) for i in hit)) for hit in hits)
            if len(found) == _MAX_VIOLATIONS:
                return tuple(found)
    return tuple(found)


def _verdict(key: str, status: str, message: str = "", violations=()) -> AssumptionCheck:
    return AssumptionCheck(_DESCRIPTIONS[key], status, message, violations)


def _counted_verdict(key: str, masks, passed: str, failed: str) -> AssumptionCheck:
    """PASS with ``passed`` when no mask holds a violation, else FAIL with the count.

    Each mask is indexed by state first: an array, or a list of state
    slabs.  The FAIL message is ``failed`` with ``{n}`` replaced by the
    number of violations, and the verdict lists the first ones
    (:func:`_first_violations`).  Counted slab by slab, so a list of slabs
    is never joined into one table.
    """
    n_bad = sum(np.count_nonzero(slab) for mask in masks for slab in mask)
    if n_bad == 0:
        return _verdict(key, "PASS", passed)
    return _verdict(key, "FAIL", failed.format(n=n_bad), _first_violations(*masks))


def _decomposition_checks(instance: GameInstance) -> dict[str, AssumptionCheck]:
    """The verdicts "4.1" and "4.2": does the attached decomposition reproduce the tables?

    Both are SKIP without a decomposition.  Otherwise every sum of parts in
    :meth:`GameInstance._compare_decomposition` is compared with its table
    to EXACT_TOL, and only the boolean masks are kept: the two cost masks for "4.2", and one
    mask per state slab of the transition law for "4.1", so no float
    temporary outgrows one slab.  An instance assembled from its
    decomposition passes both with no comparison, so no table is built.
    This is all of :func:`validate` that brute force needs for its
    existence label.
    """
    if instance.arat is None:
        return {k: _verdict(k, "SKIP", "no additive decomposition attached")
                for k in ("4.1", "4.2")}
    bad = [] if instance._assembled else list(
        instance._compare_decomposition(lambda s, t: np.abs(s - t) > EXACT_TOL))
    return {
        "4.1": _counted_verdict(
            "4.1", [bad[2:]], "p1 + p2 reproduces the transition law",
            "Assumption 4.1: p1 + p2 differs from the transition law at {n} indices"),
        "4.2": _counted_verdict(
            "4.2", bad[:2], "cost components reproduce both cost tables",
            "Assumption 4.2: additive cost components differ from the cost tables "
            "at {n} indices"),
    }


def validate(instance: GameInstance, min_prob: float = DEFAULT_MIN_PROB) -> ModelDiagnostics:
    """Check every standing model condition and report constants.

    Args:
        instance: the game to diagnose.
        min_prob: positivity threshold for the minorization check, a
            real, finite and > 0.

    Returns:
        ModelDiagnostics with delta, kappa, c_bar, the span bound
        ln(kappa) + 3*theta*c_bar, and a PASS/FAIL/SKIP verdict per
        assumption keyed "1", "2(i)", "2(ii)", "3.1", "3.2", "4.1", "4.2".
        FAIL verdicts carry the first violating index tuples (at most 20).

    Memory stays bounded: the pairwise row distances behind delta and the
    2(i) violations come from one pass over the upper triangle of the
    distance matrix, which forms each pair of rows once in tiles of about
    256 KiB of scratch, kappa needs only the per-(a, b, y) extremes over
    states, and the other failures are counted on boolean masks and listed
    one state slab at a time.  The distance pass takes O((X*A*B)^2 * X)
    time, which dominates at large sizes.
    """
    min_prob = _scalar("min_prob", min_prob, 0, ends="()")
    t = instance.transition
    checks: dict[str, AssumptionCheck] = {}

    def add(key, status, message="", violations=()):
        checks[key] = _verdict(key, status, message, violations)

    add("1", "PASS", "finite state and action spaces: continuity is automatic")

    # delta is half the largest TV distance between pure rows: a mixed row is
    # affine in each mixing weight and TV distance is convex in each
    # argument, so no mixed pair lies farther apart
    max_dist, disjoint = _tv_distances(instance)
    delta = 0.5 * max_dist
    if delta < 1.0:
        add("2(i)", "PASS", f"delta = {delta:.6g}")
    else:
        shape = t.shape[:3]
        pairs = tuple(
            (np.unravel_index(i, shape), np.unravel_index(j, shape)) for i, j in disjoint
        )
        add("2(i)", "FAIL", f"Assumption 2(i): delta = {delta:.6g} >= 1", pairs)

    checks["2(ii)"] = _counted_verdict(
        "2(ii)", [t < min_prob], f"all transition probabilities >= {min_prob:g}",
        f"Assumption 2(ii): {{n}} transition entries below min_prob = {min_prob:g}")

    add("3.1", "PASS", "densities are the transition probabilities themselves")

    kappa = compute_kappa(instance)
    if math.isfinite(kappa):
        add("3.2", "PASS", f"kappa = {kappa:.6g}")
    else:
        add("3.2", "FAIL", "Assumption 3.2: kappa infinite (zero transition entries)",
            _first_violations(t == 0.0))

    checks.update(_decomposition_checks(instance))

    return ModelDiagnostics(
        delta=delta,
        kappa=kappa,
        c_bar=instance.c_bar,
        span_bound=span_bound(instance, kappa),
        min_prob=min_prob,
        checks=checks,
    )


def require_solvable(instance: GameInstance) -> None:
    """Raise AssumptionError if the twisted-kernel solvers cannot be trusted.

    Reads the positivity the instance decided at construction: no pass over
    the transition table.
    """
    if not instance._positive:
        raise AssumptionError(
            "Assumption 3.2: kappa infinite (zero transition entries); "
            "solvers require strictly positive transition probabilities"
        )


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def assemble_from_arat(
    arat: AratStructure, theta: float = 1.0, anchor_state: int = 0
) -> GameInstance:
    """The game whose tables are the sums of an additive decomposition's parts.

    transition[x,a,b] = p1[x,a] + p2[x,b] (must be stochastic), and
    cost_i(x,a,b) = c_i1(x,a) + c_i2(x,b).  The resulting instance carries
    the decomposition, exactly consistent by construction.  The cost tables
    are built here and handed to the instance without a second copy; the
    transition table is built on its first read (see :class:`GameInstance`),
    unless a row of p1 + p2 needs renormalizing, when it is built here.

    Args:
        theta: risk-sensitivity parameter, a real, finite and > 0.
        anchor_state: an integer in [0, n_states).
    """
    cost1 = _frozen(arat.c11[:, :, None] + arat.c12[:, None, :])
    cost2 = _frozen(arat.c21[:, :, None] + arat.c22[:, None, :])
    return GameInstance(_UNBUILT, cost1, cost2, theta, anchor_state, arat)


def _with_theta(instance: GameInstance, theta: float) -> GameInstance:
    """The instance with theta in place of its own.

    An assembled instance is assembled again with the new theta, so its
    table stays unbuilt; ``replace`` would read, and so build, it.  An
    instance holding a given table is copied by ``replace`` and shares its
    tables.
    """
    if instance._assembled:
        return assemble_from_arat(instance.arat, theta, instance.anchor_state)
    return replace(instance, theta=theta)


def random_instance(
    seed: int,
    dims: tuple[int, int, int] = (3, 2, 2),
    min_prob: float = 0.02,
    arat_flag: bool = False,
    c_bar: float = 1.0,
    theta: float = 1.0,
) -> GameInstance:
    """Reproducible random instance satisfying every validation invariant.

    Transition rows are min_prob plus a scaled Dirichlet sample, so all
    entries are >= min_prob; costs are uniform on [0, c_bar].  With
    ``arat_flag`` the instance is built through a random additive
    decomposition (a per-state mass split between the players' kernels) and
    carries it.  The drawn tables are frozen and handed over, not copied.

    Args:
        seed: seed of the one generator every draw comes from, an integer >= 0.
        dims: (states, actions_a, actions_b), each an integer >= 1.
        min_prob: transition floor, a real, finite and > 0, with
            min_prob * states < 1.
        c_bar: cost bound, a real, finite and >= 0.
        theta: risk-sensitivity parameter, a real, finite and > 0.
    """
    nx, na, nb = (_scalar(k, d, 1, integer=True) for k, d in zip(_DIMS, dims, strict=True))
    min_prob = _scalar("min_prob", min_prob, 0, ends="()")
    if min_prob * nx >= 1.0:
        raise ValueError(f"min_prob {min_prob} infeasible: {min_prob} * {nx} >= 1")
    c_bar = _scalar("c_bar", c_bar, 0)
    rng = default_rng(_scalar("seed", seed, 0, integer=True))
    if not arat_flag:
        dir_rows = rng.dirichlet(np.ones(nx), size=(nx, na, nb))
        transition = _frozen(min_prob + (1.0 - min_prob * nx) * dir_rows)
        cost1 = _frozen(rng.uniform(0.0, c_bar, size=(nx, na, nb)))
        cost2 = _frozen(rng.uniform(0.0, c_bar, size=(nx, na, nb)))
        return GameInstance(transition, cost1, cost2, theta, 0)
    # additive transitions: player 1's kernel carries mass s(x), player 2's
    # the rest, each entry padded by min_prob/2 so the sums stay >= min_prob
    half = 0.5 * min_prob
    s = rng.uniform(0.3, 0.7, size=nx)
    p1 = half + (s[:, None, None] - half * nx) * rng.dirichlet(np.ones(nx), (nx, na))
    p2 = half + (1.0 - s[:, None, None] - half * nx) * rng.dirichlet(np.ones(nx), (nx, nb))
    arat = AratStructure(
        p1=_frozen(p1),
        p2=_frozen(p2),
        c11=_frozen(rng.uniform(0.0, 0.5 * c_bar, size=(nx, na))),
        c21=_frozen(rng.uniform(0.0, 0.5 * c_bar, size=(nx, na))),
        c12=_frozen(rng.uniform(0.0, 0.5 * c_bar, size=(nx, nb))),
        c22=_frozen(rng.uniform(0.0, 0.5 * c_bar, size=(nx, nb))),
    )
    return assemble_from_arat(arat, theta, 0)


def g2_instance() -> GameInstance:
    """The bundled 2-state, 2x2-action additive fixture used throughout.

    Player 1's kernel puts mass 0.1 + 0.1a + 0.1x on next state 0, player
    2's adds 0.1 + 0.2b; costs are c11 = 0.5x + 0.3a, c12 = 0.2b,
    c21 = 0.4a, c22 = 0.5(1-b) + 0.1x, with theta = 1 and anchor state 0.
    """
    x = np.arange(2.0)[:, None]
    a = np.arange(2.0)[None, :]
    b = np.arange(2.0)[None, :]
    p1_mass0 = 0.1 + 0.1 * a + 0.1 * x  # [x][a]
    p2_mass0 = 0.1 + 0.2 * b + 0.0 * x  # [x][b]
    arat = AratStructure(
        p1=np.stack([p1_mass0, 0.4 - 0.1 * a - 0.1 * x], axis=-1),
        p2=np.stack([p2_mass0, 0.4 - 0.2 * b + 0.0 * x], axis=-1),
        c11=0.5 * x + 0.3 * a,
        c12=0.2 * b + 0.0 * x,
        c21=0.4 * a + 0.0 * x,
        c22=0.5 * (1.0 - b) + 0.1 * x,
    )
    return assemble_from_arat(arat, theta=1.0, anchor_state=0)


# ---------------------------------------------------------------------------
# file formats (decimal JSON, 17 significant digits) and digests
# ---------------------------------------------------------------------------

def _render(obj: Any, level: int = 0) -> str:
    # plain finite floats are most of every document: format them first
    if type(obj) is float and math.isfinite(obj):
        return format(obj, ".17g")
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            # JSON has no infinity literal; diagnostics (e.g. kappa on a
            # degenerate instance) stringify instead
            return json.dumps(repr(x))
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad, pad_in = "  " * level, "  " * (level + 1)
    if isinstance(obj, (list, tuple)):
        items = [pad_in + _render(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [f"{pad_in}{json.dumps(str(k))}: {_render(v, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_decimal(obj: Any) -> str:
    """Serialize to JSON indented by two spaces, floats as 17-significant-digit decimals.

    17 significant digits round-trip IEEE doubles exactly.  Keys keep their
    insertion order; non-finite floats become the strings "inf", "-inf" and
    "nan".
    """
    return _render(obj)


#: the tables of an instance document in its full form, in the order it lists them
_INSTANCE_TABLES = ("transition", "cost1", "cost2")


def instance_to_dict(instance: GameInstance) -> dict:
    """The instance document: ``theta``, ``anchor_state``, the three dimensions, then tables.

    An instance assembled from its decomposition (:func:`assemble_from_arat`
    with no row renormalized, so :func:`random_instance` with ``arat_flag``
    and :func:`g2_instance`) is written as ``arat`` alone: its tables are
    the sums of the parts, bit for bit, so the document holds none of
    ``transition``, ``cost1`` and ``cost2`` and no table is built to write
    it.  Every other instance is written in full: the three tables, then
    ``arat`` when it carries one.  A given table is thus never replaced by
    ``p1 + p2``, which could change its bits (a stored ``-0.0``, say).
    """
    d: dict[str, Any] = {
        "theta": instance.theta,
        "anchor_state": instance.anchor_state,
        "states": instance.n_states,
        "actions_a": instance.n_actions_a,
        "actions_b": instance.n_actions_b,
    }
    if not instance._assembled:
        d.update((key, getattr(instance, key).tolist()) for key in _INSTANCE_TABLES)
    if instance.arat is not None:
        d["arat"] = {f: getattr(instance.arat, f).tolist() for f in _ARAT_TABLES}
    return d


def instance_from_dict(d: dict) -> GameInstance:
    """The instance an instance document describes, in either form :func:`instance_to_dict` writes.

    A document with ``arat`` and none of ``transition``, ``cost1`` and
    ``cost2`` is assembled from the decomposition by
    :func:`assemble_from_arat`: the instance holds no transition table and
    is exact by construction.  Any other document, a full one written
    before the decomposition-only form existed included, is read as given:
    its tables, and ``arat`` when present.  Either way the declared
    dimensions, when present, must match the tables.

    Raises:
        ValueError: a missing field, which the message names (the first
            missing of ``transition``, ``cost1`` and ``cost2`` unless the
            document is decomposition-only); a table that fails the
            instance's checks; or a declared dimension that disagrees.
    """
    def table(doc, key) -> np.ndarray:
        # built here for the instance alone: adopted, not copied again
        return _frozen(np.array(doc[key], dtype=float))

    def decomposition(doc) -> AratStructure:
        return AratStructure(**{f: table(doc, f) for f in _ARAT_TABLES})

    try:
        if (isinstance(d, dict) and d.get("arat") is not None
                and d.keys().isdisjoint(_INSTANCE_TABLES)):
            instance = assemble_from_arat(decomposition(d["arat"]), d["theta"], d["anchor_state"])
        else:
            transition = table(d, "transition")
            arat = None
            if "arat" in d and d["arat"] is not None:
                arat = decomposition(d["arat"])
            instance = GameInstance(
                transition=transition,
                cost1=table(d, "cost1"),
                cost2=table(d, "cost2"),
                theta=d["theta"],
                anchor_state=d["anchor_state"],
                arat=arat,
            )
    except KeyError as e:
        raise ValueError(f"instance document missing field {e.args[0]!r}") from e
    actual = (instance.n_states, instance.n_actions_a, instance.n_actions_b)
    for name, got in zip(_DIMS, actual):
        want = d.get(name)
        if want is not None and _scalar(name, want, 1, integer=True) != got:
            raise ValueError(f"declared {name} = {want} but tables have {got}")
    return instance


def strategy_to_dict(strategy: StationaryStrategy) -> dict:
    return {"player": strategy.player, "rows": strategy.rows.tolist()}


def strategy_from_dict(d: dict) -> StationaryStrategy:
    try:
        return StationaryStrategy(d["player"], np.array(d["rows"], dtype=float))
    except KeyError as e:
        raise ValueError(f"strategy document missing field {e.args[0]!r}") from e


def instance_digest(instance: GameInstance) -> str:
    """SHA-256 over a fixed binary layout of the stored tables; stable across sessions.

    The tables are ``transition``, ``cost1`` and ``cost2``, plus the
    decomposition's ``p1``, ``p2``, ``c11``, ``c21``, ``c12`` and ``c22`` when
    ``arat`` is present.  For each table in sorted key order (all keys
    together, so ``c11`` comes first and ``transition`` last) the hash takes
    the key in UTF-8 followed by a zero byte, then ``ndim`` and the shape as
    little-endian int64, then the entries in C order as little-endian
    float64.  Last come ``theta`` as little-endian float64 and
    ``anchor_state`` as little-endian int64.  Every bit of every entry
    counts, so -0.0 and 0.0 differ; a file's indentation and key order do
    not.  The tables are hashed in place, without a copy; a transition table
    not yet built is hashed block by block and stays unbuilt.
    """
    stored = {"cost1": instance.cost1, "cost2": instance.cost2}
    if instance.arat is not None:
        stored.update((f, getattr(instance.arat, f)) for f in _ARAT_TABLES)
    tables = {key: (t.shape, (t,)) for key, t in stored.items()}
    x, a, b = instance.cost1.shape
    tables["transition"] = ((x, a, b, x), instance._transition_blocks())
    h = hashlib.sha256()
    for key in sorted(tables):
        shape, blocks = tables[key]
        h.update(key.encode() + b"\0")
        h.update(np.array([len(shape), *shape], dtype="<i8"))
        for block in blocks:
            h.update(np.ascontiguousarray(block, dtype="<f8"))
    h.update(np.array(instance.theta, dtype="<f8"))
    h.update(np.array(instance.anchor_state, dtype="<i8"))
    return h.hexdigest()
