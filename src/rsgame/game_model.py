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

All tables are dense numpy arrays; instances are immutable after
construction (the arrays are marked read-only) and safe to share across
workers.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

#: tolerance accepted for row sums on load / construction before renormalizing
ROW_SUM_TOL = 1e-9
#: tolerance at which stored tables are considered exact (type invariants)
EXACT_TOL = 1e-12
#: default uniform lower bound required of every transition probability
DEFAULT_MIN_PROB = 1e-6


class AssumptionError(ValueError):
    """A model condition required by the solvers does not hold."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _check_rows(name: str, rows: np.ndarray, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Validate probability rows (last axis), renormalizing tiny drift.

    Rows whose sums deviate from 1 by more than ``tol`` raise ValueError;
    rows within ``tol`` but beyond EXACT_TOL are renormalized so the stored
    table satisfies the exact-sum invariant.  Rows already exact are kept
    bit-for-bit.
    """
    if np.any(rows < 0.0):
        idx = tuple(int(i[0]) for i in np.nonzero(rows < 0.0))
        raise ValueError(f"{name} has negative entry at index {idx}")
    sums = rows.sum(axis=-1)
    err = np.abs(sums - 1.0)
    if np.any(err > tol):
        idx = tuple(int(i) for i in np.argwhere(err > tol)[0])
        raise ValueError(
            f"{name} row {idx} sums to {sums[idx]!r}, off by more than {tol:g}"
        )
    if np.any(err > EXACT_TOL):
        rows = rows / sums[..., None]
    return rows


@dataclass(frozen=True, eq=False)
class AratStructure:
    """Additive decomposition of transitions and costs into per-player parts.

    ``p1[x][a]`` and ``p2[x][b]`` are substochastic rows over next states
    adding up to the full transition row; ``c11/c21`` are the player-1-action
    cost components and ``c12/c22`` the player-2-action components, with
    cost_i(x,a,b) = c_i1(x,a) + c_i2(x,b).
    """

    p1: np.ndarray  # [x][a][y]
    p2: np.ndarray  # [x][b][y]
    c11: np.ndarray  # [x][a]
    c21: np.ndarray  # [x][a]
    c12: np.ndarray  # [x][b]
    c22: np.ndarray  # [x][b]

    def __post_init__(self):
        for f in ("p1", "p2", "c11", "c21", "c12", "c22"):
            object.__setattr__(self, f, _readonly(getattr(self, f)))
        if self.p1.ndim != 3 or self.p2.ndim != 3:
            raise ValueError("p1 and p2 must be [x][action][y] tables")
        if self.p1.shape[0] != self.p2.shape[0] or self.p1.shape[2] != self.p2.shape[2]:
            raise ValueError(
                f"p1 {self.p1.shape} and p2 {self.p2.shape} disagree on states"
            )
        if np.any(self.p1 < 0.0) or np.any(self.p2 < 0.0):
            raise ValueError("substochastic kernels must be nonnegative")
        if np.any(self.p1.sum(-1) > 1.0 + ROW_SUM_TOL) or np.any(
            self.p2.sum(-1) > 1.0 + ROW_SUM_TOL
        ):
            raise ValueError("p1/p2 rows must be substochastic (sum <= 1)")
        if self.c11.shape != self.p1.shape[:2] or self.c21.shape != self.p1.shape[:2]:
            raise ValueError("c11/c21 must be [x][a] tables matching p1")
        if self.c12.shape != self.p2.shape[:2] or self.c22.shape != self.p2.shape[:2]:
            raise ValueError("c12/c22 must be [x][b] tables matching p2")
        for f in ("c11", "c21", "c12", "c22"):
            if np.any(getattr(self, f) < 0.0):
                raise ValueError(f"cost component {f} must be nonnegative")


@dataclass(frozen=True, eq=False)
class GameInstance:
    """A finite two-player stochastic game with risk-sensitive ergodic cost.

    Args:
        transition: [x][a][b] -> probability row over next states.
        cost1, cost2: nonnegative cost tables indexed [x][a][b].
        theta: risk-sensitivity parameter, > 0.
        anchor_state: state at which relative value functions are pinned to 0.
        arat: optional additive decomposition (dimension-checked here;
            numerical consistency with the full tables is reported by
            :func:`validate`, not enforced at construction).

    Construction accepts transition rows summing to 1 within 1e-9 and
    renormalizes any drift beyond 1e-12, so stored rows always sum to 1 at
    the exact tolerance.  Zero transition entries are representable (e.g.
    deterministic chains for simulation tests) but fail validation.
    """

    transition: np.ndarray
    cost1: np.ndarray
    cost2: np.ndarray
    theta: float = 1.0
    anchor_state: int = 0
    arat: AratStructure | None = None

    def __post_init__(self):
        t = np.array(self.transition, dtype=float)
        if t.ndim != 4 or t.shape[0] != t.shape[3]:
            raise ValueError(
                f"transition must be [x][a][b][y] with matching state axes, got {t.shape}"
            )
        if 0 in t.shape:
            raise ValueError(f"transition {t.shape} has an empty state or action axis")
        t = _check_rows("transition", t)
        object.__setattr__(self, "transition", _readonly(t))
        for f in ("cost1", "cost2"):
            c = _readonly(getattr(self, f))
            if c.shape != t.shape[:3]:
                raise ValueError(f"{f} shape {c.shape} != {t.shape[:3]}")
            if np.any(c < 0.0) or not np.all(np.isfinite(c)):
                raise ValueError(f"{f} entries must be finite and >= 0")
            object.__setattr__(self, f, c)
        theta = float(self.theta)
        if not math.isfinite(theta) or theta <= 0.0:
            raise ValueError(f"theta must be a positive finite real, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)
        if not 0 <= int(self.anchor_state) < t.shape[0]:
            raise ValueError(
                f"anchor_state {self.anchor_state} out of range for {t.shape[0]} states"
            )
        object.__setattr__(self, "anchor_state", int(self.anchor_state))
        if self.arat is not None:
            a = self.arat
            if a.p1.shape != (t.shape[0], t.shape[1], t.shape[3]):
                raise ValueError(f"arat.p1 shape {a.p1.shape} inconsistent with {t.shape}")
            if a.p2.shape != (t.shape[0], t.shape[2], t.shape[3]):
                raise ValueError(f"arat.p2 shape {a.p2.shape} inconsistent with {t.shape}")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions_a(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions_b(self) -> int:
        return self.transition.shape[2]

    @property
    def c_bar(self) -> float:
        """Common cost bound: the largest cost entry across both players."""
        return float(max(self.cost1.max(), self.cost2.max(), 0.0))

    def cost(self, player: int) -> np.ndarray:
        if player == 1:
            return self.cost1
        if player == 2:
            return self.cost2
        raise ValueError(f"player must be 1 or 2, got {player!r}")


@dataclass(frozen=True, eq=False)
class StationaryStrategy:
    """A time-invariant randomized rule: one probability row per state."""

    player: int  # 1 or 2 (which action axis the rows mix over)
    rows: np.ndarray  # [x][action]

    def __post_init__(self):
        if self.player not in (1, 2):
            raise ValueError(f"player must be 1 or 2, got {self.player!r}")
        r = np.array(self.rows, dtype=float)
        if r.ndim != 2:
            raise ValueError(f"rows must be a 2-d [state][action] table, got {r.shape}")
        r = _check_rows("strategy", r)
        object.__setattr__(self, "rows", _readonly(r))

    @property
    def n_states(self) -> int:
        return self.rows.shape[0]


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
    """Uniform randomization over the player's actions in every state."""
    n = instance.n_actions_a if player == 1 else instance.n_actions_b
    return StationaryStrategy(player, np.full((instance.n_states, n), 1.0 / n))


def pure_strategy(
    instance: GameInstance, player: int, actions: Sequence[int]
) -> StationaryStrategy:
    """Point-mass strategy at ``actions[x]`` in each state ``x``."""
    n = instance.n_actions_a if player == 1 else instance.n_actions_b
    rows = np.zeros((instance.n_states, n))
    for x, a in enumerate(actions):
        rows[x, a] = 1.0
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


#: float64 scratch bytes one tile of the pairwise-distance pass may use
_TV_TILE_BYTES = 4 * 2**20
#: violating index tuples a FAIL verdict lists: the first ones, row-major
_MAX_VIOLATIONS = 20


def _tv_distances(instance: GameInstance) -> tuple[float, list]:
    """Largest L1 distance between pure transition rows, and the first disjoint pairs.

    The rows are the X*A*B rows P(.|x,a,b), flattened in (x, a, b) order.
    Distances are formed tile by tile, so scratch memory stays near
    _TV_TILE_BYTES whatever the instance size: a tile holds whole rows of
    the distance matrix, or a run of columns of one row when a row alone
    is over budget.  Either way tiles are visited in row-major order, so
    the pairs (i, j) at distance >= 2 - EXACT_TOL (disjoint supports) come
    out in that order; the first _MAX_VIOLATIONS are returned.
    """
    rows = instance.transition.reshape(-1, instance.n_states)
    n_rows, width = rows.shape
    tile_rows = max(1, _TV_TILE_BYTES // (n_rows * width * 8))
    tile_cols = min(n_rows, max(1, _TV_TILE_BYTES // (tile_rows * width * 8)))
    worst = 0.0
    disjoint: list = []
    for i in range(0, n_rows, tile_rows):
        for j in range(0, n_rows, tile_cols):
            diff = rows[i:i + tile_rows, None, :] - rows[None, j:j + tile_cols, :]
            dist = np.abs(diff, out=diff).sum(axis=-1)
            worst = max(worst, float(dist.max()))
            hits = np.argwhere(dist >= 2.0 - EXACT_TOL)[: _MAX_VIOLATIONS - len(disjoint)]
            disjoint.extend((i + p, j + q) for p, q in hits)
    return worst, disjoint


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


def validate(instance: GameInstance, min_prob: float = DEFAULT_MIN_PROB) -> ModelDiagnostics:
    """Check every standing model condition and report constants.

    Args:
        instance: the game to diagnose.
        min_prob: positivity threshold for the minorization check.

    Returns:
        ModelDiagnostics with delta, kappa, c_bar, the span bound
        ln(kappa) + 3*theta*c_bar, and a PASS/FAIL/SKIP verdict per
        assumption keyed "1", "2(i)", "2(ii)", "3.1", "3.2", "4.1", "4.2".
        FAIL verdicts carry the first violating index tuples (at most 20).

    Memory stays bounded: the pairwise row distances behind delta and the
    2(i) violations come from one tiled pass, kappa needs only the
    per-(a, b, y) extremes over states, and the other failures are counted
    on boolean masks and listed one state slab at a time.
    """
    if min_prob <= 0.0:
        raise ValueError(f"min_prob must be > 0, got {min_prob!r}")
    t = instance.transition
    checks: dict[str, AssumptionCheck] = {}

    def add(key, status, message="", violations=()):
        checks[key] = AssumptionCheck(_DESCRIPTIONS[key], status, message, violations)

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

    low = t < min_prob
    n_low = np.count_nonzero(low)
    if n_low == 0:
        add("2(ii)", "PASS", f"all transition probabilities >= {min_prob:g}")
    else:
        add(
            "2(ii)",
            "FAIL",
            f"Assumption 2(ii): {n_low} transition entries below min_prob = {min_prob:g}",
            _first_violations(low),
        )

    add("3.1", "PASS", "densities are the transition probabilities themselves")

    kappa = compute_kappa(instance)
    if math.isfinite(kappa):
        add("3.2", "PASS", f"kappa = {kappa:.6g}")
    else:
        add("3.2", "FAIL", "Assumption 3.2: kappa infinite (zero transition entries)",
            _first_violations(t == 0.0))

    if instance.arat is None:
        add("4.1", "SKIP", "no additive decomposition attached")
        add("4.2", "SKIP", "no additive decomposition attached")
    else:
        a = instance.arat
        err = a.p1[:, :, None, :] + a.p2[:, None, :, :] - t
        bad = np.abs(err, out=err) > EXACT_TOL
        n_bad = np.count_nonzero(bad)
        if n_bad == 0:
            add("4.1", "PASS", "p1 + p2 reproduces the transition law")
        else:
            add("4.1", "FAIL",
                f"Assumption 4.1: p1 + p2 differs from the transition law at "
                f"{n_bad} indices", _first_violations(bad))
        r1 = a.c11[:, :, None] + a.c12[:, None, :] - instance.cost1
        r2 = a.c21[:, :, None] + a.c22[:, None, :] - instance.cost2
        bad1, bad2 = np.abs(r1) > EXACT_TOL, np.abs(r2) > EXACT_TOL
        n_bad = np.count_nonzero(bad1) + np.count_nonzero(bad2)
        if n_bad == 0:
            add("4.2", "PASS", "cost components reproduce both cost tables")
        else:
            add("4.2", "FAIL",
                f"Assumption 4.2: additive cost components differ from the cost "
                f"tables at {n_bad} indices", _first_violations(bad1, bad2))

    return ModelDiagnostics(
        delta=delta,
        kappa=kappa,
        c_bar=instance.c_bar,
        span_bound=span_bound(instance, kappa),
        min_prob=min_prob,
        checks=checks,
    )


def require_solvable(instance: GameInstance) -> None:
    """Raise AssumptionError if the twisted-kernel solvers cannot be trusted."""
    if np.any(instance.transition <= 0.0):
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
    """Build the full game tables from an additive decomposition.

    transition[x,a,b] = p1[x,a] + p2[x,b] (must be stochastic), and
    cost_i(x,a,b) = c_i1(x,a) + c_i2(x,b).  The resulting instance carries
    the decomposition, exactly consistent by construction.
    """
    transition = arat.p1[:, :, None, :] + arat.p2[:, None, :, :]
    cost1 = arat.c11[:, :, None] + arat.c12[:, None, :]
    cost2 = arat.c21[:, :, None] + arat.c22[:, None, :]
    return GameInstance(transition, cost1, cost2, theta, anchor_state, arat)


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
    carries it.
    """
    nx, na, nb = dims
    if min(dims) < 1:
        raise ValueError(f"dims {tuple(dims)} must be positive state and action counts")
    if min_prob * nx >= 1.0:
        raise ValueError(f"min_prob {min_prob} infeasible: {min_prob} * {nx} >= 1")
    rng = np.random.default_rng(seed)
    if not arat_flag:
        dir_rows = rng.dirichlet(np.ones(nx), size=(nx, na, nb))
        transition = min_prob + (1.0 - min_prob * nx) * dir_rows
        cost1 = rng.uniform(0.0, c_bar, size=(nx, na, nb))
        cost2 = rng.uniform(0.0, c_bar, size=(nx, na, nb))
        return GameInstance(transition, cost1, cost2, theta, 0)
    # additive transitions: player 1's kernel carries mass s(x), player 2's
    # the rest, each entry padded by min_prob/2 so the sums stay >= min_prob
    half = 0.5 * min_prob
    s = rng.uniform(0.3, 0.7, size=nx)
    p1 = half + (s[:, None, None] - half * nx) * rng.dirichlet(np.ones(nx), (nx, na))
    p2 = half + (1.0 - s[:, None, None] - half * nx) * rng.dirichlet(np.ones(nx), (nx, nb))
    arat = AratStructure(
        p1=p1,
        p2=p2,
        c11=rng.uniform(0.0, 0.5 * c_bar, size=(nx, na)),
        c21=rng.uniform(0.0, 0.5 * c_bar, size=(nx, na)),
        c12=rng.uniform(0.0, 0.5 * c_bar, size=(nx, nb)),
        c22=rng.uniform(0.0, 0.5 * c_bar, size=(nx, nb)),
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

def _render(obj: Any, indent: int | None, level: int = 0) -> str:
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
    if isinstance(obj, (list, tuple)):
        items = [_render(v, indent, level + 1) for v in obj]
        if indent is None:
            return "[" + ",".join(items) + "]"
        pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        keys = sorted(obj) if indent is None else list(obj)
        items = [(json.dumps(str(k)), _render(obj[k], indent, level + 1)) for k in keys]
        if indent is None:
            return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
        pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
        return "{\n" + ",\n".join(f"{pad_in}{k}: {v}" for k, v in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_decimal(obj: Any, indent: int | None = 2) -> str:
    """Serialize to JSON with floats as 17-significant-digit decimals.

    17 significant digits round-trip IEEE doubles exactly.  With
    ``indent=None`` the output is canonical: compact, keys sorted — the form
    hashed by :func:`instance_digest`.
    """
    return _render(obj, indent)


def instance_to_dict(instance: GameInstance) -> dict:
    d: dict[str, Any] = {
        "theta": instance.theta,
        "anchor_state": instance.anchor_state,
        "states": instance.n_states,
        "actions_a": instance.n_actions_a,
        "actions_b": instance.n_actions_b,
        "transition": instance.transition.tolist(),
        "cost1": instance.cost1.tolist(),
        "cost2": instance.cost2.tolist(),
    }
    if instance.arat is not None:
        a = instance.arat
        d["arat"] = {
            "p1": a.p1.tolist(), "p2": a.p2.tolist(),
            "c11": a.c11.tolist(), "c21": a.c21.tolist(),
            "c12": a.c12.tolist(), "c22": a.c22.tolist(),
        }
    return d


def instance_from_dict(d: dict) -> GameInstance:
    try:
        transition = np.array(d["transition"], dtype=float)
        arat = None
        if "arat" in d and d["arat"] is not None:
            a = d["arat"]
            arat = AratStructure(
                p1=np.array(a["p1"], dtype=float), p2=np.array(a["p2"], dtype=float),
                c11=np.array(a["c11"], dtype=float), c21=np.array(a["c21"], dtype=float),
                c12=np.array(a["c12"], dtype=float), c22=np.array(a["c22"], dtype=float),
            )
        instance = GameInstance(
            transition=transition,
            cost1=np.array(d["cost1"], dtype=float),
            cost2=np.array(d["cost2"], dtype=float),
            theta=d["theta"],
            anchor_state=d["anchor_state"],
            arat=arat,
        )
    except KeyError as e:
        raise ValueError(f"instance document missing field {e.args[0]!r}") from e
    declared = (d.get("states"), d.get("actions_a"), d.get("actions_b"))
    actual = (instance.n_states, instance.n_actions_a, instance.n_actions_b)
    for name, want, got in zip(("states", "actions_a", "actions_b"), declared, actual):
        if want is not None and int(want) != got:
            raise ValueError(f"declared {name} = {want} but tables have {got}")
    return instance


def strategy_to_dict(strategy: StationaryStrategy) -> dict:
    return {"player": strategy.player, "rows": strategy.rows.tolist()}


def strategy_from_dict(d: dict) -> StationaryStrategy:
    try:
        return StationaryStrategy(int(d["player"]), np.array(d["rows"], dtype=float))
    except KeyError as e:
        raise ValueError(f"strategy document missing field {e.args[0]!r}") from e


def instance_digest(instance: GameInstance) -> str:
    """SHA-256 of the canonical serialized form; stable across sessions."""
    blob = dumps_decimal(instance_to_dict(instance), indent=None)
    return hashlib.sha256(blob.encode()).hexdigest()
