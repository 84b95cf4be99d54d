"""Trajectory simulation and Monte Carlo validation of the exact oracles.

Paths of the controlled chain are sampled with both players following fixed
stationary strategies: at each step the actions are drawn independently
from Phi(x) and Psi(x), then the next state from P(.|x,a,b).  All
randomness for a run comes from one seeded generator.  The draws are
streamed one (variable, path) block per step, so they are consumed in a
fixed (step, variable, path) order: path i uses the same uniforms however
many steps are held at once, and a single path (sample_path) sees the
stream a one-path Monte Carlo run sees.  Each index is drawn by inverse-CDF
sampling, as the first whose cumulative probability exceeds its uniform
(_drawer).  A draw reads its pick from an exact bucket table, one gather
per path: each row's [0, 1) is cut into a power of two of buckets, as many
as the table's shape leaves within BUCKET_BYTES, and a bucket holds the
pick of every uniform in it unless a cumulative entry falls inside it.  The
paths that land on such a bucket fall back to a vectorised binary search
over the cumulative row, log2 of the row width in gathers per path, which
every path takes when the budget leaves fewer buckets than the row is
wide.  The walk (_walk) decides once what each draw reads: a pure
strategy's action is looked up, one gather per path, and when both
strategies are pure, next states are drawn from the X rows the pair can
reach, (x, f(x), g(x)), which an instance with an unbuilt table forms from
its decomposition.  Costs are taken by the row each next state is drawn
from.

mc_cost_estimate targets the n-th increment of the log moment generating
function, ln E_x[e^{theta S_n}] - ln E_x[e^{theta S_{n-1}}] — the exact
quantity spectral.finite_horizon_growth computes — by evaluating both
log-mean-exponentials on the same sample of paths.  One walk serves both
players: each path's two cost sums are kept side by side, so the estimates
for players 1 and 2 come from the same paths.  The standard error
comes from the delta method: the increment is a smooth function of two
sample means, and its influence-function variance is the sum of squared
differences of the two exponential-weight vectors.  Like any log-mean-exp
estimator it is biased low in finite samples (Jensen); the bias is measured
by the test suite and documented rather than corrected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game_model import GameInstance, StationaryStrategy, _scalar, check_strategy


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


#: bytes a drawer's bucket table may take: at one byte a bucket (rows up to
#: 128 wide), small enough that the table stays in a core's L2 cache
BUCKET_BYTES = 256 * 2**10


def _pure_picks(rows: np.ndarray) -> np.ndarray | None:
    """Each row's one positive index, if every row has exactly one; else None."""
    positive = rows > 0.0
    if np.all(positive.sum(axis=1) == 1):
        return positive.argmax(axis=1)
    return None


def _buckets(table: np.ndarray, width: int) -> np.ndarray | None:
    """[row, bucket] picks of a padded cumulative table, -1 where a draw must search.

    Each row has m buckets, m the largest power of two that keeps the table
    within BUCKET_BYTES, in the smallest signed type that holds the width;
    None when that leaves fewer buckets than the padded width.  Bucket b
    covers u in [b/m, (b+1)/m).  Its pick is the count of cumulative entries
    c <= b/m, that is of ceil(c*m) <= b; it is -1 when a finite entry lies
    strictly inside the bucket, where floor(c*m) = b < ceil(c*m).  m is a
    power of two, so c*m and its floor and ceiling are exact: the table is
    built from integer counts, with no float tolerance.  The rows go a block
    at a time, with scratch no larger than the table.
    """
    n_rows, span = table.shape
    dtype = np.min_scalar_type(-width)
    fit = BUCKET_BYTES // (n_rows * dtype.itemsize)
    if fit < span:
        return None
    m = 1 << (fit.bit_length() - 1)
    picks = np.empty((n_rows, m), dtype=dtype)
    values = np.arange(width + 1, dtype=picks.dtype)
    step = max(1, picks.nbytes // (64 * (width + 1) + picks[0].nbytes))
    for i in range(0, n_rows, step):
        scaled = table[i:i + step, :width] * m  # the +inf tail stays +inf
        up = np.minimum(np.ceil(scaled), m)
        # pick j fills the buckets from ceil(c_{j-1} m) up to ceil(c_j m)
        counts = np.diff(up, axis=1, prepend=0.0, append=float(m)).astype(np.intp)
        block = picks[i:i + step]
        block.reshape(-1)[:] = np.repeat(np.tile(values, len(block)), counts.ravel())
        down = np.floor(scaled)
        rr, kk = np.nonzero(down < up)  # an entry strictly inside bucket floor(c*m)
        block[rr, down[rr, kk].astype(np.intp)] = -1
    return picks


def _drawer(probs: np.ndarray, n_paths: int):
    """Draw function over the rows of a probability table.

    ``draw(r, u)`` returns, for each path i, the first index whose
    cumulative probability in row r[i] exceeds u[i]; rows are numbered in
    row-major order over the table's leading axes.  The cumulative entries
    from each row's last positive entry onward are set to +inf, so a u at or
    above a last sum that rounds below 1 picks the last positive index,
    never a zero-probability entry after it.  Rows of a nonnegative
    cumulative sum never decrease in floating point, so the pick equals the
    count of entries <= u, clamped to the last positive index.

    The count is read from a bucket table where it can be (inverse-CDF
    sampling by guide tables, Chen and Asau 1974).  Each row has m buckets,
    m the largest power of two that keeps the table within BUCKET_BYTES;
    bucket b covers u in [b/m, (b+1)/m) and holds the pick of every u in it,
    or -1 when a cumulative entry falls strictly inside it (see _buckets).
    A draw reads bucket r*m + floor(u*m), one gather per path, and only the
    paths that land on a -1, or whose u lies outside [0, 1), search.  With
    at most width - 1 finite entries per row, at most (width - 1)/m of the
    buckets are -1.  Where the budget leaves fewer buckets than the padded
    row width (a mixed pair at 300x20x20), every path searches.  A pure
    row's cumulative entries are 0 before its one entry and +inf from it
    on, so none lies inside [0, 1) and none of its buckets is -1.

    The search is a binary search (inverse-CDF sampling by bisection,
    Devroye 1986, §III.2).  Each cumulative row is padded with +inf to a
    power-of-two width 2^k, and the search takes k one-element gathers per
    path: at half-width s it probes entry pos + s - 1 and moves pos up by s
    when that entry is <= u.  Its scratch is five O(n_paths) buffers, reused
    from step to step; the bucket read shares them and adds a sixth.
    """
    width = probs.shape[-1]
    rows = probs.reshape(-1, width)
    span = 1 << (width - 1).bit_length()  # the least power of two >= width
    table = np.full((rows.shape[0], span), np.inf)
    np.cumsum(rows, axis=1, out=table[:, :width])
    # column k is +inf in the rows whose entries after k are all zero; the
    # walk back needs O(rows) scratch and stops at the first column where
    # no row is still in its zero tail, the last one for positive tables
    tail = np.ones(rows.shape[0], dtype=bool)
    for k in range(width - 1, -1, -1):
        table[tail, k] = np.inf
        tail &= rows[:, k] == 0.0
        if not tail.any():
            break
    flat = table.ravel()
    halves = [span >> k for k in range(1, span.bit_length())]
    # the bucket table is built before the buffers, so its scratch is freed first
    buckets = _buckets(table, width)
    base = np.empty(n_paths, dtype=np.intp)
    pos = np.empty(n_paths, dtype=np.intp)
    probe = np.empty(n_paths, dtype=np.intp)
    vals = np.empty(n_paths)
    below = np.empty(n_paths, dtype=bool)

    def search(r: np.ndarray, u: np.ndarray) -> np.ndarray:
        n = len(r)
        np.multiply(r, span, out=base[:n])
        np.copyto(pos[:n], base[:n])
        for s in halves:
            np.add(pos[:n], s - 1, out=probe[:n])
            # every probe is in range: 'clip' only skips the buffered bounds check
            flat.take(probe[:n], out=vals[:n], mode="clip")
            np.less_equal(vals[:n], u, out=below[:n])
            np.multiply(below[:n], s, out=probe[:n])
            np.add(pos[:n], probe[:n], out=pos[:n])
        return pos[:n] - base[:n]

    if buckets is None:
        return search
    m = buckets.shape[1]
    buckets = buckets.ravel()
    outside = np.empty(n_paths, dtype=bool)
    top = np.float64(m).view(np.uint64)

    def draw(r: np.ndarray, u: np.ndarray) -> np.ndarray:
        # u*m is exact.  Read as unsigned integers, the bits of a float are
        # in its order when it is >= 0 and above every such float when its
        # sign is set, so the bits are below m's exactly for u in [0, 1),
        # where truncation is the floor; any other u reads a clipped bucket
        # and searches
        np.multiply(u, m, out=vals)
        np.greater_equal(vals.view(np.uint64), top, out=outside)
        np.copyto(probe, vals, casting="unsafe")
        np.multiply(r, m, out=base)
        np.add(probe, base, out=probe)
        got = buckets.take(probe, mode="clip")
        np.less(got, 0, out=below)
        np.logical_or(below, outside, out=below)
        out = got.astype(np.intp)
        miss = np.flatnonzero(below)
        if miss.size:
            out[miss] = search(r[miss], u[miss])
        return out

    return draw


def _walk(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x0: int,
    n: int,
    n_paths: int,
    seed: int,
):
    """Check the inputs, then return the cost columns and a generator of n steps.

    Each step is (x, a, b, r, y): int arrays over n_paths paths holding the
    state, both actions, the row r that y is drawn from and the next state.
    The costs are a [player, row] table, so both players' costs of a step
    are costs.take(r, axis=1).  A step fills one (3, n_paths) block of
    uniforms u, reused from step to step, and picks each index as the first
    whose cumulative probability exceeds u (see _drawer).

    Purity is decided here, once per strategy.  A pure strategy f's action
    at x is f(x), looked up whatever the other strategy is.  When both are
    pure, f and g, a path at x only ever reaches row (x, f(x), g(x)) of the
    transition table, so r = x over those X rows, formed from the
    decomposition while the table is unbuilt, and the costs are the X
    columns c_i[x, f(x), g(x)].  Otherwise r = (x*A + a)*B + b over the
    whole table and its flat cost columns.
    """
    n = _scalar("n", n, 1, integer=True)
    n_paths = _scalar("n_paths", n_paths, 1, integer=True)
    x0 = _scalar("x0", x0, 0, instance.n_states, integer=True)
    seed = _scalar("seed", seed, 0, integer=True)
    phi = check_strategy(instance, Phi, 1)
    psi = check_strategy(instance, Psi, 2)
    f, g = _pure_picks(phi), _pure_picks(psi)
    draw_a = _drawer(phi, n_paths) if f is None else lambda x, u: f.take(x)
    draw_b = _drawer(psi, n_paths) if g is None else lambda x, u: g.take(x)
    pure = f is not None and g is not None
    if pure:
        xs = np.arange(instance.n_states)
        draw_y = _drawer(instance._transition_rows(xs, f, g), n_paths)
        costs = np.stack([instance.cost1[xs, f, g], instance.cost2[xs, f, g]])
    else:
        draw_y = _drawer(instance.transition, n_paths)
        costs = np.stack([instance.cost1, instance.cost2]).reshape(2, -1)
    na, nb = instance.n_actions_a, instance.n_actions_b

    def steps():
        rng = np.random.default_rng(seed)
        u = np.empty((3, n_paths))
        y = np.full(n_paths, x0)
        for _ in range(n):
            x = y
            rng.random(out=u)
            a = draw_a(x, u[0])
            b = draw_b(x, u[1])
            r = x if pure else (x * na + a) * nb + b
            y = draw_y(r, u[2])
            yield x, a, b, r, y

    return costs, steps()


def sample_path(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x0: int,
    n: int,
    seed: int,
) -> Trajectory:
    """Sample one n-step trajectory; deterministic per seed.

    This is the one-path case of the walk behind :func:`mc_cost_estimate`,
    so a one-path estimate with the same seed reads this path.  Works for
    any valid transition table, including rows with zero entries
    (deterministic chains), which the optimizing solvers reject.

    Args:
        x0: start state, an integer in [0, n_states).
        n: number of steps, an integer >= 1.
        seed: seed of the one generator every draw comes from, an integer >= 0.
    """
    costs, steps = _walk(instance, Phi, Psi, x0, n, 1, seed)
    x, a, b, r, y = (np.concatenate(v) for v in zip(*steps))
    cost_sums = np.cumsum(costs.take(r, axis=1), axis=1)
    cost_sums = np.concatenate([np.zeros((2, 1)), cost_sums], axis=1)
    return Trajectory(np.append(x, y[-1]), a, b, cost_sums)


def mc_cost_estimate(
    instance: GameInstance,
    Phi: StationaryStrategy,
    Psi: StationaryStrategy,
    x: int,
    n: int,
    n_paths: int,
    seed: int,
) -> tuple[McEstimate, McEstimate]:
    """Estimate both players' n-step growth increments by simulation.

    Simulates n_paths independent paths from x once and returns one
    estimate per player, (player 1, player 2), each

        value = ln sum_paths e^{theta S_n} - ln sum_paths e^{theta S_{n-1}},

    which estimates ln E[e^{theta S_n}] - ln E[e^{theta S_{n-1}}] (the path
    count cancels in the difference).  Aggregation is log-sum-exp, so large
    exponents never overflow.  std_error is the delta-method standard error
    of the difference, accounting for the correlation induced by sharing
    paths between the two terms.  Memory is O(n_paths): only the running
    sums S_n and S_{n-1} of both players are kept.

    Args:
        x: start state, an integer in [0, n_states).
        n: horizon, an integer >= 1.
        n_paths: number of paths, an integer >= 1.
        seed: seed of the one generator every draw comes from, an integer >= 0.
    """
    costs, steps = _walk(instance, Phi, Psi, x, n, n_paths, seed)
    total = prev_total = np.zeros((2, n_paths))
    for *_, r, _ in steps:
        prev_total, total = total, total + costs.take(r, axis=1)
    return tuple(
        _estimate(instance.theta * s_n, instance.theta * s_m, n, seed)
        for s_n, s_m in zip(total, prev_total)
    )


def _logsumexp(z: np.ndarray) -> float:
    """ln sum e^z, shifted by the maximum so no term overflows."""
    top = z.max()
    return np.log(np.exp(z - top).sum()) + top


def _estimate(z_n: np.ndarray, z_m: np.ndarray, n: int, seed: int) -> McEstimate:
    """Increment and delta-method standard error from one player's exponents."""
    n_paths = z_n.shape[0]
    ln_n, ln_m = _logsumexp(z_n), _logsumexp(z_m)
    value = float(ln_n - ln_m)
    p = np.exp(z_n - ln_n)
    q = np.exp(z_m - ln_m)
    if n_paths == 1:
        std_error = 0.0
    else:
        std_error = float(
            np.sqrt(n_paths / (n_paths - 1.0)) * np.sqrt(((p - q) ** 2).sum())
        )
    return McEstimate(
        value=value, std_error=std_error, n_paths=n_paths, horizon=int(n), seed=int(seed)
    )
