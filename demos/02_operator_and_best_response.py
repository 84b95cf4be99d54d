"""Twisted kernels, the optimality operator, and one player's best reply.

Freezing the opponent turns the game into a risk-sensitive Markov decision
process.  The right object to iterate is not the raw transition law but the
twisted kernel e^{theta*c} * P; its mixed normalization splits into a
one-step log-cost c^ and a probability kernel P^.  The operator

    (Tv)(x) = min_b  ln sum_y M(x, b, y) e^{v(y)}

is a span-seminorm contraction, so relative value iteration converges
geometrically to a fixed point rho + v = Tv whose rho is the optimal
ergodic value.
"""
import numpy as np

import rsgame as rs

g2 = rs.g2_instance()
phi = rs.uniform_strategy(g2, 1)   # the frozen opponent

# ---------------------------------------------------------------------------
# twisted kernel and its mixed normalization at one state
# ---------------------------------------------------------------------------
kernel = np.exp(g2.theta * g2.cost2)[..., None] * g2.transition   # [x][a][b][y]
print("twisted row sums equal e^{theta*c2}:",
      np.allclose(kernel.sum(axis=-1), np.exp(g2.theta * g2.cost2)))

c_hat, p_hat = rs.normalized_kernel(g2, 2, 0, phi.rows[0], np.array([0.5, 0.5]))
print(f"log-normalizer c^ at x=0 under uniform play: {c_hat:.12f}")
print(f"  normalized row P^ = {p_hat}")

# the same objective in two forms: direct log-sum-exp vs. entropy dual
v = np.array([0.1, -0.4])
direct = rs.mixed_objective(g2, 2, 0, phi.rows[0], np.array([0.5, 0.5]), v)
dual = rs.dual_value(g2, 2, 0, phi.rows[0], np.array([0.5, 0.5]), v)
print(f"direct form {direct:.15f}  entropy dual {dual:.15f}"
      f"  (differ by {abs(direct - dual):.1e})")

# ---------------------------------------------------------------------------
# relative value iteration
# ---------------------------------------------------------------------------
res = rs.solve_optimality(g2, 2, phi)
print(f"\nsolved in {res.iterations} iterations, residual {res.residual:.2e}")
print(f"optimal ergodic value rho2* = {res.rho:.15f}")
print("relative values v* =", res.v, "(anchored at state 0)")
print("minimizing selector:", res.selector)

# the fixed point satisfies rho + v = Tv
tv, tied = rs.apply_T(g2, 2, phi, res.v)
print("fixed-point residual:", float(np.abs(tv - res.rho - res.v).max()))
print("tied argmin sets per state:", [list(t) for t in tied])

# the solve is the best-response set: every strategy supported on the tied
# argmin sets, which res.contains tests
response = rs.pure_strategy(g2, 2, res.selector)
print("\npure selector is a best response:", res.contains(response))
print("uniform play is a best response:", res.contains(rs.uniform_strategy(g2, 2)))

# how contractive is T in practice?  measure it on a fixed sample of pairs
ratio = rs.measured_contraction(g2, 2, phi)
print(f"\nmeasured contraction ratio over {rs.bellman.N_PAIRS} pairs of span "
      f"<= {rs.bellman.SPAN_CAP}: {ratio:.4f} < 1")
print(f"span of v* = {rs.span(res.v):.4f} within the a priori bound "
      f"{rs.validate(g2).span_bound:.4f}")
