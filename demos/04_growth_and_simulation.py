"""Finite-horizon growth, spectral limits, and Monte Carlo validation.

For a frozen strategy pair the ergodic value is ln r(Q), the log spectral
radius of the twisted matrix Q.  Two independent routes confirm it:

* exact n-step growth increments ln E[e^{theta S_n}] - ln E[e^{theta S_{n-1}}],
  computed by stabilized matrix powers, converge to ln r(Q) geometrically;
* Monte Carlo over sampled paths estimates the same increment with a
  delta-method standard error; one walk of the paths serves both players.

The increment form matters: the plain time average (1/n) ln E[e^{theta S_n}]
carries an O(1/n) bias that is still visible at n = 2000.
"""
import numpy as np

import rsgame as rs

g2 = rs.g2_instance()
phi = rs.uniform_strategy(g2, 1)
psi = rs.uniform_strategy(g2, 2)

exact = rs.ergodic_cost(g2, 2, phi, psi)
print(f"spectral ergodic value ln r(Q) = {exact:.15f}")

print("\nn-step growth increments converge geometrically:")
for n in (1, 2, 5, 10, 20, 50):
    inc = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=n)
    print(f"  n = {n:3d}: increment {inc:.15f}  error {abs(inc - exact):.2e}")

avg = rs.horizon_log_mgf(g2, 2, phi, psi, x=0, n=2000) / 2000.0
print(f"\ntime average at n = 2000 is still {abs(avg - exact):.2e} off"
      " (the O(1/n) prelimit bias)")

# ---------------------------------------------------------------------------
# Monte Carlo: sample paths, then estimate the same increment
# ---------------------------------------------------------------------------
traj = rs.sample_path(g2, phi, psi, x0=0, n=10, seed=1)
print("\none sampled path:", traj.states.tolist())
print("  player-2 running cost sums:", traj.cost_sums[1].round(3).tolist())

target = rs.finite_horizon_growth(g2, 2, phi, psi, x=0, n=50)
_, est = rs.mc_cost_estimate(g2, phi, psi, x=0, n=50, n_paths=10_000, seed=3)
z = (est.value - target) / est.std_error
print(f"\nMC increment over {est.n_paths} paths: {est.value:.6f}"
      f" +- {est.std_error:.6f}")
print(f"exact increment {target:.6f}; standardized error z = {z:+.2f}")

# replicate to see the 3-sigma interval do its job
hits = 0
for rep in range(20):
    _, e = rs.mc_cost_estimate(g2, phi, psi, x=0, n=50, n_paths=4_000, seed=rep)
    hits += abs(e.value - target) <= 3.0 * e.std_error
print(f"coverage over 20 replicates: {hits}/20 within 3 SE")

# the estimator is exact when randomness carries no cost information
flat = rs.GameInstance(
    g2.transition, np.full_like(g2.cost1, 0.3), np.full_like(g2.cost2, 0.3)
)
flat_mc = rs.mc_cost_estimate(flat, rs.uniform_strategy(flat, 1),
                              rs.uniform_strategy(flat, 2), x=0, n=8, n_paths=100, seed=0)
print("\nconstant-cost sanity check (exact 0.3), both players from one walk:")
for i, e in enumerate(flat_mc, 1):
    print(f"  player {i}: estimate {e.value:.12f}, SE {e.std_error:.1e}")
