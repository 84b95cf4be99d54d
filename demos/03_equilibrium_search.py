"""Find and certify stationary Nash equilibria.

A pair (Phi, Psi) is an eps-equilibrium when neither player can improve
their ergodic value by more than eps through a unilateral stationary
deviation.  The deviation gaps eps_i = J_i - rho_i* are computable exactly:
J_i by a spectral radius, rho_i* by value iteration.  Two search routines:

* best_response_dynamics -- damped alternating replies with annealed logit
  smoothing; fast when it converges, but convergence is not guaranteed for
  nonzero-sum games, so every run ends with an independent certificate.
* brute_force_nash -- exhaustive simplex-grid enumeration; existence-aware,
  and the backstop when dynamics cycle.
"""
import rsgame as rs

g2 = rs.g2_instance()

# ---------------------------------------------------------------------------
# certify a candidate pair by hand
# ---------------------------------------------------------------------------
phi = rs.uniform_strategy(g2, 1)
psi = rs.uniform_strategy(g2, 2)
cert = rs.epsilon_gap(g2, phi, psi)
print("uniform pair:")
print(f"  J1 = {cert.J1:.12f}   best deviation value rho1* = {cert.rho1_star:.12f}")
print(f"  J2 = {cert.J2:.12f}   best deviation value rho2* = {cert.rho2_star:.12f}")
print(f"  gaps: eps1 = {cert.eps1:.6f}, eps2 = {cert.eps2:.6f}"
      f"  -> not an equilibrium")

# ---------------------------------------------------------------------------
# damped best-response dynamics
# ---------------------------------------------------------------------------
found = rs.best_response_dynamics(g2)
print(f"\ndynamics converged = {found.converged} after {found.rounds} rounds")
print(f"  certified max gap {found.max_gap:.2e}")
print("  Phi ->", found.Phi.rows.round(6).tolist())
print("  Psi ->", found.Psi.rows.round(6).tolist())
print("  independent re-verification:",
      rs.verify_certificate(g2, found, eps=1e-6))

# ---------------------------------------------------------------------------
# exhaustive grid enumeration
# ---------------------------------------------------------------------------
result = rs.brute_force_nash(g2, grid_step=0.25, eps=0.05)
print(f"\ngrid 0.25 searched {result.searched_pairs} strategy pairs,"
      f" kept {len(result)} with gap <= 0.05")
print("  ", result.label)
best = result[0]
print(f"  best pair gap {best.max_gap:.2e}:"
      f" Phi = {best.Phi.rows.tolist()}, Psi = {best.Psi.rows.tolist()}")
print(f"  equilibrium values J1 = {best.J1:.12f}, J2 = {best.J2:.12f}")

# the two searches agree: the dynamics' limit is the grid's best survivor
print("\ndynamics limit matches the pure grid equilibrium:",
      bool((found.Phi.rows.round(3) == best.Phi.rows).all()
           and (found.Psi.rows.round(3) == best.Psi.rows).all()))
