"""Stationarity certificates: what the solver can prove about its output.

A returned pair (theta, z) is checked on three axes: the gradient balance
grad f + a'z = 0, membership of every margin in the prox of its shifted
value, and the step-size interval (alpha_1, alpha_2) the point remains
stationary for.  The report also judges the working set itself: it is
regular when the saddle system over it is nonsingular, the assumption
behind the Newton iteration's local quadratic rate, and then every nonempty
subset of it is regular too.
"""

import numpy as np

from quadsurf import (GenSpec, SolverConfig, alpha_bounds, build_design, generate, margins,
                      pstationary_check, residual, solve)

data = generate(GenSpec(kind="convex2d", n_per_class=50, seed=1))
config = SolverConfig()
report = solve(data, config)
cache = build_design(data)
theta, z = report.final.theta, report.final.z
print("solve:", report.status.value, "residual", report.final.residual.norm)

parts = residual(theta, z, config.alpha, config.lam, cache)
sets = parts.sets
print("\nindex sets: |t_o| =", sets.t_o.size, "|t_1| =", sets.t_1.size,
      "|t_2| =", sets.t_2.size, "|t_3| =", sets.t_3.size)
print("working set:", sets.working)
print("residual blocks: grad %.2e  margins %.2e  off-duals %.2e" % (
    np.linalg.norm(parts.grad_part), np.linalg.norm(parts.margin_part),
    np.linalg.norm(parts.dual_part)))

cert = pstationary_check(theta, z, config.alpha, config.lam, cache, tol=1e-6)
print("\ncertificate:", cert.to_json(indent=2))

a1, a2, astar = alpha_bounds(margins(theta, cache), z, config.lam, atol=1e-6)
print(f"step-size interval: alpha_1={a1:.3e} alpha_2={a2:.3e} "
      f"alpha_star={astar:.3e} (alpha used: {config.alpha:g})")

print(f"\nworking set regular (independent rows, positive curvature on their null "
      f"space), and so every nonempty subset of it: {report.regular}")
