"""Stationarity certificates: what the solver can prove about its output.

A returned pair (theta, z) is checked on three axes: the gradient balance
grad f + a'z = 0, membership of every margin in the prox of its shifted
value, and the step-size interval (alpha_1, alpha_2) the point remains
stationary for.  Rank and curvature checks qualify the working set itself.
"""

import numpy as np

from quadsurf import (GenSpec, SolverConfig, alpha_bounds, assumption_rank_check,
                      build_design, generate, margins, pstationary_check,
                      recover_multiplier, residual, second_order_check, solve)

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

independent, rank = assumption_rank_check(sets.working, cache)
print(f"\nactive margin rows independent: {independent} (rank {rank} of {sets.working.size})")

so = second_order_check(sets.working, cache)
print(f"curvature system: sigma_min={so.sigma_min:.3e} sigma_max={so.sigma_max:.3e} "
      f"nonsingular={so.nonsingular}")
so_all = second_order_check(sets.working, cache, all_subsets=True)
print(f"  exhaustive subset sweep: sigma_min={so_all.sigma_min:.3e} "
      f"nonsingular={so_all.nonsingular}")

# multipliers can also be recovered from theta and the working set alone
rec = recover_multiplier(theta, sets.working, cache)
print("\nleast-squares multipliers match the solver's:",
      np.allclose(rec.z, z, atol=1e-6), " balance residual:", rec.grad_residual)
