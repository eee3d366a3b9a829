"""Training on the three synthetic families with the damped Newton solver.

Each dataset is separable by construction (a line, a circle, a parabola),
so a 100%-accuracy surface exists.  The solver starts from the
hard-margin surface, which one nonnegative least-squares solve finds on
these 100-sample designs (a squared-hinge continuation from theta = 0
takes over when that start is rejected), polishes its active set, and then
drives the stationarity residual below 1e-8, certifying the result.
"""

import numpy as np

from quadsurf import (GenSpec, SolverConfig, accuracy, boundary_grid, generate,
                      grid_to_csv, solve)

for kind in ("linear", "circular", "convex2d"):
    data = generate(GenSpec(kind=kind, n_per_class=50, seed=0))
    report = solve(data, SolverConfig())
    theta = report.final.theta
    cert = report.certificate
    print(f"{kind:9s} status={report.status.value} iters={report.final.iter} "
          f"residual={report.final.residual.norm:.2e} "
          f"train_acc={100 * accuracy(theta, data):.1f}% "
          f"certified={cert.passed} alpha_star={cert.alpha_star:.2e} "
          f"actives={report.final.working.working.size} "
          f"wall={report.wall_time * 1e3:.1f}ms")

# decision boundary of the circular fit, as plot data
data = generate(GenSpec(kind="circular", n_per_class=50, seed=0))
report = solve(data, SolverConfig())
grid = boundary_grid(report.final.theta, (-3, 3, -3, 3), 101)
grid_to_csv(grid, "circular_boundary.csv")
inside = (grid[:, 3] < 0).sum()
print(f"\nwrote circular_boundary.csv ({len(grid)} nodes, {inside} negative-side)")

# the report serializes to JSON for downstream tooling
summary = report.to_dict()
print("report keys:", sorted(summary))
print("residual trace:", ["%.1e" % r for r in summary["residual_trace"]])
