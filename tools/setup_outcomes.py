"""Which seeds' predict-row set-up fits certify, to size a change's failure risk.

    python3 tools/setup_outcomes.py --seeds 1 600

For each seed from LO to HI (both included) it prepares the predict-row
workload with `perfbench/workloads.py::setup_predict_row`, which fits the
served surface (circular classes, 1000 per class, noise 0.3, lam = 100),
and reads the workload's own `setup_failures`: a fit is certified when that
list is empty.  So a seed counts as failed here exactly when a benchmark
run on it counts a failed set-up fit.  The solver's status, iteration
count and served surface are read from the report of that fit; the surface
is constant when max(|wtri|, |b|) <= 1e-8 * max(1, |c|), so that it labels
every query row alike.  It prints six lines:

    seeds           LO-HI
    failed          number of seeds whose set-up fit did not certify
    failed_seeds    those seeds, in order
    constant        number of seeds whose set-up fit serves a constant surface
    constant_seeds  those seeds, in order
    digest          sha256 over (seed, certified, status, iterations) of
                    every set-up fit

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Equal digests mean that every seed kept its outcome
and iteration count.
"""

import os

# One BLAS thread, fixed before numpy loads, as the benchmark fixes it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import quadsurf.newton as qs_newton  # noqa: E402
import workloads  # noqa: E402


def is_constant(theta) -> bool:
    """Whether the surface theta is constant: max(|wtri|, |b|) <= 1e-8 * max(1, |c|)."""
    return max(np.abs(theta.wtri).max(), np.abs(theta.b).max()) <= 1e-8 * max(1.0, abs(theta.c))


def setup_outcome(seed: int):
    """(certified, solver status, Newton iterations, constant surface) of the set-up
    fit of `seed`."""
    reports = []
    solve = qs_newton.solve

    def recording_solve(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    qs_newton.solve = recording_solve
    try:
        prep = workloads.setup_predict_row(seed)
    finally:
        qs_newton.solve = solve
    (report,) = reports
    return (not prep.setup_failures, report.status.value, report.final.iter,
            is_constant(report.final.theta))


def setup_outcomes(lo: int, hi: int):
    """(failing seeds, constant seeds, sha256 hex digest) over the set-up fits of
    seeds lo..hi."""
    h = hashlib.sha256()
    failed, constant = [], []
    for seed in range(lo, hi + 1):
        ok, status, iters, flat = setup_outcome(seed)
        h.update(f"{seed} {ok} {status} {iters}\n".encode())
        if not ok:
            failed.append(seed)
        if flat:
            constant.append(seed)
    return failed, constant, h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("LO", "HI"), required=True)
    args = ap.parse_args(argv)
    lo, hi = args.seeds
    if lo > hi:
        ap.error("--seeds needs LO <= HI")
    failed, constant, digest = setup_outcomes(lo, hi)
    print(f"seeds           {lo}-{hi}")
    print(f"failed          {len(failed)}")
    print(f"failed_seeds    {' '.join(map(str, failed))}")
    print(f"constant        {len(constant)}")
    print(f"constant_seeds  {' '.join(map(str, constant))}")
    print(f"digest          {digest}")


if __name__ == "__main__":
    main()
