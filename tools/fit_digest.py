"""One digest over the iris benchmark protocol's fits, to prove two builds fit alike.

    python3 tools/fit_digest.py --seeds 77 9000 --trials 128

For each seed and trial it re-splits iris classes 1 vs 2 80/20 with the
per-trial stream `run_bench` uses, z-scores both halves with the training
statistics, runs the Newton fit (lam = 100) and the least-squares fit, and
predicts the test split with both.  It prints three lines:

    digest             sha256 over theta, z, status, iterations and the
                       certificate JSON of every Newton fit, the LS fit's
                       theta, and both fits' test predictions
    linalg_warnings    LinAlgWarnings raised by the fits
    accuracy_pct       mean Newton test accuracy, singular-system fits left
                       out as `run_bench` leaves them out

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Equal digests mean bit-identical results.
"""

import os

# One BLAS thread, fixed before numpy loads, so the bits do not depend on
# how a threaded BLAS splits its work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import LinAlgWarning  # noqa: E402

from quadsurf import (Normalize, SolverConfig, SolveStatus, apply_normalizer,  # noqa: E402
                      fit_normalizer, load_csv, ls_qssvm_fit, predict_many, solve, split)

IRIS_CSV = ROOT / "data" / "iris.csv"
SOLVER = SolverConfig(lam=100.0)


def fit_digest(seeds, trials: int):
    """(sha256 hex digest, LinAlgWarning count, mean Newton accuracy in %)."""
    data = load_csv(IRIS_CSV, class_pair=(1, 2))
    h = hashlib.sha256()
    accs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LinAlgWarning)
        for seed in seeds:
            for t in range(trials):
                train, test = split(data, 0.8, np.random.SeedSequence(entropy=seed,
                                                                      spawn_key=(t,)))
                shift, scale = fit_normalizer(train.points, Normalize.ZSCORE)
                train = apply_normalizer(train, shift, scale)
                test = apply_normalizer(test, shift, scale)

                report = solve(train, SOLVER)
                final = report.final
                h.update(final.theta.to_vector().tobytes())
                h.update(np.asarray(final.z, dtype=np.float64).tobytes())
                h.update(f"{report.status.value} {final.iter}\n".encode())
                cert = report.certificate.to_json(sort_keys=True) if report.certificate else ""
                h.update(cert.encode())
                labels = predict_many(final.theta, test.points)
                h.update(labels.tobytes())

                ls = ls_qssvm_fit(train)
                h.update(ls.to_vector().tobytes())
                h.update(predict_many(ls, test.points).tobytes())

                if report.status is not SolveStatus.SINGULAR_SYSTEM:
                    accs.append(100.0 * float(np.mean(labels == test.labels)))
    n_warn = sum(issubclass(w.category, LinAlgWarning) for w in caught)
    return h.hexdigest(), n_warn, float(np.mean(accs)) if accs else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[77, 9000])
    ap.add_argument("--trials", type=int, default=128)
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be >= 1")
    digest, n_warn, acc = fit_digest(args.seeds, args.trials)
    print(f"digest           {digest}")
    print(f"linalg_warnings  {n_warn}")
    print(f"accuracy_pct     {acc:.3f}")


if __name__ == "__main__":
    main()
