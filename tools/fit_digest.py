"""Digests over fixed sets of fits, to prove two builds fit alike.

    python3 tools/fit_digest.py --seeds 77 9000 --trials 128

For each seed and trial it re-splits iris classes 1 vs 2 80/20 with the
per-trial stream `run_bench` uses, z-scores both halves with the training
statistics, runs the Newton fit (lam = 100) and the least-squares fit, and
predicts the test split with both.  Iris fits end at the warm start, so it
also fits six noisy circular draws (600 per class, noise 0.3, seeds
100-105, lam = 100), which take Newton steps, and 60 degenerate designs,
whose solves LAPACK refuses or flags: circular draws (50 per class, seeds
0-19, lam = 100) made collinear (x2 = 2 x1), given a duplicated feature
(x, y, y) or a constant one (x, y, 1).  It prints six lines:

    digest             sha256 over theta, z, status, iterations and the
                       certificate JSON of every Newton fit, the LS fit's
                       theta, and both fits' test predictions
    linalg_warnings    LinAlgWarnings raised by the iris fits
    accuracy_pct       mean Newton test accuracy, singular-system fits left
                       out as `run_bench` leaves them out
    noisy_digest       sha256 over theta, z, status, iterations and the
                       certificate JSON of the noisy circular fits
    degenerate_digest  the same over the degenerate fits, with each
                       design's LS fit theta
    degenerate_warnings  LinAlgWarnings raised by the degenerate fits

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

from quadsurf import (Dataset, GenSpec, Normalize, SolverConfig, SolveStatus,  # noqa: E402
                      apply_normalizer, fit_normalizer, generate, load_csv, ls_qssvm_fit,
                      predict_many, solve, split)

IRIS_CSV = ROOT / "data" / "iris.csv"
SOLVER = SolverConfig(lam=100.0)
NOISY = [GenSpec(kind="circular", n_per_class=600, seed=s, noise=0.3) for s in range(100, 106)]


def _update_with_fit(h, report):
    """Feed theta, z, status, iterations and the certificate JSON of a fit into h."""
    final = report.final
    h.update(final.theta.to_vector().tobytes())
    h.update(np.asarray(final.z, dtype=np.float64).tobytes())
    h.update(f"{report.status.value} {final.iter}\n".encode())
    cert = report.certificate.to_json(sort_keys=True) if report.certificate else ""
    h.update(cert.encode())


def _linalg_warnings(caught) -> int:
    return sum(issubclass(w.category, LinAlgWarning) for w in caught)


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
                _update_with_fit(h, report)
                labels = predict_many(report.final.theta, test.points)
                h.update(labels.tobytes())

                ls = ls_qssvm_fit(train)
                h.update(ls.to_vector().tobytes())
                h.update(predict_many(ls, test.points).tobytes())

                if report.status is not SolveStatus.SINGULAR_SYSTEM:
                    accs.append(100.0 * float(np.mean(labels == test.labels)))
    return h.hexdigest(), _linalg_warnings(caught), float(np.mean(accs)) if accs else float("nan")


def noisy_digest():
    """sha256 hex digest over the Newton fits of the NOISY draws."""
    h = hashlib.sha256()
    for spec in NOISY:
        _update_with_fit(h, solve(generate(spec), SOLVER))
    return h.hexdigest()


def degenerate_designs():
    """The 60 degenerate training sets, in digest order."""
    for seed in range(20):
        data = generate(GenSpec(kind="circular", n_per_class=50, seed=seed))
        x, y = data.points.T
        for pts in (np.column_stack([x, 2.0 * x]), np.column_stack([x, y, y]),
                    np.column_stack([x, y, np.ones_like(x)])):
            yield Dataset(points=pts, labels=data.labels)


def degenerate_digest():
    """(sha256 hex digest, LinAlgWarning count) over the Newton and LS fits of the
    degenerate designs."""
    h = hashlib.sha256()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LinAlgWarning)
        for data in degenerate_designs():
            _update_with_fit(h, solve(data, SOLVER))
            h.update(ls_qssvm_fit(data).to_vector().tobytes())
    return h.hexdigest(), _linalg_warnings(caught)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[77, 9000])
    ap.add_argument("--trials", type=int, default=128)
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be >= 1")
    digest, n_warn, acc = fit_digest(args.seeds, args.trials)
    degenerate, n_degenerate_warn = degenerate_digest()
    print(f"digest               {digest}")
    print(f"linalg_warnings      {n_warn}")
    print(f"accuracy_pct         {acc:.3f}")
    print(f"noisy_digest         {noisy_digest()}")
    print(f"degenerate_digest    {degenerate}")
    print(f"degenerate_warnings  {n_degenerate_warn}")


if __name__ == "__main__":
    main()
