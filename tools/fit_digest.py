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
(x, y, y) or a constant one (x, y, 1).  It prints sixteen lines:

    digest             sha256 over theta, z, status, iterations and the
                       certificate JSON of every Newton fit, the LS fit's
                       theta, and both fits' test predictions
    linalg_warnings    LinAlgWarnings raised by the iris fits
    accuracy_pct       mean Newton test accuracy, singular-system fits left
                       out as `run_bench` leaves them out
    regular_fits       iris Newton fits whose final working set is regular
                       (`SolveReport.regular`); it enters no digest
    warm_start_solves  mean `solve_symmetric` calls of `warm_start_point`
                       per iris Newton fit; it enters no digest
    warm_start_evals   mean squared-hinge objective evaluations
                       (`_hinge_sq_objective` calls) per iris Newton fit; it
                       enters no digest
    ldp_starts         iris Newton fits whose warm start is the hard-margin
                       (LDP) start, `SolveReport.warm_start_route`; the others
                       ran the squared-hinge continuation.  It enters no digest
    noisy_digest       sha256 over theta, z, status, iterations and the
                       certificate JSON of the noisy circular fits
    noisy_warm_start_solves  `warm_start_solves` over the noisy fits, whose
                       designs are too large for the hard-margin start, so
                       it counts the squared-hinge continuation's solves
    noisy_warm_start_evals   `warm_start_evals` over the noisy fits
    degenerate_digest  the same over the degenerate fits, with each
                       design's LS fit theta
    degenerate_warnings  LinAlgWarnings raised by the degenerate fits: one
                       for each continuation start that uses a polished pair
                       whose final saddle solve LAPACK flagged (the polish
                       itself never warns)
    degenerate_statuses  degenerate Newton fits per final status, as
                       status=count in the order of the status names
    degenerate_reversed_statuses  the same for the degenerate designs
                       refitted with their rows in reverse order; it enters
                       no digest.  Outcomes there turn on rounding along G's
                       null directions, so this line tells a move that any
                       change of summation order makes from a regression
    endpoint_mismatches  iris, noisy and degenerate Newton fits whose
                       certificate or `regular` differs from
                       `pstationary_check` and `regular` evaluated afresh at
                       the final (theta, z) on a newly built design; it enters
                       no digest and reads 0 when `solve` evaluates its
                       endpoint faithfully
    regular_solves     `stationarity.regular` factorizations inside `solve`
                       over the iris, noisy and degenerate fits (calls of
                       `quadsurf.stationarity.solve_symmetric`, the fresh
                       evaluations of `endpoint_mismatches` left out); a fit
                       that ends on its warm start's support keeps the start's
                       verdict and runs none.  It enters no digest

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Equal digests mean bit-identical results.
"""

import os

# One BLAS thread, fixed before numpy loads, so the bits do not depend on
# how a threaded BLAS splits its work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import LinAlgWarning  # noqa: E402

import quadsurf.baseline as qs_baseline  # noqa: E402
import quadsurf.stationarity as qs_stationarity  # noqa: E402
from quadsurf import (Dataset, GenSpec, Normalize, SolverConfig, SolveStatus,  # noqa: E402
                      apply_normalizer, build_design, fit_normalizer, generate, load_csv,
                      ls_qssvm_fit, predict_many, pstationary_check, regular, solve, split)

IRIS_CSV = ROOT / "data" / "iris.csv"
SOLVER = SolverConfig(lam=100.0)
NOISY = [GenSpec(kind="circular", n_per_class=600, seed=s, noise=0.3) for s in range(100, 106)]


def _update_with_fit(h, report):
    """Feed theta, z, status, iterations and the certificate JSON of a fit into h."""
    final = report.final
    h.update(final.theta.to_vector().tobytes())
    h.update(np.asarray(final.z, dtype=np.float64).tobytes())
    h.update(f"{report.status.value} {final.iter}\n".encode())
    h.update(report.certificate.to_json(sort_keys=True).encode())


def _endpoint_mismatch(report, data) -> bool:
    """Whether the certificate or `regular` of a fit differs from their fresh
    evaluation at its final (theta, z) on a newly built design of `data`."""
    final, cfg = report.final, report.config
    cache = build_design(data)
    cert = pstationary_check(final.theta, final.z, cfg.alpha, cfg.lam, cache, tol=10.0 * cfg.eps)
    return (cert.to_dict() != report.certificate.to_dict()
            or regular(final.working.working, cache) != report.regular)


def _linalg_warnings(caught) -> int:
    return sum(issubclass(w.category, LinAlgWarning) for w in caught)


@contextlib.contextmanager
def _counted_calls():
    """Count, in a Counter, the `solve_symmetric` and `_hinge_sq_objective` calls made
    through `quadsurf.baseline`, which inside `solve` only `warm_start_point` makes,
    under "solves" and "evals", and the `solve_symmetric` calls made through
    `quadsurf.stationarity`, which only `regular` makes, under "regular"."""
    calls = Counter()
    patched = [(qs_baseline, "solve_symmetric", "solves"),
               (qs_baseline, "_hinge_sq_objective", "evals"),
               (qs_stationarity, "solve_symmetric", "regular")]
    real = [getattr(module, name) for module, name, _ in patched]

    def counted(fn, key):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    for (module, name, key), fn in zip(patched, real):
        setattr(module, name, counted(fn, key))
    try:
        yield calls
    finally:
        for (module, name, _), fn in zip(patched, real):
            setattr(module, name, fn)


def fit_digest(seeds, trials: int):
    """(sha256 hex digest, LinAlgWarning count, mean Newton accuracy in %, regular fits,
    mean warm-start solves per fit, mean hinge objective evaluations per fit, hard-margin
    starts, endpoint mismatches, `regular` factorizations inside `solve`)."""
    data = load_csv(IRIS_CSV, class_pair=(1, 2))
    h = hashlib.sha256()
    accs = []
    n_regular = n_ldp = n_mismatch = 0
    n_calls = Counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LinAlgWarning)
        for seed in seeds:
            for t in range(trials):
                train, test = split(data, 0.8, np.random.SeedSequence(entropy=seed,
                                                                      spawn_key=(t,)))
                shift, scale = fit_normalizer(train.points, Normalize.ZSCORE)
                train = apply_normalizer(train, shift, scale)
                test = apply_normalizer(test, shift, scale)

                with _counted_calls() as calls:
                    report = solve(train, SOLVER)
                n_calls += calls
                _update_with_fit(h, report)
                n_regular += report.regular
                n_ldp += report.warm_start_route == "ldp"
                n_mismatch += _endpoint_mismatch(report, train)
                labels = predict_many(report.final.theta, test.points)
                h.update(labels.tobytes())

                ls = ls_qssvm_fit(train)
                h.update(ls.to_vector().tobytes())
                h.update(predict_many(ls, test.points).tobytes())

                if report.status is not SolveStatus.SINGULAR_SYSTEM:
                    accs.append(100.0 * float(np.mean(labels == test.labels)))
    acc = float(np.mean(accs)) if accs else float("nan")
    fits = len(seeds) * trials
    return (h.hexdigest(), _linalg_warnings(caught), acc, n_regular, n_calls["solves"] / fits,
            n_calls["evals"] / fits, n_ldp, n_mismatch, n_calls["regular"])


def noisy_digest():
    """(sha256 hex digest, endpoint mismatches, mean warm-start solves per fit, mean
    hinge objective evaluations per fit, `regular` factorizations inside `solve`) over
    the Newton fits of the NOISY draws."""
    h = hashlib.sha256()
    n_mismatch = 0
    n_calls = Counter()
    for spec in NOISY:
        data = generate(spec)
        with _counted_calls() as calls:
            report = solve(data, SOLVER)
        n_calls += calls
        _update_with_fit(h, report)
        n_mismatch += _endpoint_mismatch(report, data)
    return (h.hexdigest(), n_mismatch, n_calls["solves"] / len(NOISY),
            n_calls["evals"] / len(NOISY), n_calls["regular"])


def degenerate_designs():
    """The 60 degenerate training sets, in digest order."""
    for seed in range(20):
        data = generate(GenSpec(kind="circular", n_per_class=50, seed=seed))
        x, y = data.points.T
        for pts in (np.column_stack([x, 2.0 * x]), np.column_stack([x, y, y]),
                    np.column_stack([x, y, np.ones_like(x)])):
            yield Dataset(points=pts, labels=data.labels)


def degenerate_digest():
    """(sha256 hex digest, LinAlgWarning count, Newton fits per status name, endpoint
    mismatches, `regular` factorizations inside `solve`) over the Newton and LS fits of
    the degenerate designs."""
    h = hashlib.sha256()
    statuses = Counter()
    n_mismatch = 0
    n_calls = Counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LinAlgWarning)
        for data in degenerate_designs():
            with _counted_calls() as calls:
                report = solve(data, SOLVER)
            n_calls += calls
            _update_with_fit(h, report)
            statuses[report.status.value] += 1
            n_mismatch += _endpoint_mismatch(report, data)
            h.update(ls_qssvm_fit(data).to_vector().tobytes())
    return h.hexdigest(), _linalg_warnings(caught), statuses, n_mismatch, n_calls["regular"]


def degenerate_reversed_statuses():
    """Newton fits per status name over the degenerate designs with their rows reversed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return Counter(solve(Dataset(points=data.points[::-1], labels=data.labels[::-1]),
                             SOLVER).status.value for data in degenerate_designs())


def _status_line(statuses):
    return " ".join(f"{k}={statuses[k]}" for k in sorted(statuses))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[77, 9000])
    ap.add_argument("--trials", type=int, default=128)
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be >= 1")
    (digest, n_warn, acc, n_regular, solves, evals, n_ldp, iris_mismatch,
     iris_regular) = fit_digest(args.seeds, args.trials)
    noisy, noisy_mismatch, noisy_solves, noisy_evals, noisy_regular = noisy_digest()
    (degenerate, n_degenerate_warn, statuses, degenerate_mismatch,
     degenerate_regular) = degenerate_digest()
    print(f"digest               {digest}")
    print(f"linalg_warnings      {n_warn}")
    print(f"accuracy_pct         {acc:.3f}")
    print(f"regular_fits         {n_regular}")
    print(f"warm_start_solves    {solves:.3f}")
    print(f"warm_start_evals     {evals:.3f}")
    print(f"ldp_starts           {n_ldp}")
    print(f"noisy_digest         {noisy}")
    print(f"noisy_warm_start_solves  {noisy_solves:.3f}")
    print(f"noisy_warm_start_evals   {noisy_evals:.3f}")
    print(f"degenerate_digest    {degenerate}")
    print(f"degenerate_warnings  {n_degenerate_warn}")
    print(f"degenerate_statuses  {_status_line(statuses)}")
    print(f"degenerate_reversed_statuses  {_status_line(degenerate_reversed_statuses())}")
    print(f"endpoint_mismatches  {iris_mismatch + noisy_mismatch + degenerate_mismatch}")
    print(f"regular_solves       {iris_regular + noisy_regular + degenerate_regular}")


if __name__ == "__main__":
    main()
