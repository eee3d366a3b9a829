"""The benchmark workloads, built from a seed on quadsurf's public API.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.  A workload draws a fixed pool of
operations from its seed and cycles through it a fixed number of times
(`passes`) for its timings; quality figures (accuracy, training loss) come
from the first pass over the pool.  Both depend on the seed alone and not on
how many operations fit into the run.

Library functions are always looked up on their module at call time
(``qs_newton.solve``, not a name bound at import), so the tracer's wrappers
see every call the benchmark makes.
"""

import hashlib
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

import quadsurf.baseline as qs_baseline
import quadsurf.bench as qs_bench
import quadsurf.datagen as qs_datagen
import quadsurf.model as qs_model
import quadsurf.newton as qs_newton

ROOT = Path(__file__).resolve().parent.parent
IRIS_CSV = ROOT / "data" / "iris.csv"

# lam = 100 is the paper's setting for z-scored tabular data and makes
# violations outprice the smooth term on the synthetic sets as well.
SOLVER = qs_newton.SolverConfig(lam=100.0)


@dataclass
class OpResult:
    """Outcome of one operation.

    latency_s  time of the library call the operation stands for
    busy_s     time of all library calls the operation makes (the Newton fit
               plus the baseline fit on iris-trials; else latency_s)
    ok         the operation succeeded (certified fit, correct prediction)
    status     the solver's status of a fit
    wrong      description of an output that disagrees with the reference
    error      the exception a fit raised, if any
    warnings   ill-conditioned-solve warnings the fit emitted
    """

    latency_s: float
    ok: bool
    busy_s: float = None
    status: str = None
    wrong: str = None
    error: str = None
    warnings: int = 0
    rows: int = 0
    acc_pct: float = None
    train_loss: float = None
    theta: object = None

    def __post_init__(self):
        if self.busy_s is None:
            self.busy_s = self.latency_s


@dataclass
class Prepared:
    """A workload ready to run: its operation pool, the number of passes over
    it that the timings use, and the hash of its inputs.  `setup_failures`
    describes fits made during set-up that were not converged and certified."""

    name: str
    pool_size: int
    passes: int
    run_op: callable
    input_hash: str
    unit: str
    extra: dict = field(default_factory=dict)
    setup_fits: int = 0
    setup_failures: list = field(default_factory=list)


# ---------------------------------------------------------------- reference

def reference_h(theta, X):
    """h(x) = 0.5 x'Wx + b'x + c from the packed parameters, without quadsurf.

    The quadratic form is summed over the packed slots (0.5 x_j^2 on the
    diagonal, x_j x_k above it), a different route from the library's
    assembled matrix W.
    """
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[1]
    iu, ju = np.triu_indices(m, k=1)
    quad = 0.5 * (X * X) @ theta.wtri[:m] + (X[:, iu] * X[:, ju]) @ theta.wtri[m:]
    return quad + X @ theta.b + theta.c


def reference_labels(theta, X):
    """Labels sign(h) with ties to +1, and a mask of rows far enough from h = 0
    that rounding cannot flip them."""
    h = reference_h(theta, X)
    decisive = np.abs(h) > 1e-9 * (1.0 + np.max(np.abs(h)))
    return np.where(h >= 0.0, 1.0, -1.0), decisive


def reference_train_loss(theta, data, lam):
    """sum_i 0.5 ||W x_i + b||^2 + lam * #{1 - y_i h(x_i) > 0}, evaluated directly."""
    X = data.points
    r = X @ theta.matrix() + theta.b
    count = np.count_nonzero(1.0 - data.labels * reference_h(theta, X) > 0.0)
    return float(0.5 * np.sum(r * r) + lam * count)


def dataset_hash(h, data):
    h.update(np.ascontiguousarray(data.points).tobytes())
    h.update(np.ascontiguousarray(data.labels).tobytes())


def _int_seed(seed, *key):
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


# ---------------------------------------------------------------- operations

def checked_fit(train, test):
    """One Newton fit as a user pays for it (design, warm start, iterations),
    with the correctness gate applied to its result."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", scipy.linalg.LinAlgWarning)
        t0 = time.perf_counter()
        try:
            report = qs_newton.solve(train, SOLVER)
        except Exception as err:  # an exception is a failed fit, not a crash
            return OpResult(time.perf_counter() - t0, False, error=repr(err), status="raised")
        latency = time.perf_counter() - t0
    n_warn = sum(issubclass(w.category, scipy.linalg.LinAlgWarning) for w in caught)

    theta = report.final.theta
    ok = certified(report)

    pred = qs_model.predict_many(theta, test.points)
    ref, decisive = reference_labels(theta, test.points)
    wrong = None
    if not np.array_equal(pred[decisive], ref[decisive]):
        wrong = "predict_many disagrees with the reference h(x) on the test set"
    acc = 100.0 * float(np.mean(pred == test.labels))
    return OpResult(latency, ok, status=report.status.value, wrong=wrong, warnings=n_warn,
                    acc_pct=acc, train_loss=reference_train_loss(theta, train, SOLVER.lam),
                    theta=theta)


def certified(report):
    """A fit succeeds when it converged and its certificate passed."""
    cert = report.certificate
    return bool(report.status is qs_newton.SolveStatus.CONVERGED and cert is not None
                and cert.passed and np.all(np.isfinite(report.final.theta.to_vector())))


def _fit_op(pool):
    def run_op(i):
        return checked_fit(*pool[i])
    return run_op


# ---------------------------------------------------------------- workloads
#
# Pool sizes and pass counts are fixed per workload, so every run of a
# workload times the same number of operations whatever their speed.  They
# are sized so the timed passes take about 45 s on one core of a contended
# 2-core x86-64 host (OpenBLAS, one thread), less when it runs uncontended.
# Many short passes spread each pool entry's repetitions over the whole
# run, so every entry has one in a stretch in which the host ran
# uncontended (see run.Tally).

IRIS_TRIALS = 128       # re-split trials per pass
IRIS_PASSES = 60
IRIS_CHECK_TRIALS = 16  # trials replayed through run_bench after the loop


def setup_iris(seed):
    """The paper's protocol: iris versicolor vs virginica, z-scored, 80/20 splits."""
    data = qs_bench.load_csv(IRIS_CSV, class_pair=(1, 2))
    h = hashlib.sha256()
    pool = []
    for t in range(IRIS_TRIALS):
        # same per-trial stream as run_bench, so the two can be compared
        trial_seed = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        train, test = qs_bench.split(data, 0.8, trial_seed)
        shift, scale = qs_bench.fit_normalizer(train.points, qs_bench.Normalize.ZSCORE)
        train = qs_bench.apply_normalizer(train, shift, scale)
        test = qs_bench.apply_normalizer(test, shift, scale)
        dataset_hash(h, train)
        dataset_hash(h, test)
        pool.append((train, test))

    def run_op(i):
        res = checked_fit(*pool[i])
        t0 = time.perf_counter()
        qs_baseline.ls_qssvm_fit(pool[i][0])  # the protocol fits the baseline too
        res.busy_s = res.latency_s + time.perf_counter() - t0
        return res

    return Prepared("iris-trials", len(pool), IRIS_PASSES, run_op, h.hexdigest(), "fit",
                    extra={"data": data})


def check_iris_against_run_bench(prep, seed, first_pass):
    """Replay the first trials through run_bench; its Newton accuracy must match.

    run_bench leaves singular-system trials out of its mean and stops at a
    fit that raises, so the loop's trials are compared under the same rule,
    and not at all when one of them raised (that fit already counts as
    failed)."""
    trials = first_pass[:IRIS_CHECK_TRIALS]
    if any(r.status == "raised" for r in trials):
        return None
    protocol = qs_bench.BenchProtocol(train_rate=0.8, trials=len(trials), seed=seed,
                                      normalize=qs_bench.Normalize.ZSCORE)
    rows = qs_bench.run_bench(prep.extra["data"], protocol, SOLVER, methods=("newton_l01",))
    kept = [r.acc_pct for r in trials if r.status != "singular_system"]
    ours = float(np.mean(kept)) if kept else float("nan")
    theirs = rows[0]["acc_mean"]
    if not np.isclose(ours, theirs, rtol=0.0, atol=1e-9, equal_nan=True):
        return f"run_bench newton acc_mean {theirs} differs from the loop's {ours}"
    return None


# Samples per class, in pool order.  Fit times vary a lot between draws
# (6 to 16 Newton steps; a few draws take several times the median), so
# the pool holds many draws and its total varies little from seed to seed.
# Larger sets (n = 4000-6000) leave room for too few draws and repetitions
# in a run to be steady.  Even so, about 3% of draws fail to converge and a
# few take up to 2 s and 30 MB more than the rest, and how many of them a
# pool holds varies with the seed; so this workload is not in
# BENCHMARK.json.
NOISY_SIZES = (1000, 1250, 1500) * 16
NOISY_PASSES = 11


def setup_noisy(seed):
    """Circular classes with noise 0.3 pushed back to the margin: hundreds of
    active margins, so the augmented saddle solves are the largest cost of a
    fit."""
    h = hashlib.sha256()
    pool = []
    for k, npc in enumerate(NOISY_SIZES):
        spec = qs_datagen.GenSpec(kind="circular", n_per_class=npc,
                                  seed=_int_seed(seed, k), noise=0.3)
        data = qs_datagen.generate(spec)
        test = qs_datagen.generate(qs_datagen.GenSpec(
            kind="circular", n_per_class=500, seed=_int_seed(seed, k, 1), noise=0.3))
        dataset_hash(h, data)
        dataset_hash(h, test)
        pool.append((data, test))
    return Prepared("noisy-2d-large", len(pool), NOISY_PASSES, _fit_op(pool), h.hexdigest(),
                    "fit")


SERVE_ROWS = 1 << 14     # query rows the requests are drawn from
ROW_REQUESTS = 4096      # 1-row requests per pass
ROW_PASSES = 170


def setup_predict_row(seed):
    """1-row `predict` requests to an m = 2 surface fitted in set-up on
    circular classes with noise 0.3.

    A set-up fit that is not converged and certified still serves, and the
    run counts it as failed.  Query rows close enough to h = 0 that rounding
    could flip their label are left out.
    """
    h = hashlib.sha256()
    train = qs_datagen.generate(qs_datagen.GenSpec(kind="circular", n_per_class=1000,
                                                   seed=_int_seed(seed, 0), noise=0.3))
    queries = qs_datagen.generate(qs_datagen.GenSpec(
        kind="circular", n_per_class=SERVE_ROWS // 2, seed=_int_seed(seed, 1), noise=0.3))
    dataset_hash(h, train)
    dataset_hash(h, queries)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        report = qs_newton.solve(train, SOLVER)
    failures = []
    if not certified(report):
        failures.append(f"set-up fit of the served surface: status {report.status.value}, "
                        f"certificate {report.certificate and report.certificate.passed}")
    theta = report.final.theta
    ref, decisive = reference_labels(theta, queries.points)
    X, ref, truth = queries.points[decisive], ref[decisive], queries.labels[decisive]
    row_of = np.random.default_rng(_int_seed(seed, 3)).integers(0, X.shape[0], ROW_REQUESTS)
    h.update(row_of.tobytes())
    row_of = row_of.tolist()

    def run_op(i):
        r = row_of[i]
        t0 = time.perf_counter()
        out = qs_model.predict(theta, X[r])
        latency = time.perf_counter() - t0
        good = out == ref[r]
        wrong = None if good else f"request {i}: prediction disagrees with the reference h(x)"
        return OpResult(latency, bool(good), wrong=wrong, rows=1,
                        acc_pct=100.0 * (out == truth[r]))

    return Prepared("predict-row", ROW_REQUESTS, ROW_PASSES, run_op, h.hexdigest(), "request",
                    setup_fits=1, setup_failures=failures)


SETUPS = {
    "iris-trials": setup_iris,
    "noisy-2d-large": setup_noisy,
    "predict-row": setup_predict_row,
}


def warm_up():
    """Run every library layer once on small fixed inputs before any timing.

    First calls pay one-off costs (lazy scipy.linalg lookups, numpy dispatch
    caches); doing them here keeps those costs out of the first measured
    operation and gives every workload's trace the same set of layers.
    """
    data = qs_bench.load_csv(IRIS_CSV, class_pair=(1, 2))
    train, test = qs_bench.split(data, 0.8, 0)
    shift, scale = qs_bench.fit_normalizer(train.points, qs_bench.Normalize.ZSCORE)
    checked_fit(qs_bench.apply_normalizer(train, shift, scale),
                qs_bench.apply_normalizer(test, shift, scale))
    circ = qs_datagen.generate(qs_datagen.GenSpec(kind="circular", n_per_class=100,
                                                  seed=0, noise=0.3))
    qs_model.predict(checked_fit(circ, circ).theta, circ.points[0])
