"""quadsurf benchmark: certified fits/s and predict throughput, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Workloads: iris-trials and predict-row, the two in
BENCHMARK.json, and noisy-2d-large, which runs but is left out of
BENCHMARK.json because the solver's failing draws make its timings and
memory vary too much from seed to seed (see workloads.py).

--trace 0 measures the end-to-end metrics with tracing off: it times a
fixed number of passes over the workload's operation pool, and checks every
operation it runs until --seconds have passed.  --trace 1 traces set-up and
one pass over the pool and reports per-layer self times and counts, plus the
tracing overhead measured over --seconds of operations run untraced and
traced in pairs.  Any seed may be
given, including one never used before.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines above it, and a file under .perfbench-out/, give the details
(sample counts, percentiles, environment).
"""

import os

# One BLAS thread, fixed before numpy loads: on a small shared machine the
# default thread count makes fit times depend on the neighbours' load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("iris-trials", "noisy-2d-large", "predict-row")
# Fresh-process set-ups per run: one before the loop and the rest at even
# intervals within it, so their median follows the host's load over the
# whole run rather than over the few seconds of one burst of set-ups.
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 30
# A loop ends at --seconds once its passes are done, and at this limit even
# if they are not, so a run of slow fits still exits in time.
LOOP_LIMIT_S = 58.0


def import_library():
    """Import quadsurf from this checkout's src/, never from an installed copy."""
    if not (SRC / "quadsurf" / "__init__.py").is_file():
        sys.exit(f"error: no quadsurf sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import quadsurf
    if Path(quadsurf.__file__).resolve().parent != (SRC / "quadsurf").resolve():
        sys.exit(f"error: imported quadsurf from {quadsurf.__file__}, not {SRC}")


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


TAIL_PCT = 90.0


def tail(values):
    """(value, percentile, samples beyond it) at TAIL_PCT.

    The values are one per pool entry, so the rank is set by the pool size.
    The fit workloads' pools are too small to leave ten entries beyond a
    higher percentile.
    """
    s = sorted(values)
    k = math.ceil(TAIL_PCT / 100.0 * len(s)) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def timed_setup(workload, seed):
    """Wall time of one fresh-process set-up (interpreter start, import,
    inputs) and the input hash it reports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"error: set-up child failed:\n{proc.stderr}")
    return elapsed, proc.stdout.strip().splitlines()[-1]


class Tally:
    """What the operations of a run returned, in a few bytes per operation.

    The timings come from the first `passes` passes over the pool, a number
    fixed per workload, so a run of faster code is summarised from as many
    samples as one of slower code.  Each pool entry is summarised by its
    fastest repetition in those passes.  On a shared 2-core host the same
    code mostly runs about twice as slow as it can, and at full speed only
    in bursts of a few seconds, with CPU time per call rising as much as
    wall time: the core is contended, not taken away.  The fastest
    repetition is what a run measures reproducibly once its timed passes
    span long enough to hold such a burst: over 15 minutes of iris-trials
    operations, 25 s windows missed one a quarter of the time and read
    1.6-2.1 times slower, 45 s windows never did.  The median or the mean
    of the repetitions measures the share of contended time instead.  A
    slowdown that shows in only some repetitions (a collector pause, say)
    is not seen.  Operations after the timed passes are checked and counted
    but not timed.
    """

    def __init__(self, pool_size, passes):
        self.pool_size = pool_size
        self.passes = passes
        self.first_pass = []
        self.timed = 0
        self.best_latency_s = [math.inf] * pool_size
        self.best_busy_s = [math.inf] * pool_size
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        self.warnings = 0
        self.wrong = set()
        self.errors = set()

    def add(self, entry, res):
        """Record the result of the operation on pool entry `entry`."""
        if len(self.first_pass) < self.pool_size:
            self.first_pass.append(res)
        if not self.timed_done:
            self.timed += 1
            self.best_latency_s[entry] = min(self.best_latency_s[entry], res.latency_s)
            self.best_busy_s[entry] = min(self.best_busy_s[entry], res.busy_s)
        self.attempted += 1
        self.failed += not res.ok
        self.rows += res.rows
        self.warnings += res.warnings
        if res.wrong:
            self.wrong.add(res.wrong)
        if res.error:
            self.errors.add(res.error)

    @property
    def timed_done(self):
        return self.timed == self.pool_size * self.passes

    def entry_best(self, best):
        """Per pool entry that was timed, its fastest repetition."""
        return [b for b in best if b < math.inf]

    @property
    def ops_per_s(self):
        """Pool entries over the sum of their best busy times: the rate of
        one uncontended pass."""
        busy = self.entry_best(self.best_busy_s)
        return len(busy) / math.fsum(busy)


class Loop:
    """Closed loop over a prepared workload: runs operations back to back until
    the timed passes are done and `seconds` have passed, or until
    LOOP_LIMIT_S.  `pause` is called `pauses` times, at even intervals of
    `seconds`, between two operations."""

    def __init__(self, prep):
        self.prep = prep
        self.tally = Tally(prep.pool_size, prep.passes)
        self.wall_s = self.timed_wall_s = math.nan

    def run(self, seconds, pauses=0, pause=None):
        prep, tally = self.prep, self.tally
        t_start = time.perf_counter()
        deadline, limit = t_start + seconds, t_start + LOOP_LIMIT_S
        marks = [t_start + seconds * k / (pauses + 1) for k in range(pauses, 0, -1)]
        i = 0
        while (not tally.timed_done or time.perf_counter() < deadline) \
                and time.perf_counter() < limit:
            tally.add(i % prep.pool_size, prep.run_op(i % prep.pool_size))
            i += 1
            if i == prep.pool_size * prep.passes:
                self.timed_wall_s = time.perf_counter() - t_start
            if marks and time.perf_counter() >= marks[-1]:
                marks.pop()
                pause()
        self.wall_s = time.perf_counter() - t_start
        return self


def quality(prep, first_pass):
    """Accuracy (%) over the first pass, row-weighted for prediction requests."""
    if prep.unit == "request":
        rows = sum(r.rows for r in first_pass)
        return sum(r.acc_pct * r.rows for r in first_pass) / rows, None
    # a fit that raised has no surface, so it classifies nothing correctly
    accs = [r.acc_pct if r.acc_pct is not None else 0.0 for r in first_pass]
    losses = [r.train_loss for r in first_pass if r.train_loss is not None]
    return statistics.fmean(accs), (statistics.fmean(losses) if losses else math.nan)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workloads, log):
    """--trace 0: end-to-end metrics with tracing off."""
    setups = [timed_setup(args.workload, args.seed)]
    workloads.warm_up()
    prep = workloads.SETUPS[args.workload](args.seed)
    if args.smoke:
        prep = dataclasses.replace(prep, passes=1)
    prep.run_op(0)  # first-operation costs stay out of the timed loop

    loop = Loop(prep).run(args.seconds, 0 if args.smoke else SETUP_REPEATS - 1,
                          lambda: setups.append(timed_setup(args.workload, args.seed)))
    setup_times, hashes = [t for t, _ in setups], [h for _, h in setups]
    wrong = []
    if any(h != prep.input_hash for h in hashes):
        wrong.append(f"set-ups from seed {args.seed} gave different inputs: "
                     f"{sorted(set(hashes + [prep.input_hash]))}")
    tally = loop.tally
    wrong += sorted(tally.wrong)
    if args.workload == "iris-trials":
        problem = workloads.check_iris_against_run_bench(prep, args.seed, tally.first_pass)
        if problem:
            wrong.append(problem)
    acc, loss = quality(prep, tally.first_pass)
    best = tally.entry_best(tally.best_latency_s)
    p50_s = statistics.median(best)
    tail_s, tail_pct, beyond = tail(best)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = tally.attempted + prep.setup_fits
    failed = tally.failed + len(prep.setup_failures)

    log(f"input sha256 {prep.input_hash} (identical in {len(hashes)} fresh set-ups: "
        f"{all(h == prep.input_hash for h in hashes)})")
    log(f"setup_s {statistics.median(setup_times):.4f} s = median of "
        f"{[round(t, 4) for t in setup_times]} (fresh process: import, inputs, fits; "
        f"the first before the loop, the rest within it)")
    for problem in prep.setup_failures:
        log(f"FAILED: {problem}")
    n, pool, timed = tally.attempted, prep.pool_size, tally.timed
    log(f"ops: {attempted} attempted ({prep.setup_fits} set-up fits, {n} {prep.unit}s), "
        f"{failed} failed, failed_frac {failed / attempted:.6f}; loop {loop.wall_s:.3f} s, "
        f"{n / (loop.wall_s - math.fsum(setup_times[1:])):.4f} {prep.unit}s/s wall-clock "
        f"average over the loop less its set-ups")
    log(f"timed: the first {prep.passes} passes over a pool of {pool} {prep.unit}s "
        f"({timed} samples, {loop.timed_wall_s:.3f} s with set-ups); each entry's fastest "
        f"repetition")
    if not tally.timed_done:
        log(f"the timed passes stopped after {LOOP_LIMIT_S} s with {timed} of "
            f"{pool * prep.passes} {prep.unit}s run")
    if prep.unit == "fit":
        log(f"fits_per_s {tally.ops_per_s:.4f} 1/s; fit_s_p50 {p50_s:.6f} s; "
            f"fit_s_tail {tail_s:.6f} s at p{tail_pct:.2f} of {len(best)} fits "
            f"({beyond} beyond)")
        log(f"test_acc_mean {acc:.4f} %; train_loss_mean {loss:.6g} (first pass); "
            f"linalg warnings {tally.warnings}; exceptions {sorted(tally.errors)[:3]}")
    else:
        log(f"requests_per_s {tally.ops_per_s:.2f} 1/s; predict_rows_per_s "
            f"{tally.ops_per_s * tally.rows / n:.1f} rows/s; served accuracy {acc:.4f} %")
        log(f"predict_call_s_p50 {p50_s:.3e} s; predict_call_s_tail "
            f"{tail_s:.3e} s at p{tail_pct:.3f} of {len(best)} requests ({beyond} beyond)")
    log("wait: no module queues work, so there is no waiting time to report")
    log(f"peak_rss_mb {rss_mb:.1f} MB")
    for w in wrong:
        log(f"WRONG: {w}")

    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(tally.ops_per_s, "1/s"),
        "op_s_p50": metric(p50_s, "s"),
        "op_s_tail": metric(tail_s, "s"),
        "accuracy_pct": metric(acc, "%"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return not wrong, attempted, failed, metrics


def trace(args, workloads, log):
    """--trace 1: per-layer self times and counts from a traced run.

    The spans kept cover set-up and the first pass over the pool.  Every
    operation runs twice back to back, untraced and traced in alternating
    order, so a drift in machine speed cancels out of the tracing overhead.
    """
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    workloads.warm_up()
    prep = workloads.SETUPS[args.workload](args.seed)
    kept = [prep.run_op(0)]
    setup_wall = time.perf_counter() - t0
    tracer.uninstall()

    tally = Tally(prep.pool_size, prep.passes)
    plain_s, traced_s = [], []
    t_start = time.perf_counter()
    deadline, limit = t_start + args.seconds, t_start + LOOP_LIMIT_S
    snapshot = None

    def take_snapshot():
        tracer.save(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz")
        return (*tracer.self_times(), defaultdict(float, tracer.counts),
                setup_wall + sum(traced_s))

    i = 0
    while (i < prep.pool_size or time.perf_counter() < deadline) \
            and time.perf_counter() < limit:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                tracer.install()
            t = time.perf_counter()
            res = prep.run_op(i % prep.pool_size)
            wall = time.perf_counter() - t
            (traced_s if traced else plain_s).append(wall)
            if traced:
                tracer.uninstall()
                if i < prep.pool_size:
                    kept.append(res)
                else:
                    tracer.clear()
            tally.add(i % prep.pool_size, res)
        i += 1
        if i == prep.pool_size:
            snapshot = take_snapshot()
    if snapshot is None:  # stopped at LOOP_LIMIT_S inside the first pass
        snapshot = take_snapshot()
    self_t, top_level, c, region_s = snapshot

    wrong = sorted(tally.wrong)
    for problem in prep.setup_failures:
        log(f"FAILED: {problem}")
    overhead = 100.0 * (sum(traced_s) / sum(plain_s) - 1.0)

    def s(name):
        return self_t[name][1]

    def calls(name):
        return self_t[name][0]

    solves = max(c["solves"], 1)
    m = {
        "model.build_design_s": metric(s("model.build_design"), "s"),
        "model.design_bytes": metric(int(c["design_bytes"]), "B"),
        "model.margins_calls": metric(calls("model.margins"), "count"),
        "model.margins_s": metric(s("model.margins"), "s"),
        "model.decision_values_s": metric(s("model.decision_values"), "s"),
        "model.predict_calls": metric(calls("model.predict") + calls("model.predict_many"),
                                      "count"),
        "model.predict_rows": metric(int(c["predict_rows"]), "count"),
        "prox.prox_contains_calls": metric(calls("prox.prox_contains"), "count"),
        "prox.prox_contains_s": metric(s("prox.prox_contains"), "s"),
        "stationarity.index_sets_s": metric(s("stationarity.index_sets"), "s"),
        "stationarity.residual_s": metric(s("stationarity.residual"), "s"),
        "stationarity.pstationary_check_s": metric(s("stationarity.pstationary_check"), "s"),
        "stationarity.saddle_matrix_s": metric(s("stationarity.saddle_matrix"), "s"),
        "stationarity.saddle_dim_max": metric(int(c["saddle_dim_max"]), "count"),
        "stationarity.working_size_mean": metric(
            c["working_total"] / max(c["index_sets_calls"], 1), "count"),
        "newton.iters": metric(int(c["iters"]), "count"),
        "newton.direction_calls": metric(calls("newton.newton_direction"), "count"),
        "newton.direction_s": metric(s("newton.newton_direction"), "s"),
        "newton.direction_flops_computed": metric(c["direction_flops"], "flop"),
        "newton.solve_self_s": metric(s("newton.solve"), "s"),
        "newton.singular_count": metric(int(c["singular"]), "count"),
        "baseline.warm_start_s": metric(s("baseline.warm_start_point"), "s"),
        "baseline.warm_start_calls": metric(calls("baseline.warm_start_point"), "count"),
        "baseline.ls_fit_s": metric(s("baseline.ls_qssvm_fit"), "s"),
        "baseline.warm_start_stationary_frac": metric(c["stationary_starts"] / solves,
                                                      "ratio"),
        "baseline.linalg_warnings": metric(sum(r.warnings for r in kept), "count"),
        "datagen.generate_s": metric(s("datagen.generate"), "s"),
        "bench.load_csv_s": metric(s("bench.load_csv"), "s"),
        "bench.split_s": metric(s("bench.split"), "s"),
        "bench.normalize_s": metric(s("bench.fit_normalizer") + s("bench.apply_normalizer"),
                                    "s"),
        "trace.overhead_pct": metric(overhead, "%"),
        "trace.unattributed_s": metric(region_s - top_level, "s"),
    }

    log(f"spans kept: set-up {setup_wall:.4f} s + {len(kept) - 1} traced {prep.unit}s of the "
        f"first pass over a pool of {prep.pool_size}, {region_s - setup_wall:.4f} s")
    log(f"tracing overhead {overhead:+.2f} %: {len(traced_s)} {prep.unit}s took "
        f"{sum(traced_s):.4f} s traced and {sum(plain_s):.4f} s untraced, run in pairs")
    log("wait: no module queues work, so there is no waiting time to report")
    ranked = sorted(((v["value"], k) for k, v in m.items()
                     if v["unit"] == "s" and k.startswith(("model", "prox", "stat", "newton",
                                                           "baseline", "datagen", "bench"))),
                    reverse=True)
    log("largest self times: " + ", ".join(f"{k} {v:.4f} s" for v, k in ranked[:5]))
    for w in wrong:
        log(f"WRONG: {w}")
    return (not wrong, tally.attempted + prep.setup_fits,
            tally.failed + len(prep.setup_failures), m)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one timed pass and one set-up repetition, for the benchmark's "
                         "own tests; the figures are not comparable with a full run")
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print its input hash and exit "
                         "(used to time set-up in a fresh process)")
    args = ap.parse_args(argv)

    import_library()
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        print(workloads.SETUPS[args.workload](args.seed).input_hash)
        return 0

    lines = []

    def log(text):
        lines.append(text)
        print(text, flush=True)

    env = environment()
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    log("env " + json.dumps(env))
    run = trace if args.trace else measure
    correct, attempted, failed, metrics = run(args, workloads, log)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "log": lines, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
