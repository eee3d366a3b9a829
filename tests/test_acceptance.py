"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The synthetic-suite criteria share solver runs through module
fixtures to keep the wall time small.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from quadsurf import (BenchProtocol, Dataset, GenSpec, ProxParams, SolveStatus,
                      SolverConfig, SurfaceParams, accuracy, alpha_bounds, build_design,
                      generate, load_csv, margins, prox_vector,
                      pstationary_check, rate_probe, residual, run_bench, smooth_gradient,
                      smooth_value, solve, warm_start_point)
from quadsurf.stationarity import saddle_matrix

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
KINDS = ("linear", "circular", "convex2d")
SEEDS = (0, 1, 2, 3, 4)

# configuration of the quadratic-rate runs: moderate-precision warm start
# (no terminal polish) so the iteration traverses a visible contraction tail
RATE_CONFIG = SolverConfig(alpha=4e-6, rho=3.0, eps=1e-10, max_iter=20)


def report(num, name, ok):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def default_runs():
    runs = {}
    for kind in KINDS:
        for seed in SEEDS:
            data = generate(GenSpec(kind=kind, n_per_class=50, seed=seed))
            solve(data, SolverConfig())  # warm BLAS path
            rep = solve(data, SolverConfig())
            runs[(kind, seed)] = (data, rep)
    return runs


@pytest.fixture(scope="module")
def rate_runs():
    runs = {}
    for kind in KINDS:
        for seed in SEEDS:
            data = generate(GenSpec(kind=kind, n_per_class=50, seed=seed))
            cache = build_design(data)
            start = warm_start_point(cache, alpha=RATE_CONFIG.alpha, lam=RATE_CONFIG.lam,
                                     polish=False)
            rep = solve(data, RATE_CONFIG, start=start)
            runs[(kind, seed)] = (data, rep)
    return runs


def test_criterion_1_prox_oracle():
    """10^4 random (z, alpha, lam) triples against the grid-search oracle."""
    rng = np.random.default_rng(12345)
    grid_offsets = np.arange(-3.0, 3.0 + 1e-4, 1e-4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.01, 10.0)
        lam = rng.uniform(0.01, 10.0)
        p = ProxParams(alpha=alpha, lam=lam)
        zs = rng.uniform(-5.0, 5.0, size=100)
        out = prox_vector(zs, p)
        # the grid is z + offsets, so its quadratic term is the same for every z
        quad = grid_offsets ** 2 / (2.0 * alpha)
        charged = quad + lam
        for z, u in zip(zs, out):
            vals = np.where(z + grid_offsets > 0, charged, quad)
            oracle = min(vals.min(),
                         lam * (0.0 > 0) + z * z / (2.0 * alpha),
                         lam * (z > 0))
            achieved = lam * (u > 0) + (u - z) ** 2 / (2.0 * alpha)
            worst = max(worst, achieved - oracle)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report(1, f"prox oracle equivalence (gap {worst:.1e}, {elapsed:.1f}s)", ok)


def test_criterion_2_derivatives():
    """Gradient and Hessian against central finite differences, 100 pairs."""
    rng = np.random.default_rng(99)
    h = 1e-5
    worst_g, worst_H = 0.0, 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        pts = rng.normal(size=(n, m))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        data = Dataset(points=pts, labels=labels)
        cache = build_design(data)
        theta0 = rng.normal(size=cache.d)

        def f(v):
            return smooth_value(SurfaceParams.from_vector(v, m), cache)

        def grad(v):
            return smooth_gradient(SurfaceParams.from_vector(v, m), cache)

        g = grad(theta0)
        g_fd = np.array([(f(theta0 + h * e) - f(theta0 - h * e)) / (2 * h)
                         for e in np.eye(cache.d)])
        worst_g = max(worst_g, np.abs(g - g_fd).max() / max(1.0, np.abs(g).max()))

        H_fd = np.column_stack([(grad(theta0 + h * e) - grad(theta0 - h * e)) / (2 * h)
                                for e in np.eye(cache.d)])
        worst_H = max(worst_H, np.abs(H_fd - cache.G).max() / max(1.0, np.abs(cache.G).max()))
    ok = worst_g < 1e-6 and worst_H < 1e-6
    assert report(2, f"derivative correctness (grad {worst_g:.1e}, hess {worst_H:.1e})", ok)


def test_criterion_3_synthetic_reproduction(default_runs):
    """Defaults on all three synthetic families: converged, 100%, fast."""
    failures = []
    for (kind, seed), (data, rep) in default_runs.items():
        acc = accuracy(rep.final.theta, data)
        good = (rep.status is SolveStatus.CONVERGED
                and acc == 1.0
                and rep.final.residual.norm < 1e-8
                and rep.wall_time < 0.1)
        if not good:
            failures.append((kind, seed, rep.status.value, acc,
                             rep.final.residual.norm, rep.wall_time))
    ok = not failures
    assert report(3, f"synthetic reproduction 15/15 ({failures or 'all converged'})", ok)


def test_criterion_4_quadratic_rate(rate_runs):
    """Rate probe on every synthetic run: quadratic tail below 1e-10 in 20 steps."""
    failures = []
    for (kind, seed), (data, rep) in rate_runs.items():
        probe = rate_probe(rep.residual_trace)
        good = (rep.status is SolveStatus.CONVERGED
                and min(rep.residual_trace) < 1e-10
                and rep.final.iter <= 20
                and probe.quadratic)
        if not good:
            failures.append((kind, seed, rep.status.value, probe))
    ok = not failures
    assert report(4, f"quadratic rate 15/15 ({failures or 'all quadratic'})", ok)


def test_criterion_5_certificate_soundness(default_runs, rate_runs):
    """Every converged output certifies at 1e-6 with alpha_star above alpha."""
    checked, failures = 0, []
    for runs, cfg in ((default_runs, SolverConfig()), (rate_runs, RATE_CONFIG)):
        for (kind, seed), (data, rep) in runs.items():
            if rep.status is not SolveStatus.CONVERGED:
                continue
            checked += 1
            cache = build_design(data)
            cert = pstationary_check(rep.final.theta, rep.final.z, cfg.alpha, cfg.lam,
                                     cache, tol=1e-6)
            if not (cert.passed and cert.alpha_star > cfg.alpha):
                failures.append((kind, seed, cert.passed, cert.alpha_star))
    ok = checked >= 15 and not failures
    assert report(5, f"certificate soundness on {checked} converged runs "
                     f"({failures or 'all certified'})", ok)


def test_criterion_6_residual_equivalence():
    """100 constructed stationary pairs: zero residual, passing certificate,
    and any single off-set dual perturbation lifts the residual by 0.1."""
    rng = np.random.default_rng(777)
    made, tries = 0, 0
    ok = True
    while made < 100 and tries < 5000:
        tries += 1
        n, m = 8, 2
        pts = rng.normal(size=(n, m))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        data = Dataset(points=pts, labels=labels)
        cache = build_design(data)
        k = int(rng.integers(1, 4))
        T = np.sort(rng.choice(n, size=k, replace=False))
        K = saddle_matrix(T, cache, 0.0)
        rhs = np.concatenate([np.zeros(cache.d), -np.ones(k)])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        theta = SurfaceParams.from_vector(sol[:cache.d], m)
        zeta = sol[cache.d:]
        if np.any(zeta <= 1e-8):
            continue
        F = margins(theta, cache)
        if np.any(np.abs(np.delete(F, T)) < 1e-6):
            continue
        z = np.zeros(n)
        z[T] = zeta
        lam = 1.0
        _, _, astar = alpha_bounds(F, z, lam, atol=1e-9)
        alpha = 0.5 * min(astar, 1.0)
        res = residual(theta, z, alpha, lam, cache)
        if sorted(res.sets.working.tolist()) != sorted(T.tolist()):
            continue
        made += 1

        cert = pstationary_check(theta, z, alpha, lam, cache, tol=1e-8)
        ok &= res.norm < 1e-10 and cert.passed
        for j in np.setdiff1d(np.arange(n), T):
            z2 = z.copy()
            z2[j] += 0.1
            res2 = residual(theta, z2, alpha, lam, cache)
            ok &= res2.norm - res.norm >= 0.1 - 1e-9
        if not ok:
            break
    ok = ok and made == 100
    assert report(6, f"residual/P-stationarity equivalence ({made} pairs)", ok)


def test_criterion_7_benchmark_band():
    """Two-class iris at 80% over 50 trials: both methods inside [85, 100]."""
    data = load_csv(DATA_DIR / "iris.csv", class_pair=(1, 2))
    protocol = BenchProtocol(train_rate=0.8, trials=50, seed=0, normalize="zscore")
    config = SolverConfig(lam=100.0)
    t0 = time.perf_counter()
    rows = run_bench(data, protocol, config)
    elapsed = time.perf_counter() - t0
    by = {r["method"]: r for r in rows}
    rerun = {r["method"]: r for r in run_bench(data, protocol, config)}
    deterministic = all(by[m]["acc_mean"] == rerun[m]["acc_mean"]
                        and by[m]["acc_var"] == rerun[m]["acc_var"] for m in by)
    newton, ls = by["newton_l01"], by["ls_qssvm"]
    ok = (85.0 <= newton["acc_mean"] <= 100.0
          and 85.0 <= ls["acc_mean"] <= 100.0
          and elapsed < 60.0
          and deterministic)
    assert report(7, f"benchmark band (newton {newton['acc_mean']:.2f}, "
                     f"ls {ls['acc_mean']:.2f}, {elapsed:.1f}s, "
                     f"deterministic={deterministic})", ok)


def test_criterion_8_degenerate_inputs():
    """One-label data, duplicated working-set points, alpha*lam over 8 decades."""
    rng = np.random.default_rng(5)
    defined = set(SolveStatus)
    ok = True

    one_label = Dataset(points=rng.normal(size=(20, 2)), labels=np.ones(20))
    pts = rng.normal(size=(10, 2))
    pts[5:] = pts[:5]
    duplicated = Dataset(points=np.vstack([pts, pts]),
                         labels=np.concatenate([np.ones(10), np.ones(5), -np.ones(5)]))
    circular = generate(GenSpec(kind="circular", n_per_class=25, seed=1))

    for data in (one_label, duplicated, circular):
        for al_product in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            cfg = SolverConfig(lam=10.0, alpha=al_product / 10.0, max_iter=50)
            rep = solve(data, cfg)
            finite = (np.all(np.isfinite(rep.final.theta.to_vector()))
                      and np.all(np.isfinite(rep.final.z))
                      and np.isfinite(rep.final.residual.norm))
            ok &= rep.status in defined and finite
    assert report(8, "degenerate-input handling (defined statuses, finite outputs)", ok)
