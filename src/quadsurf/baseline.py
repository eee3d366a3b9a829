"""Closed-form least-squares quadratic surface fit, used as warm start and comparator.

Minimizes ``sum_i ||W x_i + b||^2 + (C/2) sum_i (h(x_i) - y_i)^2 + ridge ||theta||^2``,
the equality-constrained least-squares surface model with its residual
variables eliminated.  The objective is an unconstrained convex quadratic,
so the fit is a single symmetric positive-definite solve.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from .model import (Dataset, DesignCache, SurfaceParams, build_design, predict_many)
from .stationarity import solve_symmetric


@dataclass(frozen=True)
class LsqConfig:
    c_penalty: float = 1.0
    ridge: float = 1e-10

    def __post_init__(self):
        if not self.c_penalty > 0:
            raise ValueError(f"c_penalty must be positive, got {self.c_penalty}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be nonnegative, got {self.ridge}")


def _lsq_system(data: Dataset, cfg: LsqConfig, cache: DesignCache):
    # h(x_i) = q_i . theta with q_i = -a_i / y_i = (s(x_i); x_i; 1)
    Q = cache.a / (-data.labels[:, None])
    H = 2.0 * cache.G + cfg.c_penalty * (Q.T @ Q) + 2.0 * cfg.ridge * np.eye(cache.d)
    rhs = cfg.c_penalty * (Q.T @ data.labels)
    return H, rhs, Q


def ls_qssvm_fit(data: Dataset, cfg: LsqConfig = LsqConfig(),
                 cache: DesignCache = None) -> SurfaceParams:
    """Exact minimizer of the regularized least-squares surface objective.

    A singular normal matrix (possible only with ridge = 0 on degenerate
    data) is retried once with ridge = 1e-8.
    """
    if cache is None:
        cache = build_design(data)
    H, rhs, _ = _lsq_system(data, cfg, cache)
    try:
        theta = solve_symmetric(H, rhs, positive_definite=True)
    except LinAlgError:
        H = H + 1e-8 * np.eye(cache.d)
        theta = solve_symmetric(H, rhs, positive_definite=True)
    return SurfaceParams.from_vector(theta, cache.m)


def lsq_objective_gradient(theta: SurfaceParams, data: Dataset, cfg: LsqConfig,
                           cache: DesignCache = None) -> np.ndarray:
    """Gradient of the least-squares objective, for optimality verification."""
    if cache is None:
        cache = build_design(data)
    H, rhs, _ = _lsq_system(data, cfg, cache)
    return H @ theta.to_vector() - rhs


def accuracy(theta: SurfaceParams, data: Dataset) -> float:
    """Fraction of samples labeled correctly by the surface sign."""
    return float(np.mean(predict_many(theta, data.points) == data.labels))


def _hinge_sq_value(th, A, G, mu):
    F = 1.0 + A @ th
    Fp = np.maximum(F, 0.0)
    return 0.5 * th @ (G @ th) + 0.5 * mu * (Fp @ Fp)


def _hinge_sq_minimize(th, A, G, mu, passes=80):
    """Newton with Armijo backtracking on the squared-hinge surface objective.

    The objective 0.5 th'G th + (mu/2) ||max(F, 0)||^2 is convex and C^1 with
    piecewise-linear gradient, so damped Newton converges globally and the
    active set settles in finitely many passes.
    """
    ridge = 1e-9 * (1.0 + mu) * np.eye(G.shape[0])
    val = _hinge_sq_value(th, A, G, mu)
    for _ in range(passes):
        F = 1.0 + A @ th
        act = F > 0.0
        Aact = A[act]
        g = G @ th + mu * (Aact.T @ F[act])
        gnorm = np.linalg.norm(g)
        if gnorm <= 1e-12 * (1.0 + mu):
            break
        H = G + mu * (Aact.T @ Aact) + ridge
        step = solve_symmetric(H, -g, positive_definite=True)
        slope = g @ step  # negative by construction
        t = 1.0
        while True:
            th_new = th + t * step
            new_val = _hinge_sq_value(th_new, A, G, mu)
            # past the last trial step (2**-30) the step 2**-31 is taken as is
            if new_val <= val + 1e-4 * t * slope or t < 2.0**-30:
                break
            t *= 0.5
        th = th_new
        if val - new_val <= 1e-14 * (1.0 + abs(val)):
            val = new_val
            break
        val = new_val
    return th


def warm_start_point(data: Dataset, cache: DesignCache, lam: float, alpha: float,
                     c_penalty: float = 100.0, mu0: float = 1e2, mu_max: float = 1e8,
                     polish: bool = True):
    """Initial (theta0, z0) for the Newton solver.

    Pipeline: least-squares surface fit, rescaled to unit minimum margin when
    separating, then a squared-hinge continuation with the penalty escalated
    until margin violations fit inside the working band (0, sqrt(2*alpha*lam))
    or stop shrinking.  When the continuation reaches band precision and
    `polish` is set, the identified active set is refined to an exact
    stationary pair by saddle solves.  Otherwise the handed-off duals are the
    penalty gradients mu * max(F, 0), which satisfy the gradient balance at
    theta0 exactly; entries that would land outside the working band are
    zeroed since the first iteration prices them out anyway.
    """
    A, G = cache.a, cache.G
    th = ls_qssvm_fit(data, LsqConfig(c_penalty=c_penalty), cache=cache).to_vector()
    yh = 1.0 - (1.0 + A @ th)  # y_i h(x_i) = 1 - F_i
    if yh.min() > 1e-6:
        th = th / yh.min()

    tau = np.sqrt(2.0 * alpha * lam)
    mu = mu0
    fmax_prev = None
    while True:
        th = _hinge_sq_minimize(th, A, G, mu)
        F = 1.0 + A @ th
        fmax = float(np.maximum(F, 0.0).max())
        if fmax <= tau / 4.0 or mu >= mu_max:
            break
        if fmax_prev is not None and fmax > 0.9 * fmax_prev:
            break  # escalation stopped shrinking violations (non-separable data)
        fmax_prev = fmax
        mu *= 100.0

    if polish:
        active0 = np.flatnonzero((F > 0.0) & (F < tau))
        polished = _active_set_polish(th, active0, A, G, cache.m, tau, alpha)
        if polished is not None:
            return polished

    z0 = mu * np.maximum(F, 0.0)
    z0[F + alpha * z0 >= tau] = 0.0
    return SurfaceParams.from_vector(th, cache.m), z0


def _active_set_polish(th, act, A, G, m, tau, alpha, passes=40):
    """Exact saddle refinements on the identified active set.

    Solves min_th f subject to zero margins on `act`, dropping indices whose
    multiplier leaves [0, tau/alpha) and activating margins that land inside
    the collapse band (0, tau), until the pair is consistent.  Margins at or
    beyond tau stay inactive: they are priced by the count penalty, which is
    what makes the soft (non-separable) case work.  Returns (theta0, z0) or
    None when no consistent set is found within the pass budget.
    """
    n, d = A.shape
    act = np.asarray(act, dtype=int)
    cap = tau / alpha
    for _ in range(passes):
        if act.size == 0 or act.size > d:
            return None
        Aact = A[act]
        K = np.block([[G, Aact.T], [Aact, np.zeros((act.size, act.size))]])
        rhs = np.concatenate([np.zeros(d), -np.ones(act.size)])
        try:
            sol = solve_symmetric(K, rhs)
        except LinAlgError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        cand, zeta = sol[:d], sol[d:]
        keep = (zeta > 0.0) & (zeta < 0.98 * cap)
        if not np.all(keep):
            act = act[keep]
            continue
        F = 1.0 + A @ cand
        F[act] = 0.0  # exact by construction
        in_band = (F > 1e-10) & (F < tau * (1.0 - 1e-9))
        if np.any(in_band):
            depth = np.where(in_band, np.minimum(F, tau - F), -np.inf)
            act = np.union1d(act, [int(np.argmax(depth))])
            continue
        z0 = np.zeros(n)
        z0[act] = zeta
        return SurfaceParams.from_vector(cand, m), z0
    return None


METHODS = ("newton_l01", "ls_qssvm")


def _fit_method(method: str, train: Dataset, solver_config=None):
    if method == "ls_qssvm":
        return ls_qssvm_fit(train), None
    if method == "newton_l01":
        from .newton import SolverConfig, solve
        report = solve(train, solver_config or SolverConfig())
        return report.final.theta, report
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def compare(data_train: Dataset, data_test: Dataset, methods=METHODS,
            trials: int = 1, seed: int = 0, solver_config=None) -> list:
    """Fit each method `trials` times and tabulate test accuracy and wall time.

    Both methods are deterministic given the split, so accuracy statistics
    are reproducible bit for bit; timing varies.  Trials that end with a
    singular system are excluded from the statistics and counted in the
    `failures` column.
    """
    if data_train.n == 0 or data_test.n == 0:
        raise ValueError("empty train or test split")
    from .newton import SolveStatus
    rows = []
    for method in methods:
        accs, times, failures = [], [], 0
        for _ in range(trials):
            t0 = time.perf_counter()
            theta, report = _fit_method(method, data_train, solver_config)
            dt = time.perf_counter() - t0
            if report is not None and report.status is SolveStatus.SINGULAR_SYSTEM:
                failures += 1
                continue
            accs.append(100.0 * accuracy(theta, data_test))
            times.append(dt)
        rows.append(_stats_row(method, accs, times, failures, trials, seed))
    return rows


def _stats_row(method: str, accs, times, failures: int, trials: int, seed: int) -> dict:
    accs = np.asarray(accs, dtype=np.float64)
    return {
        "method": method,
        "trials": trials,
        "seed": seed,
        "acc_min": float(accs.min()) if accs.size else float("nan"),
        "acc_max": float(accs.max()) if accs.size else float("nan"),
        "acc_mean": float(accs.mean()) if accs.size else float("nan"),
        "acc_var": float(accs.var()) if accs.size else float("nan"),
        "mean_time_s": float(np.mean(times)) if times else float("nan"),
        "failures": failures,
    }
