"""Closed-form least-squares quadratic surface fit and the Newton warm start built on it.

Minimizes ``sum_i ||W x_i + b||^2 + (C/2) sum_i (h(x_i) - y_i)^2 + ridge ||theta||^2``,
the equality-constrained least-squares surface model with its residual
variables eliminated.  The objective is an unconstrained convex quadratic,
so the fit is a single symmetric positive-definite solve.  `warm_start_point`
refines that fit into the starting pair (theta0, z0) of the Newton solver.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from .model import (Dataset, DesignCache, SurfaceParams, build_design, predict_many)
from .stationarity import saddle_matrix, solve_symmetric


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
    return H, rhs


def ls_qssvm_fit(data: Dataset, cfg: LsqConfig = LsqConfig(),
                 cache: DesignCache = None) -> SurfaceParams:
    """Exact minimizer of the regularized least-squares surface objective.

    A singular normal matrix (possible only with ridge = 0 on degenerate
    data) is retried once with ridge = 1e-8.
    """
    if cache is None:
        cache = build_design(data)
    H, rhs = _lsq_system(data, cfg, cache)
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
    H, rhs = _lsq_system(data, cfg, cache)
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
                     polish: bool = True):
    """Initial (theta0, z0) for the Newton solver.

    Pipeline: least-squares surface fit (C = 100), rescaled to unit minimum
    margin when separating, then a squared-hinge continuation with the penalty
    raised 100x per stage from 1e2 to at most 1e8, until margin violations fit
    inside the working band (0, sqrt(2*alpha*lam)) or stop shrinking.  When
    the continuation reaches band precision and `polish` is set, the
    identified active set is refined to an exact stationary pair by saddle
    solves.  Otherwise the handed-off duals are the penalty gradients
    mu * max(F, 0), which satisfy the gradient balance at theta0 exactly;
    entries that would land outside the working band are zeroed since the
    first iteration prices them out anyway.
    """
    A, G = cache.a, cache.G
    th = ls_qssvm_fit(data, LsqConfig(c_penalty=100.0), cache=cache).to_vector()
    yh = 1.0 - (1.0 + A @ th)  # y_i h(x_i) = 1 - F_i
    if yh.min() > 1e-6:
        th = th / yh.min()

    tau = np.sqrt(2.0 * alpha * lam)
    mu = 1e2
    fmax_prev = None
    while True:
        th = _hinge_sq_minimize(th, A, G, mu)
        F = 1.0 + A @ th
        fmax = float(np.maximum(F, 0.0).max())
        if fmax <= tau / 4.0 or mu >= 1e8:
            break
        if fmax_prev is not None and fmax > 0.9 * fmax_prev:
            break  # escalation stopped shrinking violations (non-separable data)
        fmax_prev = fmax
        mu *= 100.0

    if polish:
        active0 = np.flatnonzero((F > 0.0) & (F < tau))
        polished = _active_set_polish(th, active0, cache, tau, alpha)
        if polished is not None:
            return polished

    z0 = mu * np.maximum(F, 0.0)
    z0[F + alpha * z0 >= tau] = 0.0
    return SurfaceParams.from_vector(th, cache.m), z0


def _active_set_polish(th, act, cache, tau, alpha, passes=40):
    """Exact saddle refinements on the identified active set.

    Solves min_th f subject to zero margins on `act`, dropping indices whose
    multiplier leaves [0, tau/alpha) and activating margins that land inside
    the collapse band (0, tau), until the pair is consistent.  Margins at or
    beyond tau stay inactive: they are priced by the count penalty, which is
    what makes the soft (non-separable) case work.  Returns (theta0, z0) or
    None when no consistent set is found within the pass budget.
    """
    A, n, d = cache.a, cache.n, cache.d
    act = np.asarray(act, dtype=int)
    cap = tau / alpha
    for _ in range(passes):
        if act.size == 0 or act.size > d:
            return None
        K = saddle_matrix(act, cache)
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
        return SurfaceParams.from_vector(cand, cache.m), z0
    return None

