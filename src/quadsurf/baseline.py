"""Closed-form least-squares quadratic surface fit and the Newton warm start built on it.

Minimizes ``sum_i ||W x_i + b||^2 + (C/2) sum_i (h(x_i) - y_i)^2 + 1e-10 ||theta||^2``,
the equality-constrained least-squares surface model with its residual
variables eliminated.  The objective is an unconstrained convex quadratic,
so the fit is a single symmetric positive-definite solve.  `warm_start_point`
refines that fit into the starting pair (theta0, z0) of the Newton solver.

The warm start minimizes a squared-hinge objective at a rising penalty mu,
from 1e4 up, each stage handing its point, margins and G theta to the next;
the polish that ends it depends only on the active set it is handed.

Each solve judges what `solve_symmetric` returns: x is None when LAPACK
refuses the factorisation, and an rcond below machine epsilon flags x.
The least-squares solve retries either once with a 1e-8 ridge, then raises
LinAlgError.  The Newton passes solve the exact Newton matrix plus a guard
at rounding scale, so a pass on a settled active set lands on the stage's
minimizer; a refused or flagged solve is replaced by one of the matrix
with a larger ridge, which raises LinAlgError when refused and warns
(LinAlgWarning) when flagged.  Both shifts are needed: with no guard, one
of 96 noisy circular draws went from converged to diverged, and with the
guard alone, 11 of 20 designs of collinear points (whose exact matrices
are all singular) ended as singular systems.  The polish gives up on a
refused or non-finite saddle solve and warns on a flagged one.
"""

import math
import warnings

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning

from .model import (Dataset, DesignCache, SurfaceParams, build_design, predict_many)
from .prox import ProxParams
from .stationarity import _EPS, saddle_matrix, solve_symmetric

RIDGE = 1e-10
# Diagonal shifts of the hinge-Newton matrix, relative to 1 + mu: a guard at
# rounding scale on every exact attempt, and the ridge of the fallback solve.
_HINGE_GUARD = 1e-14
_HINGE_RIDGE = 1e-9
# Penalty of the first squared-hinge stage (see the module docstring).
_HINGE_MU0 = 1e4


def _lsq_system(cache: DesignCache, c_penalty: float):
    if not c_penalty > 0:
        raise ValueError(f"c_penalty must be positive, got {c_penalty}")
    # h(x_i) = -y_i a_i . theta, so (h(x_i) - y_i)^2 = (a_i . theta + 1)^2: the
    # normal equations need only the rows a_i, with A'A and right-hand side -A'1
    A = cache.a
    H = 2.0 * cache.G + c_penalty * (A.T @ A) + 2.0 * RIDGE * np.eye(cache.d)
    rhs = c_penalty * (A.T @ -np.ones(cache.n))
    return H, rhs


def _warn_if_flagged(rcond: float):
    """Emit LinAlgWarning for a solve whose rcond is below machine epsilon."""
    if rcond < _EPS:
        warnings.warn(f"ill-conditioned symmetric system (rcond={rcond:.3e})",
                      LinAlgWarning, stacklevel=2)


def _lsq_solve(cache: DesignCache, c_penalty: float) -> np.ndarray:
    """Parameter vector of the least-squares fit on a design.

    A normal matrix that Cholesky refuses or flags (rcond below machine
    epsilon) is retried once with 1e-8 on its diagonal; a retry refused or
    flagged in turn raises LinAlgError, so no fit comes from a flagged solve.
    """
    H, rhs = _lsq_system(cache, c_penalty)
    x, rcond = solve_symmetric(H, rhs, positive_definite=True)
    if x is None or rcond < _EPS:
        x, rcond = solve_symmetric(H + 1e-8 * np.eye(cache.d), rhs, positive_definite=True)
        if x is None or rcond < _EPS:
            raise LinAlgError(f"least-squares normal matrix is singular (rcond={rcond:.3e})")
    return x


def ls_qssvm_fit(data: Dataset, c_penalty: float = 1.0) -> SurfaceParams:
    """Exact minimizer of the regularized least-squares surface objective on `data`.

    `c_penalty` is the weight C > 0 of the squared label errors.
    """
    cache = build_design(data)
    return SurfaceParams.from_vector(_lsq_solve(cache, c_penalty), cache.m)


def lsq_objective_gradient(theta: SurfaceParams, data: Dataset,
                           c_penalty: float = 1.0) -> np.ndarray:
    """Gradient of the least-squares objective, for optimality verification."""
    H, rhs = _lsq_system(build_design(data), c_penalty)
    return H @ theta.to_vector() - rhs


def accuracy(theta: SurfaceParams, data: Dataset) -> float:
    """Fraction of samples labeled correctly by the surface sign."""
    return float(np.mean(predict_many(theta, data.points) == data.labels))


def _hinge_sq_objective(th, F, Gth, mu):
    """Squared-hinge objective at th from its margins F = 1 + A th and G th."""
    Fp = np.maximum(F, 0.0)
    return 0.5 * th @ Gth + 0.5 * mu * (Fp @ Fp)


def _hinge_sq_minimize(th, F, Gth, A, G, mu, passes=80):
    """Newton with Armijo backtracking on the squared-hinge surface objective.

    The objective 0.5 th'G th + (mu/2) ||max(F, 0)||^2 is convex and C^1 with
    piecewise-linear gradient, so damped Newton converges globally and the
    active set settles in finitely many passes.  Takes and returns the
    triple (th, F, G th), with F = 1 + A th, so a continuation stage starts
    from the margins its predecessor ended on.

    Each pass first solves the exact Newton matrix H = mu A_T'A_T + G plus
    the guard _HINGE_GUARD (1 + mu) I at rounding scale; once the active set
    has settled, that step lands on the minimizer.  When dposv refuses that
    matrix or dpocon puts its rcond below machine epsilon, the step is not
    taken and the pass solves H + _HINGE_RIDGE (1 + mu) I instead.  A
    refused fallback raises LinAlgError; a flagged one emits LinAlgWarning
    and its step is taken.
    """
    guard = _HINGE_GUARD * (1.0 + mu) * np.eye(G.shape[0])
    val = _hinge_sq_objective(th, F, Gth, mu)
    for _ in range(passes):
        act = F > 0.0
        Aact = A[act]
        g = Gth + mu * (Aact.T @ F[act])
        if math.sqrt(g @ g) <= 1e-12 * (1.0 + mu):
            break
        H = Aact.T @ Aact
        H *= mu
        H += G
        step, rcond = solve_symmetric(H + guard, -g, positive_definite=True)
        if step is None or rcond < _EPS:
            H += _HINGE_RIDGE * (1.0 + mu) * np.eye(G.shape[0])
            step, rcond = solve_symmetric(H, -g, positive_definite=True)
            if step is None:
                raise LinAlgError(f"ridged squared-hinge Newton matrix refused (mu={mu:.0e})")
            _warn_if_flagged(rcond)
        slope = g @ step  # negative by construction
        t = 1.0
        th_new = th + step
        while True:
            # the next pass starts from the margins and G th of the accepted trial
            F_new = 1.0 + A @ th_new
            Gth_new = G @ th_new
            new_val = _hinge_sq_objective(th_new, F_new, Gth_new, mu)
            # past the last trial step (2**-30) the step 2**-31 is taken as is
            if new_val <= val + 1e-4 * t * slope or t < 2.0**-30:
                break
            t *= 0.5
            th_new = th + t * step
        th, F, Gth = th_new, F_new, Gth_new
        if val - new_val <= 1e-14 * (1.0 + abs(val)):
            break
        val = new_val
    return th, F, Gth


def warm_start_point(cache: DesignCache, lam: float, alpha: float, polish: bool = True):
    """Initial (theta0, z0) for the Newton solver on the design `cache`.

    Pipeline: least-squares surface fit (C = 100), rescaled to unit minimum
    margin when separating, then a squared-hinge continuation with the penalty
    raised 100x per stage from 1e4 to at most 1e8, until margin violations fit
    inside the working band (0, sqrt(2*alpha*lam)) or stop shrinking.  Each
    stage starts from the point, margins F and product G theta on which the
    previous one ended, and takes exact Newton steps (see
    `_hinge_sq_minimize`).  When the continuation reaches band precision and
    `polish` is set, the identified active set is refined to an exact
    stationary pair by saddle solves.  Otherwise the handed-off duals are the
    penalty gradients mu * max(F, 0), which satisfy the gradient balance at
    theta0 exactly; entries that would land outside the working band are
    zeroed since the first iteration prices them out anyway.
    """
    A, G = cache.a, cache.G
    th = _lsq_solve(cache, 100.0)
    F = 1.0 + A @ th
    yh = 1.0 - F  # y_i h(x_i) = 1 - F_i
    if yh.min() > 1e-6:
        th = th / yh.min()
        F = 1.0 + A @ th
    Gth = G @ th

    tau = ProxParams(alpha=alpha, lam=lam).threshold
    mu = _HINGE_MU0
    fmax_prev = None
    while True:
        th, F, Gth = _hinge_sq_minimize(th, F, Gth, A, G, mu)
        fmax = float(np.maximum(F, 0.0).max())
        if fmax <= tau / 4.0 or mu >= 1e8:
            break
        if fmax_prev is not None and fmax > 0.9 * fmax_prev:
            break  # escalation stopped shrinking violations (non-separable data)
        fmax_prev = fmax
        mu *= 100.0

    if polish:
        active0 = np.flatnonzero((F > 0.0) & (F < tau))
        # Twin samples share a row of A and make the polish's A_act rank-deficient: keep
        # the first (the other keeps F = 0, z = 0).  Rows are compared only when two
        # margins agree to 1e-12 relative, as BLAS may round twins' F differently.
        f = np.sort(F[active0])
        if np.any(f[1:] - f[:-1] <= 1e-12 * f[1:]):
            active0 = active0[np.sort(np.unique(A[active0], axis=0, return_index=True)[1])]
        polished = _active_set_polish(active0, cache, tau, alpha)
        if polished is not None:
            return polished

    z0 = mu * np.maximum(F, 0.0)
    z0[F + alpha * z0 >= tau] = 0.0
    return SurfaceParams.from_vector(th, cache.m), z0


def _active_set_polish(act, cache, tau, alpha, passes=40):
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
        sol, rcond = solve_symmetric(K, rhs)
        if sol is None:
            return None
        _warn_if_flagged(rcond)
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

