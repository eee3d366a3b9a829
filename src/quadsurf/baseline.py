"""Closed-form least-squares quadratic surface fit and the Newton warm start built on it.

Minimizes ``sum_i ||W x_i + b||^2 + (C/2) sum_i (h(x_i) - y_i)^2 + 1e-10 ||theta||^2``,
the equality-constrained least-squares surface model with its residual
variables eliminated.  The objective is an unconstrained convex quadratic,
so the fit is a single symmetric positive-definite solve.  `warm_start_point`
refines that fit into the starting pair (theta0, z0) of the Newton solver.

The warm start minimizes a squared-hinge objective in two fixed stages, at
the penalties mu = 1e4 and then 1e8, the first handing its point, margins
and G theta to the second; the polish that ends it depends only on the
active set it is handed.  Both stages always run: a stop at an intermediate
penalty 1e6, once violations fit in a quarter of the working band, left
violations near 1e-3 and a band set that had not settled, and the Newton
iteration from that start ended at a constant surface or failed on 5 of
600 clean draws and 41 of the predict-row set-up draws of seeds 1-1200.
The first stage starts on the ray of the least-squares point, at the minimizer
of its own objective along that ray (found once by sorting the ray's
breakpoints): on iris it begins with about as many violated margins as
it ends with (8 and 11 of 80), where the least-squares point violates 63.
The least-squares point is the first Newton pass from theta = 0 with every
margin active, at penalty C/2, so only its direction survives the scaling.
Its weight is C = 10: that direction lies nearer the 1e4 stage's minimizer
than C = 100's does, and the stage takes about a fifth fewer passes on
iris (the optimum is broad, C from 5 to 10) while the active set it hands
the polish, and so every iris warm start, is the same.
Newton passes accept a step against the largest of the last three
accepted objective values (nonmonotone Armijo), so a full step that
overshoots while the active set settles is taken instead of backtracked.
On a design of full rank each stage objective is strictly convex, so
neither rule moves the minimizer a stage ends on, only the passes it
takes to get there.

Each solve judges what `solve_symmetric` returns: x is None when LAPACK
refuses the factorisation, and an rcond below machine epsilon flags x.
The least-squares solve and the Newton passes share `_shifted_solve`: the
exact matrix, so a pass on a settled active set lands on the stage's
minimizer, then, when LAPACK refuses or flags it, the matrix plus a ridge,
which raises LinAlgError when refused or flagged in turn.  Without the
ridge, 11 of 20 designs of collinear points (whose exact hinge matrices
are all singular) ended as singular systems.  A second shift, 1e-14
(1 + mu) I on every exact attempt, changed no iris fit and no status or
step count of 1200 predict-row set-up fits and 288 noisy circular fits
(theta by at most 6.3e-13 relative on those checked), so there is none.
The polish gives up on a refused or non-finite saddle solve and warns
(LinAlgWarning) on a flagged one.
"""

import math
import warnings
from collections import deque

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning

from .model import (Dataset, DesignCache, SurfaceParams, build_design, predict_many)
from .prox import ProxParams, prox_branches
from .stationarity import _EPS, saddle_matrix, solve_symmetric

RIDGE = 1e-10
# Ridge of the hinge-Newton matrix's fallback solve, relative to 1 + mu.
_HINGE_RIDGE = 1e-9
# Penalties of the squared-hinge continuation's two stages, run in full (see the
# module docstring).
_HINGE_PENALTIES = (1e4, 1e8)
# Weight C of the least-squares fit whose ray the first stage starts on (see the
# module docstring).
_LS_START_C = 10.0
# Accepted objective values the nonmonotone Armijo test compares a trial against.
_HINGE_MEMORY = 3


def _lsq_system(cache: DesignCache, c_penalty: float):
    if not c_penalty > 0:
        raise ValueError(f"c_penalty must be positive, got {c_penalty}")
    # h(x_i) = -y_i a_i . theta, so (h(x_i) - y_i)^2 = (a_i . theta + 1)^2: the
    # normal equations need only the rows a_i, with A'A and right-hand side -A'1
    A = cache.a
    H = 2.0 * cache.G + c_penalty * (A.T @ A) + 2.0 * RIDGE * np.eye(cache.d)
    rhs = c_penalty * (A.T @ -np.ones(cache.n))
    return H, rhs


def _shifted_solve(H, rhs, ridge: float) -> np.ndarray:
    """Cholesky solution of H x = rhs or, when LAPACK refuses or flags it, of
    (H + ridge I) x = rhs; LinAlgError when LAPACK refuses or flags both."""
    x, rcond = solve_symmetric(H, rhs, positive_definite=True)
    if x is None or rcond < _EPS:
        x, rcond = solve_symmetric(H + ridge * np.eye(H.shape[0]), rhs, positive_definite=True)
        if x is None or rcond < _EPS:
            raise LinAlgError(f"singular with a {ridge:.1e} ridge (rcond={rcond:.3e})")
    return x


def _lsq_solve(cache: DesignCache, c_penalty: float) -> np.ndarray:
    """Least-squares parameter vector; a refused or flagged solve is retried with 1e-8 I."""
    H, rhs = _lsq_system(cache, c_penalty)
    return _shifted_solve(H, rhs, 1e-8)


def ls_qssvm_fit(data: Dataset, c_penalty: float = 1.0) -> SurfaceParams:
    """Exact minimizer of the regularized least-squares surface objective on `data`.

    `c_penalty` is the weight C > 0 of the squared label errors.
    """
    cache = build_design(data)
    return SurfaceParams.from_vector(_lsq_solve(cache, c_penalty), cache.m)


def accuracy(theta: SurfaceParams, data: Dataset) -> float:
    """Fraction of samples labeled correctly by the surface sign."""
    return float(np.mean(predict_many(theta, data.points) == data.labels))


def _hinge_sq_objective(th, F, Gth, mu):
    """Squared-hinge objective at th from its margins F = 1 + A th and G th."""
    Fp = np.maximum(F, 0.0)
    return 0.5 * th @ Gth + 0.5 * mu * (Fp @ Fp)


def _ray_scale(q, yh, mu):
    """argmin over s > 0 of 0.5 s^2 q + (mu/2) sum_i max(1 - s yh_i, 0)^2, or 1.0.

    The squared-hinge objective on the ray s theta, with q = theta'G theta and
    yh_i = y_i h(x_i) at theta.  Its derivative s q - mu sum_i yh_i max(1 -
    s yh_i, 0) is continuous and nondecreasing.  The positive yh_i, sorted
    ascending as u_0 <= u_1 <= ..., split s > 0 into pieces: on the piece
    ending at 1/u_j the violated margins are u_0..u_j and every yh_i <= 0, so
    the derivative there is s (q + mu S2_j) - mu S1_j, with S1_j and S2_j
    their sum and sum of squares.  The minimizer is the root on the leftmost
    piece whose right end has a nonnegative derivative; the piece ending at
    1/u_0 always has one.  When the derivative at 0 is not negative
    (sum_i yh_i <= 0) there is no positive minimizer and the ray is not
    scaled.
    """
    pos = yh > 0.0
    u = yh[pos]
    u.sort()
    rest = yh[~pos]
    num = mu * (u.cumsum() + rest.sum())
    if not (u.size and num[-1] > 0.0):
        return 1.0
    den = q + mu * ((u * u).cumsum() + rest @ rest)
    ok = den >= num * u  # derivative at 1/u_j nonnegative, scaled by u_j > 0
    ok[0] = True
    j = ok.nonzero()[0][-1]
    return float(num[j] / den[j])


def _hinge_sq_minimize(th, F, Gth, A, G, mu, passes=80):
    """Newton with nonmonotone Armijo backtracking on the squared-hinge surface objective.

    The objective 0.5 th'G th + (mu/2) ||max(F, 0)||^2 is convex and C^1 with
    piecewise-linear gradient, so damped Newton converges globally and the
    active set settles in finitely many passes.  Takes and returns the
    triple (th, F, G th), with F = 1 + A th, so a continuation stage starts
    from the margins its predecessor ended on.

    Each pass first solves the exact Newton matrix H = mu A_T'A_T + G; once
    the active set has settled, that step lands on the minimizer.  A refused
    or flagged solve is not stepped from: the pass solves
    H + _HINGE_RIDGE (1 + mu) I instead (`_shifted_solve`).

    A trial is accepted when it lies below the largest of the last
    _HINGE_MEMORY accepted values by the Armijo decrease (Grippo,
    Lampariello & Lucidi, SIAM J. Numer. Anal. 23, 1986), so a full step may
    raise the objective for a pass while its active set is still settling.
    """
    val = _hinge_sq_objective(th, F, Gth, mu)
    recent = deque([val], maxlen=_HINGE_MEMORY)
    for _ in range(passes):
        act = F > 0.0
        Aact = A[act]
        g = Gth + mu * (Aact.T @ F[act])
        if math.sqrt(g @ g) <= 1e-12 * (1.0 + mu):
            break
        H = Aact.T @ Aact
        H *= mu
        H += G
        step = _shifted_solve(H, -g, _HINGE_RIDGE * (1.0 + mu))
        slope = g @ step  # negative by construction
        t = 1.0
        th_new = th + step
        while True:
            # the next pass starts from the margins and G th of the accepted trial
            F_new = 1.0 + A @ th_new
            Gth_new = G @ th_new
            new_val = _hinge_sq_objective(th_new, F_new, Gth_new, mu)
            # past the last trial step (2**-30) the step 2**-31 is taken as is
            if new_val <= max(recent) + 1e-4 * t * slope or t < 2.0**-30:
                break
            t *= 0.5
            th_new = th + t * step
        th, F, Gth = th_new, F_new, Gth_new
        if abs(val - new_val) <= 1e-14 * (1.0 + abs(val)):
            break
        val = new_val
        recent.append(val)
    return th, F, Gth


def warm_start_point(cache: DesignCache, *, alpha: float, lam: float, polish: bool = True):
    """Initial (theta0, z0) for the Newton solver on the design `cache`.

    Pipeline: least-squares surface fit (C = 10), scaled along its ray to the
    minimizer of the first stage's objective (`_ray_scale`; unscaled when that
    has no positive minimizer), then a squared-hinge continuation of two
    stages, at the penalties 1e4 and 1e8, with no early stop.  The second
    stage starts from the point, margins F and product G theta on which the
    first ended; both take exact Newton steps (see `_hinge_sq_minimize`).
    When `polish` is set, the active set the 1e8 stage identified (its
    margins in the working band (0, sqrt(2*alpha*lam)), one of each twin
    row) is refined to an exact stationary pair by saddle solves.  When the
    polish is off or finds no consistent set, the handed-off duals are the
    penalty gradients 1e8 * max(F, 0), which satisfy the gradient balance
    at theta0 exactly; entries that would land outside the working band are
    zeroed since the first iteration prices them out anyway.
    """
    A, G = cache.a, cache.G
    th = _lsq_solve(cache, _LS_START_C)
    th = _ray_scale(th @ G @ th, -(A @ th), _HINGE_PENALTIES[0]) * th  # y_i h(x_i) = -a_i . th
    F = 1.0 + A @ th
    Gth = G @ th

    for mu in _HINGE_PENALTIES:
        th, F, Gth = _hinge_sq_minimize(th, F, Gth, A, G, mu)

    tau = ProxParams(alpha=alpha, lam=lam).threshold
    if polish:
        active0 = np.flatnonzero(prox_branches(F, tau)[1])
        # Twin samples share a row of A and make the polish's A_act rank-deficient: keep
        # the first (the other keeps F = 0, z = 0).  Rows are compared only when two
        # margins agree to 1e-12 relative, as BLAS may round twins' F differently.
        f = np.sort(F[active0])
        if np.any(f[1:] - f[:-1] <= 1e-12 * f[1:]):
            active0 = active0[np.sort(np.unique(A[active0], axis=0, return_index=True)[1])]
        polished = _active_set_polish(active0, cache, tau, alpha)
        if polished is not None:
            return polished

    z0 = _HINGE_PENALTIES[-1] * np.maximum(F, 0.0)
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
        if rcond < _EPS:
            warnings.warn(f"ill-conditioned symmetric system (rcond={rcond:.3e})", LinAlgWarning)
        if not np.all(np.isfinite(sol)):
            return None
        cand, zeta = sol[:d], sol[d:]
        keep = (zeta > 0.0) & (zeta < 0.98 * cap)
        if not np.all(keep):
            act = act[keep]
            continue
        F = 1.0 + A @ cand
        F[act] = 0.0  # exact by construction
        # not `prox_branches`: each end has its own tolerance, absolute above the
        # rounded zero margins, relative below tau
        in_band = (F > 1e-10) & (F < tau * (1.0 - 1e-9))
        if np.any(in_band):
            depth = np.where(in_band, np.minimum(F, tau - F), -np.inf)
            act = np.union1d(act, [int(np.argmax(depth))])
            continue
        z0 = np.zeros(n)
        z0[act] = zeta
        # the gamma = 0 saddle over the final set, factored: `regular`'s verdict on it
        cache._saddle_verdicts[act.tobytes()] = bool(rcond >= _EPS)
        return SurfaceParams.from_vector(cand, cache.m), z0
    return None

