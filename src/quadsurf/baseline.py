"""Closed-form least-squares quadratic surface fit and the Newton solver's warm start.

`ls_qssvm_fit` minimizes
``sum_i ||W x_i + b||^2 + (C/2) sum_i (h(x_i) - y_i)^2 + 1e-10 ||theta||^2``,
the equality-constrained least-squares surface model with its residual
variables eliminated.  The objective is an unconstrained convex quadratic,
so the fit is a single symmetric positive-definite solve.  `warm_start_point`
finds the starting pair (theta0, z0) of the Newton solver.

On designs of up to _LDP_MAX_N samples the warm start first tries the
hard-margin surface (Dagher's quadratic surface SVM, J. Global Optim. 41,
2008), whose active set one least-distance program names exactly, solved
by scipy's compiled Lawson-Hanson NNLS (`_ldp_start`).  That extension is
private to scipy and loaded from its file (`_load_nnls`), since importing
`scipy.optimize` would lift a process's peak RSS from about 57 to 77 MB.
On the 256 iris fits of tools/fit_digest.py the start is accepted every
time and equals the continuation's bit for bit.  When it is rejected, or
the extension is missing, the continuation below runs unchanged.

The continuation minimizes a squared-hinge objective in two fixed stages, at
the penalties mu = 1e4 and then 1e8, the first handing its point, margins
and G theta to the second; the polish that ends it depends only on the
active set it is handed.  Both stages always run: a stop between them
leaves a band set that has not settled.  The first stage starts at
theta = 0, where every margin is 1 and so active: its first full Newton
step is the least-squares point of weight C = 2 mu.  Each stage objective
is strictly convex on a design of full rank, so the start moves the path,
not the endpoint.  Newton passes accept a step against the largest of the
last three accepted objective values (nonmonotone Armijo), so a full step
that overshoots while the active set settles is taken instead of
backtracked; like the start, that rule moves the passes a stage takes, not
the minimizer it ends on.

Each solve judges what `solve_symmetric` returns: x is None when LAPACK
refuses the factorisation, and an rcond below machine epsilon flags x.
The least-squares solve and the Newton passes share `_shifted_solve`: the
exact matrix, so a pass on a settled active set lands on the stage's
minimizer, then, when LAPACK refuses or flags it, the matrix plus a ridge,
which raises LinAlgError when refused or flagged in turn.  Without the
ridge, 11 of 20 designs of collinear points (whose exact hinge matrices
are all singular) ended as singular systems.  A small shift on every
exact attempt moved no fit, so there is none.  The polish gives up on a
refused or non-finite saddle solve and reports whether LAPACK flagged its
last one; it never warns, its callers decide.
"""

import functools
import importlib.machinery
import importlib.util
import math
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import LinAlgError, LinAlgWarning, blas

from .model import (Dataset, DesignCache, SurfaceParams, build_design, predict_many)
from .prox import ProxParams, prox_branches
from .stationarity import _EPS, cholesky_lower, regular, saddle_matrix, solve_symmetric

RIDGE = 1e-10
# Ridge of the hinge-Newton matrix's fallback solve, relative to 1 + mu.
_HINGE_RIDGE = 1e-9
# Penalties of the squared-hinge continuation's two stages, run in full (see the
# module docstring).
_HINGE_PENALTIES = (1e4, 1e8)
# Accepted objective values the nonmonotone Armijo test compares a trial against.
_HINGE_MEMORY = 3
# Largest design the hard-margin (LDP) start is tried on (see `warm_start_point`).
_LDP_MAX_N = 256


def _shifted_solve(H, rhs, ridge: float) -> np.ndarray:
    """Cholesky solution of H x = rhs or, when LAPACK refuses or flags it, of
    (H + ridge I) x = rhs; LinAlgError when LAPACK refuses or flags both."""
    x, rcond = solve_symmetric(H, rhs, positive_definite=True)
    if x is None or rcond < _EPS:
        x, rcond = solve_symmetric(H + ridge * np.eye(H.shape[0]), rhs, positive_definite=True)
        if x is None or rcond < _EPS:
            raise LinAlgError(f"singular with a {ridge:.1e} ridge (rcond={rcond:.3e})")
    return x


def ls_qssvm_fit(data: Dataset, c_penalty: float = 1.0) -> SurfaceParams:
    """Exact minimizer of the regularized least-squares surface objective on `data`.

    `c_penalty` is the weight C > 0 of the squared label errors; a refused or
    flagged solve is retried with 1e-8 I.
    """
    if not c_penalty > 0:
        raise ValueError(f"c_penalty must be positive, got {c_penalty}")
    cache = build_design(data)
    # h(x_i) = -y_i a_i . theta, so (h(x_i) - y_i)^2 = (a_i . theta + 1)^2: the
    # normal equations need only the rows a_i, with A'A and right-hand side -A'1
    A = cache.a
    H = 2.0 * cache.G + c_penalty * (A.T @ A) + 2.0 * RIDGE * np.eye(cache.d)
    rhs = c_penalty * (A.T @ -np.ones(cache.n))
    return SurfaceParams.from_vector(_shifted_solve(H, rhs, 1e-8), cache.m)


def accuracy(theta: SurfaceParams, data: Dataset) -> float:
    """Fraction of samples labeled correctly by the surface sign."""
    return float(np.mean(predict_many(theta, data.points) == data.labels))


def _hinge_sq_objective(th, F, Gth, mu):
    """Squared-hinge objective at th from its margins F = 1 + A th and G th."""
    Fp = np.maximum(F, 0.0)
    return 0.5 * th @ Gth + 0.5 * mu * (Fp @ Fp)


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


def _load_nnls(folder: Path):
    """`nnls(E, f, maxiter) -> (u, rnorm, info)` from the `_slsqplib` extension in
    `folder`, loaded from its file so that `scipy.optimize` is not imported; None
    when the file is missing or fails to load.  `info` is 1 on success and 3 when
    maxiter runs out.

    The module is private to scipy (1.17 keeps its compiled Lawson-Hanson NNLS
    there, and its docstring is stale), so a scipy without it costs the warm
    start speed, not correctness.
    """
    name = "scipy.optimize._slsqplib"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_slsqplib{suffix}"
        if not path.is_file():
            continue
        try:
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            return module.nnls
        except (ImportError, OSError, AttributeError):
            return None
    return None


@functools.cache
def _nnls():
    """scipy's compiled NNLS, loaded on first use (see `_load_nnls`), or None."""
    return _load_nnls(Path(scipy.__file__).parent / "optimize")


def _ldp_start(cache: DesignCache, tau: float, alpha: float):
    """(theta0, z0) of the hard-margin surface, or None when it is not accepted.

    The hard-margin problem min 0.5 th'G th subject to 1 + A th <= 0 is, with
    G + RIDGE I = L L' and x = L' th, the least-distance program min ||x||
    subject to -A L^-T x >= 1, whose multipliers u solve the NNLS
    min ||E u - f|| over u >= 0 with E = [-L^-1 A'; 1'] and f = e_{d+1}
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23).  Its
    support u > 0 is the active set handed to the polish.  The start is
    accepted when the NNLS ends normally, the polish returns a regular pair,
    and that point violates no margin: then it is the hard-margin optimum,
    which depends only on that active set.
    """
    nnls = _nnls()
    if nnls is None:
        return None
    A, n, d = cache.a, cache.n, cache.d
    L = cholesky_lower(cache.G + RIDGE * np.eye(d))
    if L is None:
        return None
    E = np.empty((d + 1, n), order="F")
    E[:d] = blas.dtrsm(-1.0, L, A.T, lower=1)
    E[d] = 1.0
    f = np.zeros(d + 1)
    f[d] = 1.0
    u, _, info = nnls(E, f, 3 * n)
    if info != 1:
        return None
    polished = _active_set_polish(np.flatnonzero(u > 0.0), cache, tau, alpha)
    if polished is None or not polished[2] or np.any(1.0 + A @ polished[0].to_vector() > 1e-10):
        return None
    return polished


class WarmStart(tuple):
    """The pair (theta0, z0), which unpacks as a 2-tuple, with the `route` that
    found it, "ldp" (the hard-margin start) or "continuation", and `regular`:
    `stationarity.regular`'s verdict on z0's support.  A fit that ends on its
    warm start's support keeps the start's verdict."""

    def __new__(cls, theta, z, regular: bool, route: str):
        start = super().__new__(cls, (theta, z))
        start.regular = regular
        start.route = route
        return start

    def __getnewargs__(self):
        return (*self, self.regular, self.route)


def warm_start_point(cache: DesignCache, *, alpha: float, lam: float) -> WarmStart:
    """Initial (theta0, z0) for the Newton solver on the design `cache`.

    When the design has at most _LDP_MAX_N samples, the hard-margin start
    comes first (`_ldp_start`): one compiled NNLS and one polish, exact
    where the continuation below searches.  On noisy circular
    data the polish rejects almost every hard-margin support (12 of 12
    noisy draws of 2000-3000 samples), and the NNLS costs about 0.8 us a
    sample, so larger designs go straight to the continuation.  Whenever
    the hard-margin start is not accepted, or scipy's NNLS cannot be
    loaded, the continuation runs as if it had not been tried, and the
    attempt leaves no warning.

    Continuation: two squared-hinge stages, at the penalties 1e4 and 1e8,
    with no early stop, the first from theta = 0 and the second from the
    point, margins F and product G theta the first ended on; both take exact
    Newton steps (see `_hinge_sq_minimize`).
    The active set the 1e8 stage identified (its margins in the working band
    (0, sqrt(2*alpha*lam)), one of each twin row) is polished to an exact
    stationary pair, used with one LinAlgWarning when it is not regular.
    When the polish finds no consistent set, the handed-off duals are the
    penalty gradients 1e8 * max(F, 0), which satisfy the gradient balance
    at theta0 exactly; entries that would land outside the working band are
    zeroed since the first iteration prices them out anyway.

    Every start carries `regular`'s verdict on z0's support: a polished
    pair's is the polish's own, from that very saddle factorization, and the
    penalty duals' is one `regular` call, with no factorization when they
    hold more than d rows.
    """
    tau = ProxParams(alpha=alpha, lam=lam).threshold
    if cache.n <= _LDP_MAX_N:
        start = _ldp_start(cache, tau, alpha)
        if start is not None:
            return WarmStart(*start, "ldp")

    A, G = cache.a, cache.G
    th, F, Gth = np.zeros(cache.d), np.ones(cache.n), np.zeros(cache.d)

    for mu in _HINGE_PENALTIES:
        th, F, Gth = _hinge_sq_minimize(th, F, Gth, A, G, mu)

    active0 = np.flatnonzero(prox_branches(F, tau)[1])
    # Twin samples share a row of A and make the polish's A_act rank-deficient: keep
    # the first (the other keeps F = 0, z = 0).  Rows are compared only when two
    # margins agree to 1e-12 relative, as BLAS may round twins' F differently.
    f = np.sort(F[active0])
    if np.any(f[1:] - f[:-1] <= 1e-12 * f[1:]):
        active0 = active0[np.sort(np.unique(A[active0], axis=0, return_index=True)[1])]
    polished = _active_set_polish(active0, cache, tau, alpha)
    if polished is not None:
        if not polished[2]:
            warnings.warn("LAPACK flagged the polished warm start's saddle solve", LinAlgWarning)
        return WarmStart(*polished, "continuation")

    z0 = _HINGE_PENALTIES[-1] * np.maximum(F, 0.0)
    z0[F + alpha * z0 >= tau] = 0.0
    return WarmStart(SurfaceParams.from_vector(th, cache.m), z0,
                     regular(np.flatnonzero(z0), cache), "continuation")


def _active_set_polish(act, cache, tau, alpha, passes=40):
    """Exact saddle refinements on the identified active set.

    Solves min_th f subject to zero margins on `act`, dropping indices whose
    multiplier leaves [0, tau/alpha) and activating margins that land inside
    the collapse band (0, tau), until the pair is consistent.  Margins at or
    beyond tau stay inactive: they are priced by the count penalty, which is
    what makes the soft (non-separable) case work.  Returns (theta0, z0,
    regular), z0 positive exactly on the final set and `regular` whether
    LAPACK did not flag its saddle solve: `stationarity.regular`'s verdict on
    that set.  None when no consistent set is found within the pass budget
    or a solve is refused or not finite.  A flagged solve is used, silently.
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
        if sol is None or not np.all(np.isfinite(sol)):
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
        return SurfaceParams.from_vector(cand, cache.m), z0, bool(rcond >= _EPS)
    return None

