"""Stationarity machinery: index sets, residuals, and solution certificates.

A pair (theta, z) is declared stationary when the gradient balance
``grad f(theta) + a' z = 0`` holds and every margin lies in the prox of
its shifted value ``F_i + alpha * z_i``.  With T the working set of the
iterate itself, classified from its own (F(theta), z), this is equivalent
to a zero of the block residual

    Psi(theta, z) = ( grad f + a_T' z_T,  F(theta)_T,  z_{T^c} ),

so the residual norm doubles as a computable optimality certificate.
`solve` certifies from the margins and G theta of its last `residual`;
`pstationary_check` computes them itself, then makes the same tests.
`regular` judges the working set itself: whether the saddle system over T
is nonsingular, the assumption behind the Newton iteration's local
quadratic rate.  It factors that saddle unless the warm start's polish
already has, on the same design and set.
"""

import functools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.linalg import lapack

from .model import DesignCache, SurfaceParams, margins, smooth_gradient
from .prox import ProxParams, prox_branches, prox_contains

# Absolute band for the two-point membership tests; floating-point iterates
# never hit {0, threshold} exactly.
_SET_BAND = 1e-12

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class IndexSets:
    """Disjoint classification of sample indices from (F, z, alpha, lam).

    t_1, t_2, t_3 partition the sample range by where F_i + alpha*z_i falls
    relative to (0, threshold); t_o (a subset of t_2) flags exact-boundary
    samples with a zero margin.  `working` = t_o | t_1 is the set the Newton
    system is solved over.
    """

    t_o: np.ndarray
    t_1: np.ndarray
    t_2: np.ndarray
    t_3: np.ndarray
    working: np.ndarray


def index_sets(F: np.ndarray, z: np.ndarray, alpha: float, lam: float) -> IndexSets:
    """Classify indices by F + alpha*z against the prox threshold."""
    tau = ProxParams(alpha=alpha, lam=lam).threshold
    F = np.asarray(F, dtype=np.float64).ravel()
    z = np.asarray(z, dtype=np.float64).ravel()
    if F.shape != z.shape:
        raise ValueError(f"F and z disagree in length: {F.shape} vs {z.shape}")
    band = _SET_BAND * max(1.0, tau)
    in_t2, in_t1 = prox_branches(F + alpha * z, tau, band)
    # t_o: a zero margin whose dual step alpha*z sits at a break point itself; the
    # dual test runs only when t_2 holds a zero margin
    in_to = in_t2 & (np.abs(F) <= band)
    if in_to.any():
        in_to &= prox_branches(alpha * z, tau, band)[0]

    # t_o lies in t_2, which t_1 excludes, so the working set is a disjoint union
    return IndexSets(t_o=np.flatnonzero(in_to), t_1=np.flatnonzero(in_t1),
                     t_2=np.flatnonzero(in_t2), t_3=np.flatnonzero(~(in_t1 | in_t2)),
                     working=np.flatnonzero(in_to | in_t1))


@dataclass(frozen=True)
class ResidualParts:
    """Blocks of the stationarity residual and the index sets they were taken over.

    `F` and `G_theta` are the margins and the smooth gradient G theta at theta,
    from which the blocks were formed; `solve` certifies its endpoint from them.
    """

    grad_part: np.ndarray
    margin_part: np.ndarray
    dual_part: np.ndarray
    norm: float
    sets: IndexSets
    F: np.ndarray
    G_theta: np.ndarray


def residual(theta: SurfaceParams, z: np.ndarray, alpha: float, lam: float,
             cache: DesignCache) -> ResidualParts:
    """Classify the samples at (theta, z) and evaluate the block residual over
    that working set (gradient balance, active margins, off-set duals)."""
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape[0] != cache.n:
        raise ValueError(f"z has length {z.shape[0]}, expected {cache.n}")
    F = margins(theta, cache)
    sets = index_sets(F, z, alpha, lam)
    working = sets.working
    mask = np.zeros(cache.n, dtype=bool)
    mask[working] = True

    G_theta = smooth_gradient(theta, cache)
    g = G_theta + cache.a[working].T @ z[working] if working.size else G_theta
    margin_part = F[working]
    dual_part = z[~mask]
    norm = math.sqrt(float(g @ g) + float(margin_part @ margin_part)
                     + float(dual_part @ dual_part))
    return ResidualParts(grad_part=g, margin_part=margin_part, dual_part=dual_part,
                         norm=norm, sets=sets, F=F, G_theta=G_theta)


def alpha_bounds(F: np.ndarray, z: np.ndarray, lam: float, atol: float = 0.0):
    """Largest prox steps compatible with (F, z): (alpha1, alpha2, alpha_star).

    alpha1 scans violated margins, alpha2 positive duals; either is +inf when
    its side has no qualifying entries.  `atol` treats entries within atol of
    zero as zero, which keeps the bounds meaningful on floating-point iterates.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    F = np.asarray(F, dtype=np.float64).ravel()
    z = np.asarray(z, dtype=np.float64).ravel()
    pos_F = F[F > atol]
    pos_z = z[z > atol]
    alpha1 = float(np.min(pos_F**2) / (2.0 * lam)) if pos_F.size else math.inf
    alpha2 = float(2.0 * lam / np.max(pos_z) ** 2) if pos_z.size else math.inf
    return alpha1, alpha2, min(alpha1, alpha2)


@dataclass(frozen=True)
class PStatCertificate:
    """Numeric stationarity certificate for a candidate (theta, z, alpha, lam).

    `passed` requires the gradient balance within `tolerance` and prox
    membership of every margin.  The two sign-condition flags restate the
    membership as the interval conditions it implies (duals in
    [0, sqrt(2 lam / alpha)] on zero margins; zero duals elsewhere with the
    margin outside the collapse interval); alpha bounds are evaluated with
    the same tolerance.
    """

    grad_residual: float
    prox_ok: bool
    alpha1: float
    alpha2: float
    alpha_star: float
    passed: bool
    tolerance: float
    sign_zero_margin_ok: bool
    sign_zero_dual_ok: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        for k, v in out.items():
            if isinstance(v, float) and not math.isfinite(v):
                out[k] = None
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def pstationary_check(theta: SurfaceParams, z: np.ndarray, alpha: float, lam: float,
                      cache: DesignCache, tol: float) -> PStatCertificate:
    """Certify (theta, z) as stationary for prox step alpha at tolerance tol."""
    if not (alpha > 0 and lam > 0 and tol > 0):
        raise ValueError("alpha, lam and tol must all be positive")
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape[0] != cache.n:
        raise ValueError(f"z has length {z.shape[0]}, expected {cache.n}")
    return _certify(margins(theta, cache), smooth_gradient(theta, cache), z, alpha, lam,
                    cache, tol)


def _certify(F: np.ndarray, G_theta: np.ndarray, z: np.ndarray, alpha: float, lam: float,
             cache: DesignCache, tol: float) -> PStatCertificate:
    """`pstationary_check` at the margins F and smooth gradient G_theta of theta.

    `solve` passes the F and G theta of its last `residual`, computed at the
    same (theta, z), so it certifies without evaluating either again.
    """
    g = G_theta + cache.a.T @ z
    grad_residual = math.sqrt(g @ g)  # np.linalg.norm's sqrt(dot(g, g)), bit for bit
    p = ProxParams(alpha=alpha, lam=lam)
    prox_ok = bool(np.all(prox_contains(F, F + alpha * z, p, tol=tol)))

    # The sign conditions test F and z apiece at tol, not through `prox_branches`
    # on F + alpha*z: a shared test could flip a comparison at a tolerance edge.
    tau = p.threshold
    dual_cap = math.sqrt(2.0 * lam / alpha)
    zero_margin = np.abs(F) <= tol
    sign_zero_margin_ok = bool(np.all((z[zero_margin] >= -tol)
                                      & (z[zero_margin] <= dual_cap + tol)))
    nz = ~zero_margin
    sign_zero_dual_ok = bool(np.all(np.abs(z[nz]) <= tol)
                             and np.all((F[nz] < tol) | (F[nz] >= tau - tol)))

    alpha1, alpha2, alpha_star = alpha_bounds(F, z, lam, atol=tol)
    return PStatCertificate(
        grad_residual=grad_residual,
        prox_ok=prox_ok,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha_star=alpha_star,
        passed=(grad_residual <= tol) and prox_ok,
        tolerance=tol,
        sign_zero_margin_ok=sign_zero_margin_ok,
        sign_zero_dual_ok=sign_zero_dual_ok,
    )


def saddle_matrix(working: np.ndarray, cache: DesignCache, gamma: float = 0.0) -> np.ndarray:
    """Assemble the symmetric augmented matrix [[G, a_T'], [a_T, -gamma I]]."""
    working = np.asarray(working, dtype=int).ravel()
    d, k = cache.d, working.size
    K = np.zeros((d + k, d + k))
    K[:d, :d] = cache.G
    if k:
        A = cache.a[working]
        K[:d, d:] = A.T
        K[d:, :d] = A
        K[d:, d:] = -gamma * np.eye(k)
    return K


@functools.lru_cache(maxsize=128)
def _sytrf_lwork(n: int) -> int:
    return int(lapack.dsytrf_lwork(n)[0])


def solve_symmetric(K: np.ndarray, rhs: np.ndarray, positive_definite: bool = False):
    """(x, rcond) of K x = rhs for symmetric K (upper triangle read), by direct LAPACK calls.

    Positive-definite systems go through Cholesky (dposv, dpocon), all others
    through blocked Bunch-Kaufman (dsytrf with its optimal workspace, dsytrs,
    dsycon): scipy.linalg.solve's routes for such matrices, so x agrees with
    it bit for bit, without its per-call validation and structure detection.
    Nothing is raised or warned: where scipy raises LinAlgError, x is None
    and rcond 0.0; where it warns LinAlgWarning, rcond is below machine
    epsilon.  Each caller states its policy for both.  Non-finite input
    raises ValueError.  The 1-norm comes from dlange on K.T, a Fortran view
    with K's norm when K is symmetric, so nothing is copied; a finite norm
    proves K finite, so the full scan of K runs only when the norm is not
    (a NaN or inf in K, or a finite K whose column sums overflow).  The
    right-hand side is tested the same way, through the 1-norm of its
    column view.
    """
    anorm = lapack.dlange("1", K.T)
    finite_k = math.isfinite(anorm) or np.isfinite(K).all()
    finite_rhs = math.isfinite(lapack.dlange("1", rhs[:, None])) or np.isfinite(rhs).all()
    if not (finite_k and finite_rhs):
        raise ValueError("array must not contain infs or NaNs")
    if positive_definite:
        fac, x, info = lapack.dposv(K, rhs)
        if info == 0:
            return x, lapack.dpocon(fac, anorm)[0]
    else:
        fac, ipiv, info = lapack.dsytrf(K, lwork=_sytrf_lwork(K.shape[0]))
        if info == 0:
            x, info = lapack.dsytrs(fac, ipiv, rhs)
        if info == 0:
            return x, lapack.dsycon(fac, ipiv, anorm)[0]
    return None, 0.0


def regular(working: np.ndarray, cache: DesignCache) -> bool:
    """Whether the gamma = 0 saddle matrix over the working set T is nonsingular.

    With G positive semidefinite this holds exactly when a_T has full row
    rank and G is positive definite on the null space of a_T (Nocedal &
    Wright, Lemma 16.1): the regularity the local quadratic rate assumes.
    More than d rows cannot be independent, so such a set is judged with no
    factorization.  Otherwise the saddle is solved as every other system
    is, and the set is regular unless LAPACK refuses the solve or flags it
    (rcond below machine epsilon).  An empty set is never regular: its
    saddle is G alone, which has no curvature in c.

    When T is the final set of the warm start's polish on this design, the
    polish has just factored this very matrix through the same dsytrf and
    dsycon (its right-hand side differs, which neither reads), and its
    verdict, kept on the design, is returned with no second factorization;
    a 0-step fit that ends at the polished start pays for one saddle solve.

    For a G built by `build_design`, a nonempty T is regular exactly when
    every nonempty subset of T is, so this one verdict also answers the
    subset question.  A v in null(G) has W x_i + b = 0 at every sample, so
    b'x_i is one value kappa for all i, and every margin row on null(G)
    is, up to the sign y_i, one functional l(v) = -(kappa/2 + c).  If
    null(G) is span(e_c), each row has a_i . e_c = -y_i != 0, so every
    single row is regular, and a subset S of T, with null(a_S) inside
    null(a_i) for i in S, is regular whenever T is.  If null(G) is larger,
    null(l) meets it in a nonzero v, which lies in null(a_T) for every T:
    no working set is regular, nor is any subset of one.
    """
    working = np.asarray(working, dtype=int).ravel()
    if working.size > cache.d:
        return False
    known = cache._saddle_verdicts.get(working.tobytes())
    if known is not None:
        return known
    K = saddle_matrix(working, cache)
    x, rcond = solve_symmetric(K, np.zeros(K.shape[0]))
    return x is not None and rcond >= _EPS
