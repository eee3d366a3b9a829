"""Stationarity machinery: index sets, residuals, and solution certificates.

A pair (theta, z) is declared stationary when the gradient balance
``grad f(theta) + a' z = 0`` holds and every margin lies in the prox of
its shifted value ``F_i + alpha * z_i``.  With T the working set of the
iterate itself, classified from its own (F(theta), z), this is equivalent
to a zero of the block residual

    Psi(theta, z) = ( grad f + a_T' z_T,  F(theta)_T,  z_{T^c} ),

so the residual norm doubles as a computable optimality certificate.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .model import DesignCache, SurfaceParams, margins, smooth_gradient
from .prox import ProxParams, prox_contains

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
    s = F + alpha * z

    near0 = np.abs(s) <= band
    near_tau = np.abs(s - tau) <= band
    in_t2 = near0 | near_tau
    in_t1 = (s > 0.0) & (s < tau) & ~in_t2
    in_t3 = ~(in_t1 | in_t2)

    az = alpha * z
    in_to = in_t2 & (np.abs(F) <= band) & ((np.abs(az) <= band) | (np.abs(az - tau) <= band))

    idx = np.arange(F.shape[0])
    # t_o lies in t_2, which t_1 excludes, so the working set is a disjoint union
    return IndexSets(t_o=idx[in_to], t_1=idx[in_t1], t_2=idx[in_t2], t_3=idx[in_t3],
                     working=idx[in_to | in_t1])


@dataclass(frozen=True)
class ResidualParts:
    """Blocks of the stationarity residual and the index sets they were taken over."""

    grad_part: np.ndarray
    margin_part: np.ndarray
    dual_part: np.ndarray
    norm: float
    sets: IndexSets


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

    g = smooth_gradient(theta, cache)
    if working.size:
        g = g + cache.a[working].T @ z[working]
    margin_part = F[working]
    dual_part = z[~mask]
    norm = math.sqrt(float(g @ g) + float(margin_part @ margin_part)
                     + float(dual_part @ dual_part))
    return ResidualParts(grad_part=g, margin_part=margin_part, dual_part=dual_part,
                         norm=norm, sets=sets)


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

    g = smooth_gradient(theta, cache) + cache.a.T @ z
    grad_residual = float(np.linalg.norm(g))
    F = margins(theta, cache)
    p = ProxParams(alpha=alpha, lam=lam)
    prox_ok = bool(np.all(prox_contains(F, F + alpha * z, p, tol=tol)))

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


@dataclass(frozen=True)
class MultiplierRecovery:
    z: np.ndarray
    rank: int
    rank_deficient: bool
    grad_residual: float


def recover_multiplier(theta: SurfaceParams, working: np.ndarray,
                       cache: DesignCache) -> MultiplierRecovery:
    """Least-squares dual for a working set: min over z_T of ||grad f + a_T' z_T||.

    Entries off the working set are zero.  A rank-deficient a_T is flagged and
    the minimum-norm solution returned.
    """
    working = np.asarray(working, dtype=int).ravel()
    z = np.zeros(cache.n)
    g = smooth_gradient(theta, cache)
    if working.size == 0:
        return MultiplierRecovery(z=z, rank=0, rank_deficient=False,
                                  grad_residual=float(np.linalg.norm(g)))
    At = cache.a[working].T  # (d, |T|)
    sol, _, rank, _ = np.linalg.lstsq(At, -g, rcond=None)
    z[working] = sol
    res = float(np.linalg.norm(g + At @ sol))
    return MultiplierRecovery(z=z, rank=int(rank),
                              rank_deficient=bool(rank < working.size), grad_residual=res)


def assumption_rank_check(working: np.ndarray, cache: DesignCache):
    """Linear independence of the margin-gradient rows on the working set.

    Returns (independent, numeric_rank); rank uses the singular-value cutoff
    max(dims) * eps * sigma_max.
    """
    working = np.asarray(working, dtype=int).ravel()
    if working.size == 0:
        return True, 0
    A = cache.a[working]
    sv = np.linalg.svd(A, compute_uv=False)
    cutoff = max(A.shape) * _EPS * (sv[0] if sv.size else 0.0)
    rank = int(np.count_nonzero(sv > cutoff))
    return rank == working.size, rank


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
    (a NaN or inf in K, or a finite K whose column sums overflow).
    """
    anorm = lapack.dlange("1", K.T)
    if not (math.isfinite(anorm) or np.isfinite(K).all()) or not np.isfinite(rhs).all():
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


@dataclass(frozen=True)
class SecondOrderReport:
    sigma_min: float
    sigma_max: float
    nonsingular: bool


def second_order_check(working: np.ndarray, cache: DesignCache, gamma: float = 0.0,
                       all_subsets: bool = False) -> SecondOrderReport:
    """Extreme singular values of the augmented matrix over the working set.

    Nonsingularity of this matrix is the computable second-order sufficiency
    surrogate.  With `all_subsets` (permitted up to |working| = 12) the sweep
    covers every subset of the working set and reports the worst sigma_min;
    by default only the given set is factored.
    """
    working = np.asarray(working, dtype=int).ravel()
    subsets = [working]
    if all_subsets:
        if working.size > 12:
            raise ValueError(f"subset sweep limited to 12 indices, got {working.size}")
        subsets = [np.array(s, dtype=int)
                   for r in range(working.size + 1)
                   for s in itertools.combinations(working.tolist(), r)]

    sigma_min = math.inf
    sigma_max = 0.0
    nonsingular = True
    for sub in subsets:
        sv = scipy.linalg.svdvals(saddle_matrix(sub, cache, gamma))
        lo, hi = float(sv[-1]), float(sv[0])
        sigma_min = min(sigma_min, lo)
        sigma_max = max(sigma_max, hi)
        nonsingular = nonsingular and bool(lo > cache.d * _EPS * hi)
    return SecondOrderReport(sigma_min=sigma_min, sigma_max=sigma_max, nonsingular=nonsingular)
