"""Quadratic separating surfaces and the smooth part of the training objective.

A classifier is the sign of ``h(x) = 0.5 * x'Wx + b'x + c`` with ``W``
symmetric.  Everything here works in the reduced parameter vector
``theta = (wtri, b, c)`` of dimension ``d = m(m+1)/2 + m + 1``, where
``wtri`` stacks the diagonal of ``W`` first and then the strict upper
triangle in row-major order.  In that coordinate system the per-sample
margin terms ``F_i(theta) = 1 - y_i * h(x_i)`` are affine and the smooth
regularizer ``f(theta) = sum_i 0.5 * ||W x_i + b||^2`` is a homogeneous
quadratic with constant Hessian ``G``.

``W x_i = M_i @ wtri`` for a sparse per-sample map ``M_i`` (m, p), so
``G = sum_i J_i' J_i`` with ``J_i = [M_i, I_m, 0]``.  Every ``M_i`` has the
same pattern, so ``build_design`` assembles G from ``X'X`` and the column
sums of X by fixed scatters, without forming the maps, and `smooth_value`
reads f as 0.5 theta'G theta.  The stack of maps itself is built only when
`DesignCache.M` is first read, which no library function does; it is there
for a caller that inspects a design.
"""

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


# Margins at or below this count as met in `total_loss`: it is the certificate's
# default tolerance (10 * SolverConfig.eps), within which a margin reads as zero.
# The zero margins of a certified point land within about 1e-13 of 0, some above it.
_VIOLATION_TOL = 1e-7


class InputError(ValueError):
    """Raised for malformed user-supplied data (bad CSV, non-finite features...)."""


def _integer_setting(name: str, value, least: int) -> int:
    """`value` as an int of at least `least`; ValueError for a bool or a non-integral value."""
    try:
        count = operator.index(value)  # numpy integers pass, floats do not
    except TypeError:
        count = None
    if count is None or isinstance(value, bool) or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def tri_dim(m: int) -> int:
    """Length of the packed symmetric-matrix vector for an m-by-m matrix."""
    return m * (m + 1) // 2


def param_dim(m: int) -> int:
    """Total dimension d of theta = (wtri, b, c) for m features."""
    return tri_dim(m) + m + 1


@lru_cache(maxsize=64)
def _pairs(m: int):
    """Index patterns of the packed wtri for m features, built once per m.

    Returns ``(iu, ju, rows, cols, src)``, all read-only.  ``(iu, ju)`` is
    the strict upper triangle in row-major order, the pairs behind slots
    m..p-1 of wtri.  ``(rows, cols, src)`` is the scatter of the per-sample
    maps: ``M_i[rows, cols] = x_i[src]``, i.e. diagonal slot j feeds row j
    with x_j and the slot of pair (j, k) feeds row j with x_k and row k
    with x_j.  Since ``M_i @ wtri = W x_i``, the same scatter assembles W
    as ``W[rows, src] = wtri[cols]``.
    """
    iu, ju = np.triu_indices(m, k=1)
    diag = np.arange(m)
    pair = m + np.arange(iu.size)
    rows = np.concatenate([diag, iu, ju])
    cols = np.concatenate([diag, pair, pair])
    src = np.concatenate([diag, ju, iu])
    out = (iu, ju, rows, cols, src)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _gram_scatter(m: int):
    """Flat index pairs ``(into, take)`` of sum_i M_i'M_i, built once per m.

    Entry (j, k) of sum_i M_i'M_i adds ``S[src_e, src_f]``, with S = X'X,
    over the pattern entries e, f of `_pairs` that share a row and sit in
    columns j and k.  ``take`` indexes those terms in the flattened S and
    ``into`` their entries in the flattened d-by-d G, in the same order,
    so ``np.bincount(into, S.ravel()[take], d * d)`` sums them.  Read-only.
    """
    _, _, rows, cols, src = _pairs(m)
    e, f = np.nonzero(rows[:, None] == rows[None, :])
    into = cols[e] * param_dim(m) + cols[f]
    take = src[e] * m + src[f]
    for arr in (into, take):
        arr.setflags(write=False)
    return into, take


@dataclass(frozen=True)
class Dataset:
    """Labeled sample set: feature rows `points` (n, m), labels in {-1, +1}."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        lbl = np.asarray(self.labels, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError(f"points must be a nonempty 2-d array, got shape {pts.shape}")
        if lbl.shape != (pts.shape[0],):
            raise InputError(f"labels shape {lbl.shape} does not match {pts.shape[0]} points")
        if not np.all(np.isfinite(pts)):
            raise InputError("non-finite feature values")
        if not np.all(np.abs(lbl) == 1.0):
            raise InputError("labels must be -1 or +1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lbl)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SurfaceParams:
    """Reduced surface parameters (wtri, b, c).

    `wtri` holds the m diagonal entries of W followed by the strict upper
    triangle (row-major), so the quadratic form is
    ``0.5 x'Wx = sum_j 0.5*w_jj*x_j^2 + sum_{j<k} w_jk*x_j*x_k``.

    `wtri` and `b` are read-only copies of the arrays passed in, so a
    surface never changes after construction.  0.5 W is assembled from them
    on first use and cached; `decision_values` is the batch read path and
    `predict` the 1-row one.
    """

    wtri: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        wtri = np.array(self.wtri, dtype=np.float64).ravel()
        b = np.array(self.b, dtype=np.float64).ravel()
        c = float(self.c)
        m = b.shape[0]
        if wtri.shape[0] != tri_dim(m):
            raise InputError(f"wtri has length {wtri.shape[0]}, expected {tri_dim(m)} for m={m}")
        if not (np.isfinite(wtri).all() and np.isfinite(b).all() and math.isfinite(c)):
            raise InputError("non-finite surface parameters")
        wtri.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "wtri", wtri)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.b.shape[0]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.wtri, self.b, [self.c]])

    @staticmethod
    def from_vector(theta: np.ndarray, m: int) -> "SurfaceParams":
        theta = np.asarray(theta, dtype=np.float64).ravel()
        if theta.shape[0] != param_dim(m):
            raise InputError(f"theta has length {theta.shape[0]}, expected {param_dim(m)}")
        p = tri_dim(m)
        return SurfaceParams(theta[:p], theta[p:p + m], float(theta[-1]))

    @staticmethod
    def zeros(m: int) -> "SurfaceParams":
        return SurfaceParams(np.zeros(tri_dim(m)), np.zeros(m), 0.0)

    @cached_property
    def _half_W(self) -> np.ndarray:
        """0.5 W assembled from the packed wtri (read-only); `matrix` doubles it exactly."""
        m = self.m
        _, _, rows, cols, src = _pairs(m)
        half_W = np.zeros((m, m))
        half_W[rows, src] = 0.5 * self.wtri[cols]
        half_W.setflags(write=False)
        return half_W

    @cached_property
    def _row_bound(self) -> float:
        """2-norm bound on a row x below which no product in `predict` can overflow.

        |h(x)| and each partial sum behind it are at most w s^2 + v s + |c| for
        s = ||x||, with w and v the 2-norms of 0.5 W (Frobenius) and b; the
        bound is the s at which that reaches 1e300 (0.0 when |c| is already
        there), or the largest float when h = c everywhere.
        """
        w = math.hypot(*self._half_W.ravel().tolist())
        v = math.hypot(*self.b.tolist())
        if w == v == 0.0:
            return sys.float_info.max
        r = 1e300 - abs(self.c)
        return 2.0 * r / (v + math.sqrt(v * v + 4.0 * w * r)) if r > 0.0 else 0.0

    def matrix(self) -> np.ndarray:
        """The full symmetric W, as a fresh array the caller may modify."""
        return 2.0 * self._half_W

    def decision_values(self, points: np.ndarray) -> np.ndarray:
        """h(x) = 0.5 x'Wx + b'x + c for each row x of `points`."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.m:
            raise InputError(f"points have {pts.shape[1]} features, surface expects {self.m}")
        # a non-finite row would warn inside the products; it is refused below
        with np.errstate(invalid="ignore", over="ignore"):
            quad = np.einsum("ij,ij->i", pts @ self._half_W, pts)
            h = quad + pts @ self.b + self.c
        if not np.isfinite(h).all():
            raise InputError("non-finite decision value (non-finite query point or overflow)")
        return h


def _packed_features(pts: np.ndarray) -> np.ndarray:
    """Rows s(x) with 0.5*x_j^2 in the diagonal slots and x_j*x_k off-diagonal."""
    n, m = pts.shape
    iu, ju = _pairs(m)[:2]
    s = np.empty((n, tri_dim(m)))
    s[:, :m] = 0.5 * pts**2
    s[:, m:] = pts[:, iu] * pts[:, ju]
    return s


def _per_sample_maps(pts: np.ndarray) -> np.ndarray:
    """Stack of the linear maps M_i with M_i @ wtri = W x_i, shape (n, m, p).

    Every M_i has the same sparsity pattern, so the whole stack is filled by
    one scatter of the feature columns (see `_pairs`); all other entries
    are zero.
    """
    n, m = pts.shape
    _, _, rows, cols, src = _pairs(m)
    M = np.zeros((n, m, tri_dim(m)))
    M[:, rows, cols] = pts[:, src]
    return M


@dataclass(frozen=True)
class DesignCache:
    """Precomputed affine/quadratic structure of a dataset.

    a : (n, d)  row i is the gradient of F_i, namely -y_i * (s(x_i); x_i; 1)
    G : (d, d)  constant Hessian of the smooth part; the c row/column is zero
    M : (n, m, p)  per-sample maps wtri -> W x_i, built from `a` on first
        read and kept; no library function reads it

    No fit writes to the design: a solve leaves it holding `a` and `G` alone.
    """

    a: np.ndarray
    G: np.ndarray

    n = property(lambda self: self.a.shape[0])
    d = property(lambda self: self.a.shape[1])
    # d = (m + 1)(m + 2) / 2 solved for m, so reading m builds no maps
    m = property(lambda self: (math.isqrt(8 * self.d + 1) - 3) // 2)

    @cached_property
    def M(self) -> np.ndarray:
        """The per-sample maps, `_per_sample_maps` of the feature rows held in `a`."""
        p, m = tri_dim(self.m), self.m
        # the labels are +-1, so the product recovers the feature rows exactly
        return _per_sample_maps(self.a[:, p:p + m] * self.a[:, -1:])


def build_design(data: Dataset) -> DesignCache:
    """Precompute the margins' gradient rows and the smooth Hessian."""
    pts, y = data.points, data.labels
    n, m = pts.shape
    p = tri_dim(m)
    d = param_dim(m)

    s = _packed_features(pts)
    a = np.empty((n, d))
    a[:, :p] = s
    a[:, p:p + m] = pts
    a[:, p + m] = 1.0
    a *= -y[:, None]

    # G = sum_i J_i' J_i with J_i = [M_i, I_m, 0]; the c block stays zero.  The
    # wtri block is a scatter of X'X, and the (b, wtri) block, sum_i M_i, one
    # of X's column sums.
    into, take = _gram_scatter(m)
    G = np.bincount(into, weights=(pts.T @ pts).ravel()[take], minlength=d * d).reshape(d, d)
    _, _, rows, cols, src = _pairs(m)
    colsum = pts.sum(axis=0)[src]
    G[p + rows, cols] = colsum
    G[cols, p + rows] = colsum
    diag = p + np.arange(m)
    G[diag, diag] = n
    G = 0.5 * (G + G.T)  # exact symmetry against accumulation order

    return DesignCache(a=a, G=G)


def _check_theta(theta: SurfaceParams, cache: DesignCache) -> np.ndarray:
    if theta.m != cache.m:
        raise InputError(f"surface has m={theta.m}, cache has m={cache.m}")
    return theta.to_vector()


def margins(theta: SurfaceParams, cache: DesignCache) -> np.ndarray:
    """Margin terms F_i(theta) = 1 - y_i h(x_i) = 1 + a_i . theta."""
    v = _check_theta(theta, cache)
    return 1.0 + cache.a @ v


def smooth_value(theta: SurfaceParams, cache: DesignCache) -> float:
    """f(theta) = sum_i 0.5 ||W x_i + b||^2, evaluated as 0.5 theta'G theta."""
    v = _check_theta(theta, cache)
    return float(0.5 * (v @ (cache.G @ v)))


def smooth_gradient(theta: SurfaceParams, cache: DesignCache) -> np.ndarray:
    """Gradient of the smooth part; equals G @ theta since f is quadratic."""
    v = _check_theta(theta, cache)
    return cache.G @ v


@dataclass(frozen=True)
class LossValue:
    smooth: float
    count: int
    total: float


def total_loss(theta: SurfaceParams, cache: DesignCache, lam: float) -> LossValue:
    """Smooth part plus lam times the number of margins violated by more than 1e-7."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    sm = smooth_value(theta, cache)
    count = int(np.count_nonzero(margins(theta, cache) > _VIOLATION_TOL))
    return LossValue(smooth=sm, count=count, total=sm + lam * count)


def predict(theta: SurfaceParams, x: np.ndarray) -> int:
    """Label a single point: +1 when h(x) >= 0, else -1 (ties go to +1)."""
    # A call takes a few µs, so each numpy call counts: a 1-d row skips the
    # ravel, and the row's 2-norm, one math.hypot call on it as a list (cheaper
    # than np.isfinite or np.errstate), shows that h is finite and computed
    # without overflow.  NaN and inf fail the comparison; only rows past the
    # bound pay for the checks.
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    if x.shape != theta.b.shape:
        raise InputError(f"point has {x.shape[0]} features, surface expects {theta.m}")
    row = x.tolist()
    if math.hypot(*row) <= theta._row_bound:
        h = x.dot(theta._half_W.dot(x) + theta.b) + theta.c
    elif not all(map(math.isfinite, row)):
        raise InputError("non-finite query point")
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            h = x.dot(theta._half_W.dot(x) + theta.b) + theta.c
        if not math.isfinite(h):
            raise InputError("non-finite decision value (non-finite query point or overflow)")
    return 1 if h >= 0.0 else -1


def predict_many(theta: SurfaceParams, points: np.ndarray) -> np.ndarray:
    """Vectorized `predict` over feature rows."""
    h = theta.decision_values(points)
    return np.where(h >= 0.0, 1.0, -1.0)
