"""The 0-1 loss, its positive-count norm, and their proximal operator.

The prox of ``u -> lam * step(u)`` with step size ``alpha`` has a closed
form: inputs strictly between 0 and ``sqrt(2*lam*alpha)`` collapse to 0,
inputs outside ``[0, sqrt(2*lam*alpha)]`` pass through, and the two
boundary points map to the two-element set {0, z}.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProxParams:
    """Step/penalty pair (alpha, lam) with the derived threshold sqrt(2*lam*alpha)."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.lam > 0):
            raise ValueError(f"alpha and lam must be positive, got {self.alpha}, {self.lam}")

    @property
    def threshold(self) -> float:
        return math.sqrt(2.0 * self.lam * self.alpha)


def zero_one_loss(t: float) -> int:
    """1 for strictly positive t, 0 otherwise."""
    if not math.isfinite(t):
        raise ValueError(f"non-finite argument {t}")
    return 1 if t > 0.0 else 0


def positive_count(u: np.ndarray) -> int:
    """Number of strictly positive entries of u."""
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite entries")
    return int(np.count_nonzero(u > 0.0))


def prox_scalar(z: float, p: ProxParams, tie_to_zero: bool = True) -> float:
    """Closed-form prox of lam*step at z.

    At the boundary values z in {0, threshold} both 0 and z attain the prox
    objective; `tie_to_zero` picks which one is returned.
    """
    if not math.isfinite(z):
        raise ValueError(f"non-finite argument {z}")
    thr = p.threshold
    if z == 0.0 or z == thr:
        return 0.0 if tie_to_zero else z
    if 0.0 < z < thr:
        return 0.0
    return z


def prox_vector(z: np.ndarray, p: ProxParams, tie_to_zero: bool = True) -> np.ndarray:
    """Componentwise `prox_scalar`."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite entries")
    thr = p.threshold
    out = z.copy()
    interior = (z > 0.0) & (z < thr)
    out[interior] = 0.0
    boundary = (z == 0.0) | (z == thr)
    out[boundary] = 0.0 if tie_to_zero else z[boundary]
    return out


def prox_contains(u, z, p: ProxParams, tol: float = 0.0):
    """Whether u lies in the (set-valued) prox of z, both boundary values admitted.

    With tol > 0 the branch tests on z and the membership comparisons are
    relaxed by the same absolute tolerance.  Works elementwise on arrays
    (returning a boolean array); scalar inputs give a bool.
    """
    u = np.asarray(u, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    thr = p.threshold
    boundary = (np.abs(z) <= tol) | (np.abs(z - thr) <= tol)
    interior = (0.0 < z) & (z < thr)
    out = np.where(boundary, np.minimum(np.abs(u), np.abs(u - z)) <= tol,
                   np.where(interior, np.abs(u) <= tol, np.abs(u - z) <= tol))
    return bool(out) if out.ndim == 0 else out
