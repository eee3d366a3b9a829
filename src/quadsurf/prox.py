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
        # alpha * z and the threshold enter every working-set test: both must stay finite
        if not (0 < self.alpha < math.inf and 0 < self.lam < math.inf
                and math.isfinite(self.threshold)):
            raise ValueError("alpha and lam must be positive and finite, with a finite "
                             f"sqrt(2*lam*alpha), got alpha={self.alpha}, lam={self.lam}")

    @property
    def threshold(self) -> float:
        return math.sqrt(2.0 * self.lam * self.alpha)


def prox_branches(s, thr: float, tol: float = 0.0):
    """The prox's case split of s at threshold thr: masks (boundary, interior).

    `boundary` is within tol of a break point {0, thr}, where the prox is {0, s};
    `interior` is the rest of (0, thr), where it is 0; elsewhere s passes through.
    The Newton index sets T_2, T_1 and the warm start's active set are this split.
    """
    boundary = (np.abs(s) <= tol) | (np.abs(s - thr) <= tol)
    interior = (0.0 < s) & (s < thr) & ~boundary
    return boundary, interior


def positive_count(u: np.ndarray) -> int:
    """Number of strictly positive entries of u."""
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite entries")
    return int(np.count_nonzero(u > 0.0))


def zero_one_loss(t: float) -> int:
    """1 for strictly positive t, 0 otherwise."""
    return positive_count(t)


def prox_vector(z: np.ndarray, p: ProxParams, tie_to_zero: bool = True) -> np.ndarray:
    """Closed-form prox of lam*step at each entry of z.

    At the break points z in {0, threshold} both 0 and z attain the prox
    objective; `tie_to_zero` picks which one is returned.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite entries")
    boundary, interior = prox_branches(z, p.threshold)
    return np.where(interior | boundary if tie_to_zero else interior, 0.0, z)


def prox_scalar(z: float, p: ProxParams, tie_to_zero: bool = True) -> float:
    """`prox_vector` at a single z."""
    return float(prox_vector(z, p, tie_to_zero))


def prox_contains(u, z, p: ProxParams, tol: float = 0.0):
    """Whether u lies in the (set-valued) prox of z, both boundary values admitted.

    With tol > 0 the branch tests on z and the membership comparisons are
    relaxed by the same absolute tolerance.  Works elementwise on arrays
    (returning a boolean array); scalar inputs give a bool.
    """
    u = np.asarray(u, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    boundary, interior = prox_branches(z, p.threshold, tol)
    to_zero, to_z = np.abs(u), np.abs(u - z)
    out = np.where(boundary, np.minimum(to_zero, to_z) <= tol,
                   np.where(interior, to_zero <= tol, to_z <= tol))
    return bool(out) if out.ndim == 0 else out
