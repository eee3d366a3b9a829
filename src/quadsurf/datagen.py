"""Deterministic 2-d synthetic datasets: linear, circular, and parabolic splits.

Each generator places the two classes on opposite sides of a known
surface with a guaranteed gap, so a classifier with 100% training
accuracy always exists; `generating_surface` returns that surface scaled
to the unit-margin convention y_i * h(x_i) >= 1 on every sample.
"""

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import Dataset, SurfaceParams, _integer_setting


class Kind(enum.Enum):
    LINEAR = "linear"
    CIRCULAR = "circular"
    CONVEX2D = "convex2d"


@dataclass(frozen=True)
class GenSpec:
    kind: Kind
    n_per_class: int = 50
    seed: int = 0
    noise: float = 0.0

    def __post_init__(self):
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "n_per_class",
                           _integer_setting("n_per_class", self.n_per_class, 1))
        object.__setattr__(self, "seed", _integer_setting("seed", self.seed, 0))
        # nan fails every comparison and inf overflows the jitter's projection
        noise = self.noise
        if (isinstance(noise, bool) or not isinstance(noise, numbers.Real)
                or not (math.isfinite(noise) and noise >= 0)):
            raise ValueError(f"noise must be a finite number >= 0, got {noise!r}")


# circular geometry: positives inside radius 1, negatives in the [1.4, 2.5] annulus
_R_IN, _R_LO, _R_HI = 1.0, 1.4, 2.5
_GAP = 0.3  # half-width of the parabola band


def _build_linear(spec: GenSpec, rng):
    k = spec.n_per_class
    phi = rng.uniform(0.0, 2.0 * np.pi)
    w = np.array([np.cos(phi), np.sin(phi)])
    offset = rng.uniform(-0.5, 0.5)
    tang = np.array([-w[1], w[0]])

    labels = np.concatenate([np.ones(k), -np.ones(k)])
    clearance = 0.2 + rng.uniform(0.0, 1.8, size=2 * k)
    along = rng.uniform(-2.0, 2.0, size=2 * k)
    pts = (along[:, None] * tang[None, :]
           + (labels * clearance - offset)[:, None] * w[None, :])

    if spec.noise > 0:
        pts = pts + rng.normal(0.0, spec.noise, size=pts.shape)
        t = labels * (pts @ w + offset)
        short = t < 0.2  # push jittered points back to the 0.2 clearance
        pts[short] += ((0.2 - t[short]) * labels[short])[:, None] * w[None, :]

    surface = SurfaceParams(np.zeros(3), w / 0.2, offset / 0.2)
    return pts, labels, surface


def _build_circular(spec: GenSpec, rng):
    k = spec.n_per_class
    labels = np.concatenate([np.ones(k), -np.ones(k)])
    r = np.concatenate([rng.uniform(0.05, 0.97, size=k),
                        rng.uniform(_R_LO, _R_HI, size=k)])
    ang = rng.uniform(0.0, 2.0 * np.pi, size=2 * k)
    pts = r[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])

    if spec.noise > 0:
        pts = pts + rng.normal(0.0, spec.noise, size=pts.shape)
        rj = np.linalg.norm(pts, axis=1)
        rj = np.where(rj == 0.0, 1e-9, rj)
        target = np.where(labels > 0, np.minimum(rj, 0.97), np.clip(rj, _R_LO, _R_HI))
        pts = pts * (target / rj)[:, None]

    # h = kappa*(r0^2 - |x|^2) hits +1 at radius 1 and -1 at radius 1.4
    kappa = 2.0 / (_R_LO**2 - _R_IN**2)
    r0sq = 0.5 * (_R_IN**2 + _R_LO**2)
    surface = SurfaceParams([-2.0 * kappa, -2.0 * kappa, 0.0], np.zeros(2), kappa * r0sq)
    return pts, labels, surface


def _build_convex2d(spec: GenSpec, rng):
    k = spec.n_per_class
    labels = np.concatenate([np.ones(k), -np.ones(k)])
    x1 = rng.uniform(-1.5, 1.5, size=2 * k)
    lift = rng.uniform(0.0, 1.5, size=2 * k)
    x2 = x1**2 + labels * (_GAP + lift)
    pts = np.column_stack([x1, x2])

    if spec.noise > 0:
        pts = pts + rng.normal(0.0, spec.noise, size=pts.shape)
        bound = pts[:, 0] ** 2 + labels * _GAP
        off = labels * (pts[:, 1] - bound) < 0  # crossed into the band
        pts[off, 1] = bound[off]

    kappa = 1.0 / _GAP
    surface = SurfaceParams([-2.0 * kappa, 0.0, 0.0], np.array([0.0, kappa]), 0.0)
    return pts, labels, surface


_BUILDERS = {
    Kind.LINEAR: _build_linear,
    Kind.CIRCULAR: _build_circular,
    Kind.CONVEX2D: _build_convex2d,
}


def _build(spec: GenSpec):
    rng = np.random.default_rng(spec.seed)
    pts, labels, surface = _BUILDERS[spec.kind](spec, rng)
    return Dataset(points=pts, labels=labels), surface


def generate(spec: GenSpec) -> Dataset:
    """Sample the dataset described by `spec`; identical specs give identical data."""
    return _build(spec)[0]


def generating_surface(spec: GenSpec) -> SurfaceParams:
    """The surface the generator separated the classes with (unit-margin scaled)."""
    return _build(spec)[1]
