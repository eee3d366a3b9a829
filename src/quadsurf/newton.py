"""Damped Newton iteration on the stationarity residual.

Each step classifies the samples into a working set from the current
(theta, z), then solves one symmetric augmented system

    [ G      a_T' ] [ d_theta ]   [ -(grad f + a_T' z_T) ]
    [ a_T   -g I  ] [ d_z_T   ] = [ -F_T                 ]

with the perturbation g = 0.1 at first, then halved or set to rho * ||Psi||,
whichever is smaller, never below 1e-14; rho is the schedule's only setting.
Duals off the working set are reset to zero.  Because the smooth part is
quadratic and the margins affine, the residual for a fixed working set is
affine in (theta, z) and the local rate is quadratic once that set settles.
"""

import enum
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import LinAlgError

from .baseline import warm_start_point
from .model import Dataset, DesignCache, SurfaceParams, _integer_setting, build_design
from .stationarity import (IndexSets, PStatCertificate, ResidualParts, _certify, regular,
                           residual, saddle_matrix, solve_symmetric)

GAMMA_INIT, GAMMA_SHRINK, GAMMA_FLOOR = 0.1, 0.5, 1e-14  # see gamma_update
SAFEGUARD_WINDOW = 5  # consecutive residual increases that end a solve as diverged
RATE_CAP, RATE_FLOOR, RATE_WINDOW = 1e-2, 1e-14, 5  # see rate_probe


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    SINGULAR_SYSTEM = "singular_system"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver parameters.

    lam              margin-violation penalty (weight of the 0-1 loss count)
    alpha            prox step entering the working-set classification
    rho              residual multiplier, the perturbation schedule's only setting
    eps              stop tolerance on the residual norm
    max_iter         Newton step budget
    """

    lam: float = 10.0
    alpha: float = 1e-6
    rho: float = 1.0
    eps: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        for name in ("lam", "alpha", "rho", "eps"):
            value = getattr(self, name)
            # True > 0 holds, so a bool would pass as 1.0 and be recorded as true
            if isinstance(value, (bool, np.bool_)) or not value > 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        object.__setattr__(self, "max_iter", _integer_setting("max_iter", self.max_iter, 1))


@dataclass(frozen=True)
class SolverState:
    theta: SurfaceParams
    z: np.ndarray
    gamma: float
    residual: ResidualParts
    iter: int

    @property
    def working(self) -> IndexSets:
        """Index sets of the iterate, as its residual classified them."""
        return self.residual.sets


def gamma_update(gamma_prev: float, rho: float, resid_norm: float) -> float:
    """Perturbation update min(GAMMA_SHRINK*gamma_prev, rho*resid_norm), floored."""
    if not (gamma_prev > 0 and rho > 0 and resid_norm >= 0):
        raise ValueError("invalid gamma_update arguments")
    return max(min(GAMMA_SHRINK * gamma_prev, rho * resid_norm), GAMMA_FLOOR)


def newton_direction(state: SolverState, cache: DesignCache):
    """One augmented-system solve at perturbation state.gamma; returns (d_theta, d_z_working).

    Duals off the working set take no direction: the step resets them to
    zero.  An empty working set degenerates to the Tikhonov-damped smooth
    step (G + gamma I) d_theta = -grad f.  A system LAPACK refuses, non-finite
    input or a non-finite solution gives None; a solution LAPACK flags as
    ill-conditioned (rcond below machine epsilon) is returned without a
    warning.
    """
    gamma = state.gamma
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    working = state.working.working

    if working.size == 0:
        K = cache.G + gamma * np.eye(cache.d)
        rhs = -state.residual.grad_part
    else:
        K = saddle_matrix(working, cache, gamma)
        rhs = -np.concatenate([state.residual.grad_part, state.residual.margin_part])
    try:
        sol, _ = solve_symmetric(K, rhs, positive_definite=working.size == 0)
    except ValueError:
        sol = None
    if sol is None or not np.all(np.isfinite(sol)):
        return None
    return sol[:cache.d], sol[cache.d:]


@dataclass(frozen=True)
class SolveReport:
    final: SolverState
    residual_trace: list
    gamma_trace: list
    working_sizes: list
    status: SolveStatus
    certificate: PStatCertificate
    # `stationarity.regular` on the final working set.  The certificate can pass
    # a point the local rate does not cover, a constant surface among them.
    regular: bool
    config: SolverConfig  # the parameters `solve` ran with
    # Seconds in each phase of `solve`: "design", "warm_start" (0.0 when `start`
    # was given), "newton" (the loop) and "certificate" (with the regularity
    # verdict; the certificate reuses the loop's last margins and G theta, and
    # the verdict the polish's factorization when the fit ends on its set).
    # They sum to at most wall_time.
    phase_s: dict
    wall_time: float

    def to_dict(self) -> dict:
        theta = self.final.theta
        return {
            "status": self.status.value,
            "regular": self.regular,
            "iters": self.final.iter,
            "residual_trace": [float(r) for r in self.residual_trace],
            "gamma_trace": [float(g) for g in self.gamma_trace],
            "working_sizes": [int(w) for w in self.working_sizes],
            "certificate": self.certificate.to_dict(),
            "config": asdict(self.config),
            "theta": {"wtri": theta.wtri.tolist(), "b": theta.b.tolist(), "c": theta.c},
            "phase_s": dict(self.phase_s),
            "wall_time_s": self.wall_time,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def solve(data: Dataset, config: SolverConfig = SolverConfig(),
          start: tuple = None) -> SolveReport:
    """Run the damped Newton iteration until the residual drops below eps.

    `start` is an initial pair (theta0, z0), as `warm_start_point` returns
    it; by default the warm start is run on the design, which is built from
    `data` once.  The stop test precedes the first step, so with eps = inf
    the initial point is returned untouched.  Iterates leaving the finite
    range or a run of SAFEGUARD_WINDOW consecutive residual increases end
    the solve with status `diverged`; an unfactorable system ends it with
    `singular_system` and the partial trace retained, as does a failed
    solve in the warm start, at theta = 0 and z = 0 before any step.
    Whatever the status, the report certifies the final point and judges
    whether its working set is `regular`.
    """
    t0 = time.perf_counter()
    cache = build_design(data)
    t_design = t_warm = time.perf_counter()

    status = None  # set before the loop only when the warm start fails
    if start is None:
        try:
            start = warm_start_point(cache, alpha=config.alpha, lam=config.lam)
        except LinAlgError:
            start = SurfaceParams.zeros(cache.m), np.zeros(cache.n)
            status = SolveStatus.SINGULAR_SYSTEM
        t_warm = time.perf_counter()
    theta, z = start
    z = np.asarray(z, dtype=np.float64).copy()
    if z.shape != (cache.n,):
        raise ValueError(f"z0 has shape {z.shape}, expected ({cache.n},)")

    gamma = GAMMA_INIT
    residual_trace, gamma_trace, working_sizes = [], [], []
    consecutive_up = 0
    k = 0
    while True:
        res = residual(theta, z, config.alpha, config.lam, cache)
        residual_trace.append(res.norm)
        working = res.sets.working
        working_sizes.append(int(working.size))

        if status is not None:
            break
        if not math.isfinite(res.norm):
            status = SolveStatus.DIVERGED
            break
        if res.norm < config.eps:
            status = SolveStatus.CONVERGED
            break
        if k >= config.max_iter:
            status = SolveStatus.MAX_ITER
            break
        if len(residual_trace) >= 2 and residual_trace[-1] > residual_trace[-2]:
            consecutive_up += 1
        else:
            consecutive_up = 0
        if consecutive_up >= SAFEGUARD_WINDOW:
            status = SolveStatus.DIVERGED
            break

        gamma = gamma_update(gamma, config.rho, res.norm)
        gamma_trace.append(gamma)
        state = SolverState(theta=theta, z=z, gamma=gamma, residual=res, iter=k)
        direction = newton_direction(state, cache)
        if direction is None:
            status = SolveStatus.SINGULAR_SYSTEM
            break
        d_theta, d_z_working = direction

        theta = SurfaceParams.from_vector(theta.to_vector() + d_theta, cache.m)
        z_new = np.zeros(cache.n)
        z_new[working] = z[working] + d_z_working
        z = z_new
        k += 1

    t_newton = time.perf_counter()
    final = SolverState(theta=theta, z=z, gamma=gamma, residual=res, iter=k)
    # res was evaluated at the final (theta, z): every exit above follows a residual
    certificate = _certify(res.F, res.G_theta, z, config.alpha, config.lam, cache,
                           tol=config.eps * 10.0)
    is_regular = regular(res.sets.working, cache)
    t_cert = time.perf_counter()
    phase_s = {"design": t_design - t0, "warm_start": t_warm - t_design,
               "newton": t_newton - t_warm, "certificate": t_cert - t_newton}
    return SolveReport(final=final, residual_trace=residual_trace, gamma_trace=gamma_trace,
                       working_sizes=working_sizes, status=status, certificate=certificate,
                       regular=is_regular, config=config, phase_s=phase_s,
                       wall_time=time.perf_counter() - t0)


@dataclass(frozen=True)
class RateProbe:
    fitted_C: float
    quadratic: bool
    inconclusive: bool
    fit_residual: float
    n_pairs: int


def rate_probe(trace) -> RateProbe:
    """Fit C in r_{k+1} ~ C * r_k^2 over the terminal decreasing tail.

    The tail is the longest strictly decreasing suffix of the trace clipped
    to entries <= RATE_CAP; fewer than 4 such entries is inconclusive.  The
    fit uses the last RATE_WINDOW tail entries, excluding pairs whose successor
    is below max(RATE_FLOOR, 3 * tail minimum), the trace's arithmetic floor,
    where rounding flattens the decay whatever the rate.  `quadratic` needs a
    finite C, a log10-space RMS deviation below 0.5, and the quadratic model to
    explain the pairs at least as well as a constant ratio (a linear rate).
    """
    r = np.asarray(trace, dtype=np.float64).ravel()
    start = r.size - 1
    while start > 0 and r[start - 1] > r[start]:
        start -= 1
    tail = r[start:]
    tail = tail[tail <= RATE_CAP]
    if tail.size < 4:
        return RateProbe(math.nan, False, True, math.nan, 0)
    cut = max(RATE_FLOOR, 3.0 * float(tail.min()))
    span = tail[-RATE_WINDOW:]
    pairs = [(a, b) for a, b in zip(span[:-1], span[1:]) if a > 0 and b >= cut]
    if len(pairs) < 2:
        return RateProbe(math.nan, False, True, math.nan, len(pairs))
    logc = np.array([math.log10(b) - 2.0 * math.log10(a) for a, b in pairs])
    logg = np.array([math.log10(b) - math.log10(a) for a, b in pairs])
    rms = float(np.sqrt(np.mean((logc - logc.mean()) ** 2)))
    rms_geometric = float(np.sqrt(np.mean((logg - logg.mean()) ** 2)))
    fitted_C = 10.0 ** float(logc.mean())
    quadratic = math.isfinite(fitted_C) and rms < 0.5 and rms <= rms_geometric
    return RateProbe(fitted_C, quadratic, False, rms, len(pairs))
