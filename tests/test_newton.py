import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import quadsurf.newton as qs_newton
from quadsurf import (Dataset, GenSpec, SolveStatus, SolverConfig, SolverState,
                      SurfaceParams, accuracy, build_design, gamma_update, generate,
                      index_sets, load_csv, margins, newton_direction, rate_probe, residual,
                      solve)
from quadsurf.newton import GAMMA_FLOOR
from quadsurf.stationarity import solve_symmetric

from conftest import random_dataset


class TestGammaUpdate:
    def test_residual_branch(self):
        assert gamma_update(0.1, 0.5, 1.0, 0.01) == pytest.approx(0.01)

    def test_shrink_branch(self):
        assert gamma_update(0.1, 0.5, 1.0, 10.0) == pytest.approx(0.05)

    def test_floor(self):
        assert gamma_update(0.1, 0.5, 1.0, 0.0) == GAMMA_FLOOR

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gamma_update(-1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_update(0.1, 1.5, 1.0, 1.0)


def make_state(theta, z, cache, alpha, lam):
    F = margins(theta, cache)
    sets = index_sets(F, z, alpha, lam)
    res = residual(theta, z, sets.working, cache)
    return SolverState(theta=theta, z=z, gamma=1.0, working=sets, residual=res, iter=0)


class TestNewtonDirection:
    def test_empty_working_tikhonov(self, rng, small_cache):
        v = rng.normal(size=small_cache.d)
        theta = SurfaceParams.from_vector(v, small_cache.m)
        z = np.zeros(small_cache.n)
        state = make_state(theta, z, small_cache, alpha=1e-9, lam=1e-9)
        assert state.working.working.size == 0
        gamma = 0.05
        d_theta, d_zw, d_zr = newton_direction(state, small_cache, gamma)
        expect = np.linalg.solve(small_cache.G + gamma * np.eye(small_cache.d),
                                 -state.residual.grad_part)
        np.testing.assert_allclose(d_theta, expect, rtol=1e-10)
        np.testing.assert_array_equal(d_zr, -z[np.arange(small_cache.n)])

    def test_stationary_point_zero_direction(self, rng):
        from test_stationarity import exact_pair
        data, cache, theta, z, T = exact_pair(rng)
        from quadsurf import alpha_bounds
        _, _, astar = alpha_bounds(margins(theta, cache), z, lam=1.0, atol=1e-9)
        alpha = 0.5 * min(astar, 1.0)
        F = margins(theta, cache)
        sets = index_sets(F, z, alpha, 1.0)
        res = residual(theta, z, sets.working, cache)
        state = SolverState(theta=theta, z=z, gamma=1.0, working=sets, residual=res, iter=0)
        d_theta, d_zw, d_zr = newton_direction(state, cache, gamma=1e-3)
        assert np.linalg.norm(d_theta) < 1e-9
        assert np.linalg.norm(d_zw) < 1e-9

    def test_matches_dense_solve(self, rng):
        # m=1, n=2 hand-built instance against an independent block assembly
        data = Dataset(points=np.array([[1.0], [-1.0]]), labels=np.array([1.0, -1.0]))
        cache = build_design(data)
        theta = SurfaceParams(np.array([0.3]), np.array([0.4]), -0.2)
        z = np.array([0.5, 0.1])
        state = make_state(theta, z, cache, alpha=1.0, lam=10.0)
        T = state.working.working
        assert T.size > 0
        gamma = 0.01
        d_theta, d_zw, _ = newton_direction(state, cache, gamma)

        A = cache.a[T]
        K = np.block([[cache.G, A.T], [A, -gamma * np.eye(T.size)]])
        rhs = -np.concatenate([state.residual.grad_part, state.residual.margin_part])
        expect = np.linalg.solve(K, rhs)
        np.testing.assert_allclose(np.concatenate([d_theta, d_zw]), expect, rtol=1e-9)

    def test_direction_consistency(self, rng):
        # plugging the direction back reproduces the negated residual blocks
        data = random_dataset(rng, 8, 2)
        cache = build_design(data)
        v = rng.normal(size=cache.d)
        theta = SurfaceParams.from_vector(v, 2)
        z = rng.normal(size=8) * 0.1
        state = make_state(theta, z, cache, alpha=0.5, lam=1.0)
        if state.working.working.size == 0:
            pytest.skip("working set empty for this draw")
        gamma = 0.05
        d_theta, d_zw, _ = newton_direction(state, cache, gamma)
        T = state.working.working
        A = cache.a[T]
        top = cache.G @ d_theta + A.T @ d_zw
        bottom = A @ d_theta - gamma * d_zw
        np.testing.assert_allclose(top, -state.residual.grad_part,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(bottom, -state.residual.margin_part,
                                   rtol=1e-9, atol=1e-12)


class TestSolve:
    def test_converges_on_circular(self, circ_data):
        rep = solve(circ_data, SolverConfig())
        assert rep.status is SolveStatus.CONVERGED
        assert rep.final.iter <= 20
        assert accuracy(rep.final.theta, circ_data) == 1.0
        assert rep.final.residual.norm < 1e-8
        assert rep.certificate.passed

    def test_linear_data_separates(self):
        data = generate(GenSpec(kind="linear", n_per_class=50, seed=3))
        rep = solve(data, SolverConfig())
        assert rep.status is SolveStatus.CONVERGED
        F = margins(rep.final.theta, build_design(data))
        # active margins are exact zeros up to rounding dust
        assert int((F > 1e-12).sum()) == 0

    def test_infinite_eps_returns_immediately(self, circ_data):
        rep = solve(circ_data, SolverConfig(eps=math.inf))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.final.iter == 0
        assert len(rep.residual_trace) == 1

    def test_gamma_rule_holds_along_trace(self, circ_data):
        from quadsurf.baseline import warm_start_point
        cache = build_design(circ_data)
        cfg = SolverConfig(eps=1e-12, max_iter=30)
        th0, z0 = warm_start_point(circ_data, cache, cfg.lam, cfg.alpha, polish=False)
        rep = solve(circ_data, cfg, theta0=th0, z0=z0, cache=cache)
        gamma_prev = cfg.gamma_init
        for r, g in zip(rep.residual_trace, rep.gamma_trace):
            assert g == pytest.approx(max(min(cfg.tau * gamma_prev, cfg.rho * r),
                                          GAMMA_FLOOR))
            gamma_prev = g

    def test_off_working_duals_are_zeroed(self, circ_data):
        from quadsurf.baseline import warm_start_point
        cache = build_design(circ_data)
        cfg = SolverConfig(max_iter=3, eps=1e-16)
        th0, z0 = warm_start_point(circ_data, cache, cfg.lam, cfg.alpha, polish=False)
        rep = solve(circ_data, cfg, theta0=th0, z0=z0, cache=cache)
        z = rep.final.z
        outside = np.setdiff1d(np.arange(cache.n), rep.final.working.working)
        np.testing.assert_array_equal(z[outside], 0.0)

    def test_report_serializes(self, circ_data):
        rep = solve(circ_data, SolverConfig())
        d = rep.to_dict()
        assert d["status"] == "converged"
        assert set(d) == {"status", "iters", "residual_trace", "gamma_trace",
                          "working_sizes", "certificate", "theta", "wall_time_s"}
        assert len(d["theta"]["wtri"]) == 3
        rep.to_json()

    def test_statuses_defined_on_degenerate_inputs(self, rng):
        one_label = Dataset(points=rng.normal(size=(12, 2)), labels=np.ones(12))
        rep = solve(one_label, SolverConfig())
        assert rep.status in set(SolveStatus)
        assert np.all(np.isfinite(rep.final.theta.to_vector()))

        pts = rng.normal(size=(6, 2))
        dup = Dataset(points=np.vstack([pts, pts[:3]]),
                      labels=np.concatenate([np.ones(6), -np.ones(3)]))
        rep = solve(dup, SolverConfig())
        assert rep.status in set(SolveStatus)
        assert np.all(np.isfinite(rep.final.z))


class TestSolveFailures:
    def test_singular_step_keeps_partial_trace(self, circ_data, monkeypatch):
        from quadsurf.baseline import warm_start_point
        cache = build_design(circ_data)
        cfg = SolverConfig(eps=1e-12, max_iter=30)
        th0, z0 = warm_start_point(circ_data, cache, cfg.lam, cfg.alpha, polish=False)
        calls = []

        def fail_second_step(K, rhs, positive_definite=False):
            calls.append(1)
            if len(calls) == 2:
                raise LinAlgError("injected")
            return solve_symmetric(K, rhs, positive_definite)

        monkeypatch.setattr(qs_newton, "solve_symmetric", fail_second_step)
        rep = solve(circ_data, cfg, theta0=th0, z0=z0, cache=cache)
        assert rep.status is SolveStatus.SINGULAR_SYSTEM
        assert math.isfinite(rep.sigma_min) and rep.sigma_min >= 0.0
        assert rep.final.iter == 1
        assert len(rep.residual_trace) == len(rep.gamma_trace) == 2
        assert len(rep.working_sizes) == 2
        assert rep.final.residual.norm == rep.residual_trace[-1]
        rep.to_json()

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_failed_warm_start_reports_singular_system(self):
        # features scaled by 1e6 put G's entries near 1e24, and Cholesky
        # rejects the warm start's squared-hinge Newton matrix
        iris = load_csv(Path(__file__).resolve().parent.parent / "data" / "iris.csv",
                        class_pair=(1, 2))
        rep = solve(Dataset(iris.points * 1e6, iris.labels), SolverConfig(lam=100.0))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM
        assert rep.final.iter == 0 and rep.gamma_trace == []
        assert len(rep.residual_trace) == 1
        np.testing.assert_array_equal(rep.final.theta.to_vector(), 0.0)
        np.testing.assert_array_equal(rep.final.z, 0.0)
        assert rep.to_dict()["status"] == "singular_system"


class TestRateProbe:
    def test_geometric_is_not_quadratic(self):
        trace = [2.0 ** -k for k in range(41)]
        pr = rate_probe(trace)
        assert not pr.inconclusive
        assert not pr.quadratic

    def test_exact_quadratic(self):
        trace = [10.0 ** -(2 ** k) for k in range(5)]
        pr = rate_probe(trace)
        assert pr.quadratic
        assert pr.fitted_C == pytest.approx(1.0, rel=1e-6)

    def test_short_trace_inconclusive(self):
        pr = rate_probe([1.0, 0.5, 1e-3])
        assert pr.inconclusive

    def test_solver_trace_quadratic(self):
        from quadsurf.baseline import warm_start_point
        data = generate(GenSpec(kind="convex2d", n_per_class=50, seed=2))
        cache = build_design(data)
        cfg = SolverConfig(alpha=4e-6, rho=3.0, eps=1e-10, max_iter=20)
        th0, z0 = warm_start_point(data, cache, cfg.lam, cfg.alpha, polish=False)
        rep = solve(data, cfg, theta0=th0, z0=z0, cache=cache)
        pr = rate_probe(rep.residual_trace)
        assert rep.status is SolveStatus.CONVERGED
        assert pr.quadratic
