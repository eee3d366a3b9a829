import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import quadsurf.model as qs_model
import quadsurf.newton as qs_newton
from quadsurf import (Dataset, GenSpec, SolveStatus, SolverConfig, SolverState,
                      SurfaceParams, accuracy, build_design, gamma_update, generate,
                      index_sets, load_csv, margins, newton_direction, rate_probe, residual,
                      solve, warm_start_point)
from quadsurf.newton import GAMMA_FLOOR
from quadsurf.stationarity import solve_symmetric

from conftest import iris_train, random_dataset


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


def make_state(theta, z, cache, alpha, lam, gamma):
    res = residual(theta, z, alpha, lam, cache)
    return SolverState(theta=theta, z=z, gamma=gamma, residual=res, iter=0)


class TestNewtonDirection:
    def test_empty_working_tikhonov(self, rng, small_cache):
        v = rng.normal(size=small_cache.d)
        theta = SurfaceParams.from_vector(v, small_cache.m)
        z = np.zeros(small_cache.n)
        gamma = 0.05
        state = make_state(theta, z, small_cache, alpha=1e-9, lam=1e-9, gamma=gamma)
        assert state.working.working.size == 0
        d_theta, d_zw = newton_direction(state, small_cache)
        expect = np.linalg.solve(small_cache.G + gamma * np.eye(small_cache.d),
                                 -state.residual.grad_part)
        np.testing.assert_allclose(d_theta, expect, rtol=1e-10)
        assert d_zw.size == 0

    def test_stationary_point_zero_direction(self, rng):
        from test_stationarity import exact_pair
        data, cache, theta, z, T = exact_pair(rng)
        from quadsurf import alpha_bounds
        _, _, astar = alpha_bounds(margins(theta, cache), z, lam=1.0, atol=1e-9)
        alpha = 0.5 * min(astar, 1.0)
        state = make_state(theta, z, cache, alpha=alpha, lam=1.0, gamma=1e-3)
        d_theta, d_zw = newton_direction(state, cache)
        assert np.linalg.norm(d_theta) < 1e-9
        assert np.linalg.norm(d_zw) < 1e-9

    def test_matches_dense_solve(self, rng):
        # m=1, n=2 hand-built instance against an independent block assembly
        data = Dataset(points=np.array([[1.0], [-1.0]]), labels=np.array([1.0, -1.0]))
        cache = build_design(data)
        theta = SurfaceParams(np.array([0.3]), np.array([0.4]), -0.2)
        z = np.array([0.5, 0.1])
        gamma = 0.01
        state = make_state(theta, z, cache, alpha=1.0, lam=10.0, gamma=gamma)
        T = state.working.working
        assert T.size > 0
        d_theta, d_zw = newton_direction(state, cache)

        A = cache.a[T]
        K = np.block([[cache.G, A.T], [A, -gamma * np.eye(T.size)]])
        rhs = -np.concatenate([state.residual.grad_part, state.residual.margin_part])
        expect = np.linalg.solve(K, rhs)
        np.testing.assert_allclose(np.concatenate([d_theta, d_zw]), expect, rtol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_flagged_step_is_taken_silently(self, monkeypatch):
        # a duplicated feature (x, y, y) makes the saddle matrix singular up to
        # rounding: LAPACK factors it and flags the solution, which is stepped from
        data = generate(GenSpec(kind="circular", n_per_class=50, seed=0))
        x, y = data.points.T
        cache = build_design(Dataset(points=np.column_stack([x, y, y]), labels=data.labels))
        cfg = SolverConfig(lam=100.0)
        theta, z = warm_start_point(cache, cfg.lam, cfg.alpha, polish=False)
        state = make_state(theta, z, cache, alpha=cfg.alpha, lam=cfg.lam, gamma=1e-3)
        solved = []

        def spy(K, rhs, positive_definite=False):
            solved.append(solve_symmetric(K, rhs, positive_definite))
            return solved[-1]

        monkeypatch.setattr(qs_newton, "solve_symmetric", spy)
        d_theta, d_zw = newton_direction(state, cache)
        (sol, rcond), = solved
        assert rcond < np.finfo(float).eps
        np.testing.assert_array_equal(np.concatenate([d_theta, d_zw]), sol)

    def test_direction_consistency(self, rng):
        # plugging the direction back reproduces the negated residual blocks
        data = random_dataset(rng, 8, 2)
        cache = build_design(data)
        v = rng.normal(size=cache.d)
        theta = SurfaceParams.from_vector(v, 2)
        z = rng.normal(size=8) * 0.1
        gamma = 0.05
        state = make_state(theta, z, cache, alpha=0.5, lam=1.0, gamma=gamma)
        if state.working.working.size == 0:
            pytest.skip("working set empty for this draw")
        d_theta, d_zw = newton_direction(state, cache)
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
        cache = build_design(circ_data)
        cfg = SolverConfig(eps=1e-12, max_iter=30)
        th0, z0 = warm_start_point(cache, cfg.lam, cfg.alpha, polish=False)
        rep = solve(circ_data, cfg, start=(th0, z0))
        gamma_prev = cfg.gamma_init
        for r, g in zip(rep.residual_trace, rep.gamma_trace):
            assert g == pytest.approx(max(min(cfg.tau * gamma_prev, cfg.rho * r),
                                          GAMMA_FLOOR))
            gamma_prev = g

    def test_off_working_duals_are_zeroed(self, circ_data):
        cache = build_design(circ_data)
        cfg = SolverConfig(max_iter=3, eps=1e-16)
        th0, z0 = warm_start_point(cache, cfg.lam, cfg.alpha, polish=False)
        rep = solve(circ_data, cfg, start=(th0, z0))
        z = rep.final.z
        outside = np.setdiff1d(np.arange(cache.n), rep.final.working.working)
        np.testing.assert_array_equal(z[outside], 0.0)

    def test_step_zeroes_duals_off_its_working_set(self, circ_data):
        # a step gives no direction to the duals off its working set: it resets them to 0
        cache = build_design(circ_data)
        cfg = SolverConfig(max_iter=1, eps=1e-16)
        th0, z0 = warm_start_point(cache, cfg.lam, cfg.alpha, polish=False)
        z0 = z0 + 0.5
        sets = index_sets(margins(th0, cache), z0, cfg.alpha, cfg.lam)
        outside = np.setdiff1d(np.arange(cache.n), sets.working)
        assert outside.size > 0
        rep = solve(circ_data, cfg, start=(th0, z0))
        assert rep.final.iter == 1
        np.testing.assert_array_equal(rep.final.z[outside], 0.0)

    def test_report_serializes(self, circ_data):
        rep = solve(circ_data, SolverConfig())
        d = rep.to_dict()
        assert d["status"] == "converged"
        assert set(d) == {"status", "constant_surface", "iters", "residual_trace",
                          "gamma_trace", "working_sizes", "certificate", "theta",
                          "wall_time_s"}
        assert d["constant_surface"] is False
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


def noisy_circle():
    """A noisy circular draw whose default fit takes two Newton steps."""
    return generate(GenSpec(kind="circular", n_per_class=100, seed=1, noise=0.2))


def assert_same_fit(rep, expect):
    np.testing.assert_array_equal(rep.final.theta.to_vector(), expect.final.theta.to_vector())
    np.testing.assert_array_equal(rep.final.z, expect.final.z)
    assert rep.status is expect.status and rep.final.iter == expect.final.iter
    assert rep.residual_trace == expect.residual_trace
    assert rep.working_sizes == expect.working_sizes
    assert rep.certificate == expect.certificate


class TestStart:
    @pytest.mark.parametrize("data, cfg", [
        (iris_train(77, 0), SolverConfig(lam=100.0)),
        (noisy_circle(), SolverConfig()),
    ], ids=["iris", "noisy_circle"])
    def test_given_warm_start_matches_default(self, data, cfg):
        start = warm_start_point(build_design(data), cfg.lam, cfg.alpha)
        assert_same_fit(solve(data, cfg, start=start), solve(data, cfg))

    def test_wrong_dual_shape_raises(self, circ_data):
        cfg = SolverConfig()
        theta0, z0 = warm_start_point(build_design(circ_data), cfg.lam, cfg.alpha)
        with pytest.raises(ValueError, match="z0 has shape"):
            solve(circ_data, cfg, start=(theta0, z0[:-1]))

    def test_one_margin_evaluation_per_pass(self, monkeypatch):
        # each pass reads the margins of its iterate once, and the certificate once more
        calls = []
        orig = qs_model.margins

        def spy(theta, cache):
            calls.append(1)
            return orig(theta, cache)

        for name, mod in list(sys.modules.items()):
            if name.startswith("quadsurf") and mod is not None \
                    and mod.__dict__.get("margins") is orig:
                monkeypatch.setattr(mod, "margins", spy)
        rep = solve(noisy_circle(), SolverConfig())
        assert rep.status is SolveStatus.CONVERGED and rep.final.iter == 2
        assert len(calls) == rep.final.iter + 2


class TestConstantSurface:
    def test_certified_constant_surface_is_flagged(self):
        # the served surface of predict-row set-up seed 67 (circular classes, 1000 per
        # class, noise 0.3) certifies at W = 0, b = 0, c = 1: every point labeled -1
        seed = int(np.random.SeedSequence([67, 0]).generate_state(1)[0])
        data = generate(GenSpec(kind="circular", n_per_class=1000, seed=seed, noise=0.3))
        rep = solve(data, SolverConfig(lam=100.0))
        assert rep.status is SolveStatus.CONVERGED and rep.certificate.passed
        assert rep.constant_surface
        assert rep.to_dict()["constant_surface"] is True

    def test_iris_fit_is_not_constant(self):
        rep = solve(iris_train(77, 0), SolverConfig(lam=100.0))
        assert rep.status is SolveStatus.CONVERGED and rep.certificate.passed
        assert not rep.constant_surface

    def test_coefficients_compared_with_the_certificate_tolerance(self, circ_data):
        rep = solve(circ_data, SolverConfig(lam=100.0))
        tol = rep.certificate.tolerance

        def with_coefficients(size):
            theta = SurfaceParams(np.array([size, -size, 0.0]), np.array([0.0, size]), 1.0)
            return dataclasses.replace(rep, final=dataclasses.replace(rep.final, theta=theta))

        assert with_coefficients(3e-12).constant_surface  # as at set-up seed 420
        assert with_coefficients(tol).constant_surface
        assert not with_coefficients(2.0 * tol).constant_surface


class TestSolveFailures:
    def test_singular_step_keeps_partial_trace(self, circ_data, monkeypatch):
        cache = build_design(circ_data)
        cfg = SolverConfig(eps=1e-12, max_iter=30)
        th0, z0 = warm_start_point(cache, cfg.lam, cfg.alpha, polish=False)
        calls = []

        def fail_second_step(K, rhs, positive_definite=False):
            calls.append(1)
            if len(calls) == 2:
                return None, 0.0
            return solve_symmetric(K, rhs, positive_definite)

        monkeypatch.setattr(qs_newton, "solve_symmetric", fail_second_step)
        rep = solve(circ_data, cfg, start=(th0, z0))
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
        data = generate(GenSpec(kind="convex2d", n_per_class=50, seed=2))
        cache = build_design(data)
        cfg = SolverConfig(alpha=4e-6, rho=3.0, eps=1e-10, max_iter=20)
        th0, z0 = warm_start_point(cache, cfg.lam, cfg.alpha, polish=False)
        rep = solve(data, cfg, start=(th0, z0))
        pr = rate_probe(rep.residual_trace)
        assert rep.status is SolveStatus.CONVERGED
        assert pr.quadratic
