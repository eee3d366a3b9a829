import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

import quadsurf.model as qs_model
import quadsurf.newton as qs_newton
import quadsurf.stationarity as qs_stationarity
from quadsurf import (Dataset, GenSpec, SolveStatus, SolverConfig, SolverState,
                      SurfaceParams, accuracy, build_design, gamma_update, generate,
                      index_sets, load_csv, margins, newton_direction, pstationary_check,
                      rate_probe, regular, residual, solve, warm_start_point)
from quadsurf.baseline import _lsq_solve
from quadsurf.newton import GAMMA_FLOOR, GAMMA_INIT, GAMMA_SHRINK
from quadsurf.stationarity import solve_symmetric

from conftest import degenerate_designs, iris_train, random_dataset


class TestGammaUpdate:
    def test_residual_branch(self):
        assert gamma_update(0.1, 1.0, 0.01) == pytest.approx(0.01)

    def test_shrink_branch(self):
        assert gamma_update(0.1, 1.0, 10.0) == pytest.approx(GAMMA_SHRINK * 0.1)

    def test_floor(self):
        assert gamma_update(0.1, 1.0, 0.0) == GAMMA_FLOOR

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gamma_update(-1.0, 1.0, 1.0)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [{"lam": 0.0}, {"alpha": -1.0}, {"rho": 0.0},
                                        {"eps": 0.0}, {"max_iter": 0}])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("name", ["lam", "alpha", "rho", "eps"])
    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_bool_float_settings(self, name, flag):
        # SolverConfig(lam=True, eps=True) used to construct and record "lam": true
        with pytest.raises(ValueError, match=f"{name} must be a positive number"):
            SolverConfig(**{name: flag})

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3"])
    def test_rejects_non_integral_max_iter(self, max_iter):
        # 2.5 used to be accepted: the loop took 3 steps and the record wrote 2.5
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_becomes_an_int(self, circ_data):
        cfg = SolverConfig(max_iter=np.int64(1), eps=1e-300)
        assert type(cfg.max_iter) is int and cfg.max_iter == 1
        rep = solve(circ_data, cfg)
        assert rep.final.iter <= 1
        assert json.loads(rep.to_json())["config"]["max_iter"] == 1


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
        theta, z = warm_start_point(cache, alpha=cfg.alpha, lam=cfg.lam, polish=False)
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

    def test_rejects_nonpositive_gamma(self, small_cache):
        state = make_state(SurfaceParams.zeros(3), np.zeros(small_cache.n), small_cache,
                           alpha=1.0, lam=1.0, gamma=1.0)
        for gamma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="gamma must be positive"):
                newton_direction(dataclasses.replace(state, gamma=gamma), small_cache)

    @pytest.mark.parametrize("part", ["grad_part", "margin_part"])
    def test_non_finite_input_gives_none(self, circ_data, part):
        cache = build_design(circ_data)
        theta, z = warm_start_point(cache, alpha=1e-6, lam=10.0, polish=False)
        state = make_state(theta, z, cache, alpha=1e-6, lam=10.0, gamma=1e-3)
        assert state.working.working.size and newton_direction(state, cache) is not None
        res = state.residual
        bad = getattr(res, part).copy()
        bad[0] = np.nan
        state = dataclasses.replace(state, residual=dataclasses.replace(res, **{part: bad}))
        assert newton_direction(state, cache) is None

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

    def test_row_order_does_not_move_iris_fits(self):
        # Trials 5 and 14 hold an exact twin row, and each reversed fit there keeps
        # the other twin of a pair in its support.
        cfg = SolverConfig(lam=100.0)
        for t in range(16):
            train = iris_train(77, t)
            rows = np.column_stack([train.points, train.labels])
            rev = train.n - 1 - np.arange(train.n)
            ref = solve(train, cfg)
            rep = solve(Dataset(train.points[rev], train.labels[rev]), cfg)
            assert rep.status is ref.status, t
            assert rep.certificate.passed == ref.certificate.passed, t
            assert rep.regular == ref.regular, t
            theta = ref.final.theta.to_vector()
            assert np.abs(rep.final.theta.to_vector() - theta).max() <= 1e-12 * np.abs(theta).max()
            support = {tuple(r) for r in rows[np.flatnonzero(ref.final.z)]}
            assert {tuple(r) for r in rows[rev[np.flatnonzero(rep.final.z)]]} == support, t

    def test_infinite_eps_returns_immediately(self, circ_data):
        rep = solve(circ_data, SolverConfig(eps=math.inf))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.final.iter == 0
        assert len(rep.residual_trace) == 1

    def test_non_finite_residual_ends_as_diverged(self, circ_data):
        # an infinite dual off the working set makes the first residual infinite
        cache = build_design(circ_data)
        cfg = SolverConfig()
        theta, z = warm_start_point(cache, alpha=cfg.alpha, lam=cfg.lam)
        off = np.flatnonzero((z == 0.0) & (margins(theta, cache) < 0.0))[0]
        z[off] = np.inf
        rep = solve(circ_data, cfg, start=(theta, z))
        assert rep.status is SolveStatus.DIVERGED
        assert rep.final.iter == 0 and rep.gamma_trace == []
        assert rep.residual_trace == [math.inf]
        assert not rep.certificate.passed

    def test_gamma_rule_holds_along_trace(self, circ_data):
        cache = build_design(circ_data)
        # (config, polished start, steps on the shrink branch).  In the first run every
        # gamma follows the residual down from 1.2e-3.  In the second the start's residual
        # is 2.1e-13 and the next two read 1.9e-13 and 2.9e-13, each above half the
        # gamma before it, so gamma halves twice: to 1.0e-13, then 5.2e-14.
        runs = [(SolverConfig(eps=1e-12, max_iter=30), False, 0),
                (SolverConfig(max_iter=3, eps=1e-16), True, 2)]
        for cfg, polish, shrinks in runs:
            th0, z0 = warm_start_point(cache, alpha=cfg.alpha, lam=cfg.lam, polish=polish)
            rep = solve(circ_data, cfg, start=(th0, z0))
            gamma_prev, shrunk = GAMMA_INIT, 0
            for r, g in zip(rep.residual_trace, rep.gamma_trace):
                assert g == max(min(GAMMA_SHRINK * gamma_prev, cfg.rho * r), GAMMA_FLOOR)
                shrunk += GAMMA_SHRINK * gamma_prev < cfg.rho * r
                gamma_prev = g
            assert shrunk == shrinks

    def test_off_working_duals_are_zeroed(self, circ_data):
        cache = build_design(circ_data)
        cfg = SolverConfig(max_iter=3, eps=1e-16)
        th0, z0 = warm_start_point(cache, alpha=cfg.alpha, lam=cfg.lam, polish=False)
        rep = solve(circ_data, cfg, start=(th0, z0))
        z = rep.final.z
        outside = np.setdiff1d(np.arange(cache.n), rep.final.working.working)
        np.testing.assert_array_equal(z[outside], 0.0)

    def test_step_zeroes_duals_off_its_working_set(self, circ_data):
        # a step gives no direction to the duals off its working set: it resets them to 0
        cache = build_design(circ_data)
        cfg = SolverConfig(max_iter=1, eps=1e-16)
        th0, z0 = warm_start_point(cache, alpha=cfg.alpha, lam=cfg.lam, polish=False)
        z0 = z0 + 0.5
        sets = index_sets(margins(th0, cache), z0, cfg.alpha, cfg.lam)
        outside = np.setdiff1d(np.arange(cache.n), sets.working)
        assert outside.size > 0
        rep = solve(circ_data, cfg, start=(th0, z0))
        assert rep.final.iter == 1
        np.testing.assert_array_equal(rep.final.z[outside], 0.0)

    def test_report_serializes(self, circ_data):
        cfg = SolverConfig(lam=20.0)
        rep = solve(circ_data, cfg)
        d = rep.to_dict()
        assert d["status"] == "converged"
        assert set(d) == {"status", "regular", "iters", "residual_trace",
                          "gamma_trace", "working_sizes", "certificate", "config", "theta",
                          "phase_s", "wall_time_s"}
        assert d["regular"] is True
        assert rep.config is cfg and SolverConfig(**d["config"]) == cfg
        assert len(d["theta"]["wtri"]) == 3
        rep.to_json()

    def test_phase_times(self, circ_data):
        cfg = SolverConfig(lam=20.0)
        rep = solve(circ_data, cfg)
        assert set(rep.phase_s) == {"design", "warm_start", "newton", "certificate"}
        assert all(t >= 0.0 for t in rep.phase_s.values())
        assert sum(rep.phase_s.values()) <= rep.wall_time
        assert rep.phase_s["warm_start"] > 0.0
        assert rep.to_dict()["phase_s"] == rep.phase_s
        # a given start skips the warm start
        started = solve(circ_data, cfg, start=(rep.final.theta, rep.final.z))
        assert started.phase_s["warm_start"] == 0.0
        assert all(t >= 0.0 for t in started.phase_s.values())
        assert sum(started.phase_s.values()) <= started.wall_time

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
        start = warm_start_point(build_design(data), alpha=cfg.alpha, lam=cfg.lam)
        assert_same_fit(solve(data, cfg, start=start), solve(data, cfg))

    def test_wrong_dual_shape_raises(self, circ_data):
        cfg = SolverConfig()
        theta0, z0 = warm_start_point(build_design(circ_data), alpha=cfg.alpha, lam=cfg.lam)
        with pytest.raises(ValueError, match="z0 has shape"):
            solve(circ_data, cfg, start=(theta0, z0[:-1]))

    def test_one_margin_evaluation_per_pass(self, monkeypatch):
        # each pass reads the margins of its iterate once; the certificate reuses the
        # last pass's
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
        assert len(calls) == rep.final.iter + 1


class TestEndpoint:
    """`solve` certifies from its last residual and takes `regular` from the polish's
    final saddle solve; both must read as a fresh evaluation of the endpoint."""

    def test_endpoint_matches_a_fresh_recomputation(self, monkeypatch):
        cfg = SolverConfig(lam=100.0)
        fits = ([iris_train(77, t) for t in range(16)]
                + [generate(GenSpec(kind="circular", n_per_class=600, seed=s, noise=0.3))
                   for s in range(100, 106)]
                + list(degenerate_designs()))
        caches, real_build = [], qs_newton.build_design

        def kept_design(data):
            caches.append(real_build(data))
            return caches[-1]

        monkeypatch.setattr(qs_newton, "build_design", kept_design)
        flagged_polish = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            for i, data in enumerate(fits):
                rep = solve(data, cfg)
                final = rep.final
                cache = build_design(data)
                fresh = pstationary_check(final.theta, final.z, cfg.alpha, cfg.lam, cache,
                                          tol=10.0 * cfg.eps)
                assert rep.certificate.to_dict() == fresh.to_dict(), i
                working = final.working.working
                assert rep.regular == regular(working, cache), i
                recorded = caches[-1]._saddle_verdicts.get(working.tobytes())
                flagged_polish += recorded is False
        # the polished endpoints include final saddle solves that LAPACK flagged
        assert flagged_polish > 0

    def test_certificate_phase_solves(self, monkeypatch):
        # Inside `solve` only `regular` reaches `solve_symmetric` through the
        # stationarity module: the polish and the Newton steps hold their own names.
        calls = []
        real = qs_stationarity.solve_symmetric

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(qs_stationarity, "solve_symmetric", counted)
        data, cfg = iris_train(77, 0), SolverConfig(lam=100.0)
        rep = solve(data, cfg)
        assert rep.final.iter == 0 and rep.regular
        assert len(calls) == 0  # the polish factored the endpoint's saddle already
        started = solve(data, cfg, start=(rep.final.theta, rep.final.z))
        assert started.final.iter == 0 and started.regular
        assert len(calls) == 1  # a given start brings no factored saddle


def is_constant(rep):
    """Whether every x-dependent coefficient of the final surface is zero within
    the certificate's tolerance, so h is the constant c."""
    theta = rep.final.theta
    return max(np.abs(theta.wtri).max(), np.abs(theta.b).max()) <= rep.certificate.tolerance


def setup_draw(seed):
    """Training draw of the predict-row workload's set-up fit at `seed`."""
    draw_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    return generate(GenSpec(kind="circular", n_per_class=1000, seed=draw_seed, noise=0.3))


def assert_certified(rep):
    assert rep.status is SolveStatus.CONVERGED and rep.certificate.passed


class TestConstantSurface:
    """A constant surface is P-stationary on any data, so it can pass the
    certificate; `regular` tells such an endpoint apart."""

    def test_setup_seed_67_certifies_a_non_constant_surface(self):
        # The served surface of predict-row set-up seed 67 (circular classes, 1000 per
        # class, noise 0.3) used to certify at W = 0, b = 0, c = 1, every point labeled
        # -1, after a 1e6 continuation stage handed the polish an unsettled set.  The
        # draw is degenerate (hundreds of tight margins against d = 6), so the
        # endpoint is not regular.
        data = setup_draw(67)
        rep = solve(data, SolverConfig(lam=100.0))
        assert_certified(rep)
        assert not is_constant(rep)
        assert accuracy(rep.final.theta, data) == 1.0
        assert not rep.regular
        assert rep.to_dict()["regular"] is False

    @pytest.mark.parametrize("kind, seed", [("linear", 53), ("circular", 75), ("convex2d", 5),
                                            ("convex2d", 32), ("convex2d", 169)])
    def test_clean_draw_certifies_a_non_constant_surface(self, kind, seed):
        # These clean, separable draws used to end certified at a constant surface
        # (objective 5000 or 10000): a stop after the 1e6 stage handed the polish a
        # band set that had not settled (convex2d 5: 7 members at 1e6, 6 at 1e8).
        data = generate(GenSpec(kind=kind, n_per_class=50, seed=seed))
        rep = solve(data, SolverConfig(lam=100.0))
        assert_certified(rep)
        assert not is_constant(rep)

    def test_setup_seed_133_certifies(self):
        # the set-up fit of seed 133 used to diverge
        rep = solve(setup_draw(133), SolverConfig(lam=100.0))
        assert_certified(rep)
        assert not is_constant(rep)

    def test_iris_fit_is_not_constant(self):
        rep = solve(iris_train(77, 0), SolverConfig(lam=100.0))
        assert_certified(rep)
        assert not is_constant(rep)
        assert rep.regular

    def test_iris_fit_with_twin_rows_is_not_regular(self):
        # trial 5 of seed 77 ends with two equal rows of a in its working set
        data = iris_train(77, 5)
        rep = solve(data, SolverConfig(lam=100.0))
        assert_certified(rep)
        rows = build_design(data).a[rep.final.working.working]
        assert np.unique(rows, axis=0).shape[0] < rows.shape[0]
        assert not rep.regular

    def test_constant_endpoint_from_the_ls_start_is_not_regular(self):
        # Newton from the least-squares point with zero duals certifies h = const
        data = iris_train(77, 0)
        cache = build_design(data)
        start = (SurfaceParams.from_vector(_lsq_solve(cache, 100.0), cache.m), np.zeros(cache.n))
        rep = solve(data, SolverConfig(lam=100.0), start=start)
        assert_certified(rep)
        assert is_constant(rep)
        assert not rep.regular


class TestSolveFailures:
    def test_singular_step_keeps_partial_trace(self, circ_data, monkeypatch):
        cache = build_design(circ_data)
        cfg = SolverConfig(eps=1e-12, max_iter=30)
        th0, z0 = warm_start_point(cache, alpha=cfg.alpha, lam=cfg.lam, polish=False)
        calls = []

        def fail_second_step(K, rhs, positive_definite=False):
            calls.append(1)
            if len(calls) == 2:
                return None, 0.0
            return solve_symmetric(K, rhs, positive_definite)

        monkeypatch.setattr(qs_newton, "solve_symmetric", fail_second_step)
        rep = solve(circ_data, cfg, start=(th0, z0))
        assert rep.status is SolveStatus.SINGULAR_SYSTEM
        assert rep.final.iter == 1
        assert len(rep.residual_trace) == len(rep.gamma_trace) == 2
        assert len(rep.working_sizes) == 2
        assert rep.final.residual.norm == rep.residual_trace[-1]
        rep.to_json()

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_failed_warm_start_reports_singular_system(self):
        # features scaled by 1e6 put G's entries near 1e24: the warm start's
        # least-squares normal matrix comes out flagged (rcond near 3e-32), its
        # 1e-8 retry too, so the fit fails before any squared-hinge pass
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
        th0, z0 = warm_start_point(cache, alpha=cfg.alpha, lam=cfg.lam, polish=False)
        rep = solve(data, cfg, start=(th0, z0))
        pr = rate_probe(rep.residual_trace)
        assert rep.status is SolveStatus.CONVERGED
        assert pr.quadratic
