import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, LinAlgWarning

import quadsurf.baseline as qs_baseline
import quadsurf.newton as qs_newton
from quadsurf import (BenchProtocol, Dataset, DesignCache, GenSpec, Normalize, SolverConfig,
                      SolveStatus, accuracy, apply_normalizer, build_design, fit_normalizer,
                      generate, load_csv, ls_qssvm_fit, margins, run_bench,
                      smooth_gradient, solve, split, warm_start_point)
from quadsurf.baseline import _active_set_polish, _hinge_sq_minimize, _lsq_system, _ray_scale
from quadsurf.bench import METHODS, _fit_and_score
from quadsurf.stationarity import solve_symmetric

from conftest import IRIS_CSV, iris_train, reference_hessian


def reference_hinge_value(th, A, G, mu):
    F = 1.0 + A @ th
    Fp = np.maximum(F, 0.0)
    return 0.5 * th @ (G @ th) + 0.5 * mu * (Fp @ Fp)


def ridged_step(H, g, mu):
    """Newton step on H + 1e-9 (1 + mu) I, the fallback of the exact step."""
    return scipy.linalg.solve(H + 1e-9 * (1.0 + mu) * np.eye(H.shape[0]), -g, assume_a="pos")


def exact_first_step(H, g, mu):
    """Newton step on H itself, or the ridged step when LAPACK refuses or flags that
    solve (scipy raises LinAlgError or warns LinAlgWarning)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            return scipy.linalg.solve(H, -g, assume_a="pos")
    except (LinAlgError, LinAlgWarning):
        return ridged_step(H, g, mu)


def reference_hinge_minimize(th, A, G, mu, passes=80, newton_step=exact_first_step):
    """The squared-hinge Newton loop recomputing margins, G th and H every pass; a
    trial is accepted against the largest of the last 3 accepted values."""
    val = reference_hinge_value(th, A, G, mu)
    accepted = [val]
    for _ in range(passes):
        F = 1.0 + A @ th
        act = F > 0.0
        Aact = A[act]
        g = G @ th + mu * (Aact.T @ F[act])
        if np.linalg.norm(g) <= 1e-12 * (1.0 + mu):
            break
        step = newton_step(G + mu * (Aact.T @ Aact), g, mu)
        slope = g @ step
        t = 1.0
        while True:
            th_new = th + t * step
            new_val = reference_hinge_value(th_new, A, G, mu)
            if new_val <= max(accepted[-3:]) + 1e-4 * t * slope or t < 2.0**-30:
                break
            t *= 0.5
        th = th_new
        if abs(val - new_val) <= 1e-14 * (1.0 + abs(val)):
            break
        val = new_val
        accepted.append(val)
    return th


def hinge_minimize(th, cache, mu, **kwargs):
    """`_hinge_sq_minimize` from th alone, as the first continuation stage calls it."""
    return _hinge_sq_minimize(th, 1.0 + cache.a @ th, cache.G @ th, cache.a, cache.G, mu,
                              **kwargs)


def polish_setup(data, lam):
    """(polished z0, cache, tau, alpha) of a fit whose polish succeeds."""
    alpha = 1e-6
    cache = build_design(data)
    _, z0 = warm_start_point(cache, alpha=alpha, lam=lam)
    return z0, cache, np.sqrt(2.0 * alpha * lam), alpha


class TestLsqFit:
    def test_exact_minimizer(self, rng, circ_data):
        theta = ls_qssvm_fit(circ_data)
        H, rhs = _lsq_system(build_design(circ_data), 1.0)
        g = H @ theta.to_vector() - rhs
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(theta.to_vector()))

    def test_circular_accuracy(self, circ_data):
        # the squared-error surface cannot carry the far annulus points to the
        # -1 target without pulling the boundary inside the ring, so a handful
        # of inner-annulus points stay misclassified at every penalty level
        theta = ls_qssvm_fit(circ_data, c_penalty=100.0)
        assert accuracy(theta, circ_data) >= 0.9

    def test_all_one_label_predicts_that_label(self, rng):
        data = Dataset(points=rng.normal(size=(15, 2)), labels=np.ones(15))
        theta = ls_qssvm_fit(data)
        assert accuracy(theta, data) == 1.0

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_large_penalty_interpolates_single_point(self):
        data = Dataset(points=np.array([[1.5]]), labels=np.array([1.0]))
        theta = ls_qssvm_fit(data, c_penalty=1e6)
        h = theta.decision_values(data.points)[0]
        assert abs(h - 1.0) < 1e-3

    def test_rejects_bad_config(self, circ_data):
        with pytest.raises(ValueError):
            ls_qssvm_fit(circ_data, c_penalty=0.0)

    def test_rejected_cholesky_retried_with_larger_ridge(self, circ_data, monkeypatch):
        # a refused and a flagged first solve are both retried
        H, rhs = qs_baseline._lsq_system(build_design(circ_data), 1.0)
        retried, _ = solve_symmetric(H + 1e-8 * np.eye(H.shape[0]), rhs, True)
        for first in ((None, 0.0), (np.full_like(rhs, np.nan), 1e-20)):
            seen = []

            def reject_first(K, rhs, positive_definite=False):
                seen.append(K)
                if len(seen) == 1:
                    return first
                return solve_symmetric(K, rhs, positive_definite)

            monkeypatch.setattr(qs_baseline, "solve_symmetric", reject_first)
            theta = ls_qssvm_fit(circ_data)
            assert len(seen) == 2
            np.testing.assert_array_equal(seen[1], seen[0] + 1e-8 * np.eye(seen[0].shape[0]))
            np.testing.assert_array_equal(theta.to_vector(), retried)

    def test_flagged_retry_raises(self):
        # features scaled by 1e6: the normal matrix's rcond is 2.7e-32, before
        # and after the 1e-8 ridge, so no solution is returned
        iris = load_csv(IRIS_CSV, class_pair=(1, 2))
        with pytest.raises(LinAlgError):
            ls_qssvm_fit(Dataset(iris.points * 1e6, iris.labels))


class TestWarmStart:
    def test_balance_and_margins(self, circ_data):
        from quadsurf import smooth_gradient
        cache = build_design(circ_data)
        theta0, z0 = warm_start_point(cache, alpha=1e-6, lam=10.0)
        g = smooth_gradient(theta0, cache) + cache.a.T @ z0
        assert np.linalg.norm(g) < 1e-6
        assert np.all(z0 >= 0.0)
        F = margins(theta0, cache)
        assert F.max() <= 1e-8  # separable case polishes to feasibility

    def test_unpolished_keeps_violations_small(self, circ_data):
        cache = build_design(circ_data)
        theta0, z0 = warm_start_point(cache, alpha=1e-6, lam=10.0, polish=False)
        F = margins(theta0, cache)
        tau = np.sqrt(2.0 * 1e-6 * 10.0)
        assert F.max() <= tau

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_polish_with_duplicated_samples(self):
        # Two identical training samples share one margin row; both are in the band
        # (14 rows, rank 13), and the warm start hands the polish only the first, so
        # no saddle solve is flagged.  The fit must still certify a point that prices
        # only a few margins; falling back to the penalty duals instead ends near
        # theta = 0 with every margin violated.
        train = iris_train(9000, 87)
        rows = np.column_stack([train.points, train.labels])
        assert np.unique(rows, axis=0).shape[0] == train.n - 1

        report = solve(train, SolverConfig(lam=100.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.certificate.passed
        violations = np.count_nonzero(margins(report.final.theta, build_design(train)) > 0.0)
        assert violations <= train.n // 4

    @pytest.mark.parametrize("failure", ["refused", "non_finite"])
    def test_polish_gives_up_on_a_failed_saddle_solve(self, circ_data, monkeypatch, failure):
        z0, cache, tau, alpha = polish_setup(circ_data, 10.0)
        act = np.flatnonzero(z0)
        assert _active_set_polish(act, cache, tau, alpha) is not None

        def broken(K, rhs, positive_definite=False):
            if failure == "refused":
                return None, 0.0
            return np.full_like(rhs, np.nan), 1.0

        monkeypatch.setattr(qs_baseline, "solve_symmetric", broken)
        assert _active_set_polish(act, cache, tau, alpha) is None

    def test_flagged_saddle_solve_warns_and_is_used(self, circ_data):
        # a constant third feature (x, y, 1) duplicates the offset column, so
        # the polish's saddle matrix is singular up to rounding: LAPACK flags
        # one solve, the polish warns once and the fit still certifies
        data = Dataset(np.column_stack([circ_data.points, np.ones(circ_data.n)]),
                       circ_data.labels)
        with pytest.warns(LinAlgWarning) as caught:
            report = solve(data, SolverConfig(lam=100.0))
        assert len(caught) == 1
        assert caught[0].filename == qs_baseline.__file__
        assert report.status is SolveStatus.CONVERGED and report.certificate.passed

    def test_polish_activates_an_in_band_margin(self):
        # without sample 16 the refit leaves another margin inside (0, tau), so
        # the polish must activate it to reach a consistent pair, which takes a
        # second pass: a budget of one pass ends unresolved
        data = generate(GenSpec(kind="circular", n_per_class=50, seed=2))
        z0, cache, tau, alpha = polish_setup(data, 10.0)
        start = np.setdiff1d(np.flatnonzero(z0), [16])
        assert _active_set_polish(start, cache, tau, alpha, passes=1) is None
        theta, z = _active_set_polish(start, cache, tau, alpha)
        support = np.flatnonzero(z)
        assert np.setdiff1d(support, start).size == 1
        F = margins(theta, cache)
        np.testing.assert_allclose(F[support], 0.0, atol=1e-10)
        assert not np.any((F > 1e-10) & (F < tau * (1.0 - 1e-9)))
        assert np.all((z[support] > 0.0) & (z[support] < tau / alpha))
        assert np.linalg.norm(smooth_gradient(theta, cache) + cache.a.T @ z) < 1e-8

    def test_hessian_formula_does_not_move_certified_points(self, monkeypatch):
        # Before twin rows were merged, 3 of these 256 fits landed on another
        # certified point when G changed in its last bits.
        config = SolverConfig(lam=100.0)
        data = load_csv(IRIS_CSV, class_pair=(1, 2))
        for seed in (77, 9000):
            for t in range(128):
                train, _ = split(data, 0.8, np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
                train = apply_normalizer(train, *fit_normalizer(train.points, Normalize.ZSCORE))
                cache = build_design(train)
                G2 = reference_hessian(cache.M)
                np.testing.assert_allclose(G2, cache.G, rtol=1e-13, atol=1e-12)
                other = DesignCache(a=cache.a, G=G2)
                assert (other.n, other.m, other.d) == (cache.n, cache.m, cache.d)
                ref = solve(train, config)
                seen = []

                def scatter_design(data):
                    seen.append(data)
                    return other

                with monkeypatch.context() as mp:
                    mp.setattr(qs_newton, "build_design", scatter_design)
                    rep = solve(train, config)
                assert len(seen) == 1 and seen[0] is train
                for r in (ref, rep):
                    assert r.status is SolveStatus.CONVERGED and r.certificate.passed
                np.testing.assert_array_equal(np.flatnonzero(rep.final.z),
                                              np.flatnonzero(ref.final.z))
                np.testing.assert_allclose(rep.final.theta.to_vector(),
                                           ref.final.theta.to_vector(), rtol=1e-7, atol=1e-9)


def collinear_data(seed):
    """A circular draw moved onto the line x2 = 2 x1: every exact hinge-Newton
    matrix on its design is singular."""
    data = generate(GenSpec(kind="circular", n_per_class=50, seed=seed))
    x = data.points[:, 0]
    return Dataset(points=np.column_stack([x, 2.0 * x]), labels=data.labels)


def ray_value(s, q, yh, mu):
    """The squared-hinge objective at s theta, from q = theta'G theta and yh = -A theta."""
    r = np.maximum(1.0 - s * yh, 0.0)
    return 0.5 * s * s * q + 0.5 * mu * (r @ r)


def brute_ray_scale(q, yh, mu):
    """argmin over s > 0 of `ray_value`, or 1.0 when its infimum is at s = 0.

    Every piece between consecutive breakpoints 1/yh_i (yh_i > 0) is a
    quadratic with a fixed violated set; its stationary point, clipped to
    the piece, is a candidate, and the candidate of least value wins (the
    smallest s on a tie).
    """
    knots = np.concatenate([[0.0], np.sort(1.0 / yh[yh > 0.0]), [np.inf]])
    cands = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        inner = lo + 1.0 if np.isinf(hi) else 0.5 * (lo + hi)
        viol = yh[1.0 - inner * yh > 0.0]
        den = q + mu * (viol @ viol)
        cands.append(min(max(mu * viol.sum() / den, lo), hi) if den > 0.0 else lo)
    values = [ray_value(c, q, yh, mu) for c in cands]
    best = cands[int(np.argmin(values))]
    return best if best > 0.0 else 1.0


def ray_start(data, cache, mu, c_penalty=qs_baseline._LS_START_C):
    """The LS point (weight c_penalty, by default the warm start's) scaled to the
    minimizer of the stage-mu objective on its ray."""
    th = ls_qssvm_fit(data, c_penalty=c_penalty).to_vector()
    return brute_ray_scale(th @ cache.G @ th, -(cache.a @ th), mu) * th


def stage_start(data, mu):
    """(th, cache) after the warm start's continuation stages below penalty mu."""
    cache = build_design(data)
    th = ray_start(data, cache, 1e4)
    for stage in qs_baseline._HINGE_PENALTIES:
        if stage < mu:
            th, _, _ = hinge_minimize(th, cache, stage)
    return th, cache


def reference_warm_start(data, lam, alpha, mu0, c_penalty=qs_baseline._LS_START_C):
    """(theta0 vector, z0) of a warm start whose continuation starts at penalty mu0
    on the ray of the LS point of weight c_penalty, stepped by the reference hinge
    loop."""
    cache = build_design(data)
    A, G = cache.a, cache.G
    th = ray_start(data, cache, mu0, c_penalty)
    tau = np.sqrt(2.0 * lam * alpha)
    for mu in sorted({mu0, 1e4, 1e8}):
        th = reference_hinge_minimize(th, A, G, mu)
    F = 1.0 + A @ th
    act = np.flatnonzero((F > 0.0) & (F < tau))
    act = act[np.sort(np.unique(A[act], axis=0, return_index=True)[1])]
    theta0, z0 = _active_set_polish(act, cache, tau, alpha)
    return theta0.to_vector(), z0


def spy_stages(monkeypatch):
    """List that collects (mu, final margins) of every `_hinge_sq_minimize` call."""
    stages = []
    real = qs_baseline._hinge_sq_minimize

    def spy(th, F, Gth, A, G, mu, **kwargs):
        out = real(th, F, Gth, A, G, mu, **kwargs)
        stages.append((mu, out[1]))
        return out

    monkeypatch.setattr(qs_baseline, "_hinge_sq_minimize", spy)
    return stages


class TestLapackRoute:
    def test_bunch_kaufman_route_gives_the_same_fits(self, monkeypatch):
        # the warm start's positive-definite solves sent through dsytrf instead
        # of Cholesky: every fit keeps its working set and its theta
        cfg = SolverConfig(lam=100.0)
        expect = [solve(iris_train(77, t), cfg) for t in range(16)]
        rerouted = []

        def bunch_kaufman(K, rhs, positive_definite=False):
            rerouted.append(positive_definite)
            return solve_symmetric(K, rhs)

        monkeypatch.setattr(qs_baseline, "solve_symmetric", bunch_kaufman)
        for t, exp in enumerate(expect):
            rep = solve(iris_train(77, t), cfg)
            np.testing.assert_array_equal(rep.final.working.working, exp.final.working.working)
            np.testing.assert_allclose(rep.final.theta.to_vector(), exp.final.theta.to_vector(),
                                       rtol=0.0, atol=1e-7)
        assert any(rerouted)


class TestContinuationStart:
    @pytest.mark.parametrize("seed, trial", [(77, t) for t in range(8)] + [(9000, 87)])
    def test_same_warm_start_as_a_continuation_from_1e2(self, monkeypatch, seed, trial):
        # The stage at mu = 1e2 hands the polish the same active set as the LS point
        # does, so dropping it moves no bit of the iris warm start.
        data = iris_train(seed, trial)
        expect_th, expect_z = reference_warm_start(data, 100.0, 1e-6, mu0=1e2)
        stages = spy_stages(monkeypatch)
        theta0, z0 = warm_start_point(build_design(data), alpha=1e-6, lam=100.0)
        assert stages[0][0] == 1e4 and all(mu >= 1e4 for mu, _ in stages)
        np.testing.assert_array_equal(theta0.to_vector(), expect_th)
        np.testing.assert_array_equal(z0, expect_z)

    @pytest.mark.parametrize("seed, trial", [(77, t) for t in range(8)] + [(9000, 87)])
    def test_same_warm_start_from_the_c_100_ray_point(self, seed, trial):
        # The LS weight only turns the ray the first stage starts on: from the C = 100
        # point's ray the continuation hands the polish the same active set, so the
        # start moves the path, never the iris warm start.
        data = iris_train(seed, trial)
        expect_th, expect_z = reference_warm_start(data, 100.0, 1e-6, mu0=1e4, c_penalty=100.0)
        theta0, z0 = warm_start_point(build_design(data), alpha=1e-6, lam=100.0)
        np.testing.assert_array_equal(theta0.to_vector(), expect_th)
        np.testing.assert_array_equal(z0, expect_z)

    @pytest.mark.parametrize("draw", ["noisy", "iris"])
    def test_two_fixed_stages(self, monkeypatch, draw):
        # The continuation runs 1e4 then 1e8 whatever the violations.  A stop at 1e6
        # once they fit in tau / 4 (5.0e-4 against 3.5e-3 on the noisy draw, 600 per
        # class with noise 0.3) handed the polish a band set that had not settled;
        # the 1e8 stage leaves them below 1e-5.  The polish refuses the noisy draw's
        # 160 band margins, so z0 holds the penalty duals 1e8 * max(F, 0).
        if draw == "noisy":
            data = generate(GenSpec(kind="circular", n_per_class=600, seed=100, noise=0.3))
        else:
            data = iris_train(77, 2)
        cache = build_design(data)
        lam, alpha = 100.0, 1e-6
        tau = np.sqrt(2.0 * lam * alpha)
        stages = spy_stages(monkeypatch)
        theta0, z0 = warm_start_point(cache, alpha=alpha, lam=lam)
        assert [mu for mu, _ in stages] == [1e4, 1e8]
        assert np.maximum(stages[-1][1], 0.0).max() < 1e-5
        if draw == "noisy":
            F = stages[-1][1]
            assert np.count_nonzero((F > 0.0) & (F < tau)) > cache.d
            expect = 1e8 * np.maximum(F, 0.0)
            expect[F + alpha * expect >= tau] = 0.0
            np.testing.assert_array_equal(z0, expect)
            np.testing.assert_array_equal(margins(theta0, cache), F)


class TestRayStart:
    def test_matches_brute_force_argmin(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            yh = rng.normal(loc=rng.normal(), size=n)
            q, mu = float(rng.exponential()), float(10.0 ** rng.uniform(0, 6))
            s = _ray_scale(q, yh, mu)
            assert s == pytest.approx(brute_ray_scale(q, yh, mu), rel=1e-12)
            if s != 1.0:
                # the derivative vanishes at an interior minimizer
                viol = yh[1.0 - s * yh > 0.0]
                slope = s * q - mu * (viol @ (1.0 - s * viol))
                assert abs(slope) <= 1e-9 * (q + mu * (yh @ yh))

    def test_all_margins_positive(self, rng):
        # separating LS point: the minimizer lies short of unit minimum margin,
        # where q pulls it back from the last breakpoint
        yh = rng.uniform(0.1, 2.0, size=20)
        s = _ray_scale(1.0, yh, 1e4)
        assert 0.0 < s < 1.0 / yh.min()
        assert s == pytest.approx(brute_ray_scale(1.0, yh, 1e4), rel=1e-12)

    def test_no_margin_positive_keeps_the_point(self, rng):
        yh = -rng.uniform(0.0, 2.0, size=20)
        assert _ray_scale(1.0, yh, 1e4) == 1.0
        assert _ray_scale(1.0, np.zeros(5), 1e4) == 1.0
        # a positive margin that does not outweigh the others: no positive minimizer
        assert _ray_scale(1.0, np.array([1.0, -2.0]), 1e4) == 1.0

    def test_flat_quadratic(self, rng):
        # q = 0: with every margin positive the objective vanishes from the last
        # breakpoint on, and the smallest minimizer is unit minimum margin
        yh = rng.uniform(0.1, 2.0, size=20)
        assert _ray_scale(0.0, yh, 1e4) == pytest.approx(1.0 / yh.min(), rel=1e-12)
        yh[:5] = -yh[:5]
        s = _ray_scale(0.0, yh, 1e4)
        assert s == pytest.approx(brute_ray_scale(0.0, yh, 1e4), rel=1e-12)

    def test_first_iris_trials_take_fewer_hinge_solves(self, monkeypatch):
        # Exact hinge solves and objective evaluations over the first 16 iris
        # trials of seed 77: 227 and 455 from the separable-only rescale with
        # monotone Armijo steps, 157 and 319 with the ray start and the
        # nonmonotone rule, 152 and 309 with two fixed stages, 129 and 245 on
        # the ray of the C = 10 least-squares point.
        counts = {"solves": 0, "evals": 0}
        inside = []
        real_min, real_solve = qs_baseline._hinge_sq_minimize, qs_baseline.solve_symmetric
        real_value = qs_baseline._hinge_sq_objective

        def hinge_min(*args, **kwargs):
            inside.append(1)
            try:
                return real_min(*args, **kwargs)
            finally:
                inside.pop()

        def counted_solve(K, rhs, positive_definite=False):
            counts["solves"] += bool(inside)
            return real_solve(K, rhs, positive_definite)

        def counted_value(*args):
            counts["evals"] += 1
            return real_value(*args)

        monkeypatch.setattr(qs_baseline, "_hinge_sq_minimize", hinge_min)
        monkeypatch.setattr(qs_baseline, "solve_symmetric", counted_solve)
        monkeypatch.setattr(qs_baseline, "_hinge_sq_objective", counted_value)
        for t in range(16):
            assert solve(iris_train(77, t), SolverConfig(lam=100.0)).certificate.passed
        assert counts["solves"] <= 129
        assert counts["evals"] <= 245


class TestHingeLoop:
    @pytest.mark.parametrize("mu", [1e2, 1e4, 1e6, 1e8])
    def test_matches_reference_loop_bit_for_bit(self, circ_data, mu):
        sets = [iris_train(77, t) for t in range(3)] + [iris_train(9000, 87), circ_data]
        for data in sets:
            cache = build_design(data)
            th0 = ls_qssvm_fit(data, c_penalty=100.0).to_vector()
            expect = reference_hinge_minimize(th0, cache.a, cache.G, mu)
            th, F, Gth = hinge_minimize(th0, cache, mu)
            np.testing.assert_array_equal(th, expect)
            np.testing.assert_array_equal(F, 1.0 + cache.a @ expect)
            np.testing.assert_array_equal(Gth, cache.G @ expect)

    @pytest.mark.parametrize("mu", [1e4, 1e8])
    def test_exact_attempt_factors_the_newton_matrix_with_no_shift(self, monkeypatch, mu):
        th0, cache = stage_start(iris_train(77, 0), mu)
        matrices = []
        real = qs_baseline.solve_symmetric

        def spy(K, rhs, positive_definite=False):
            matrices.append(K.copy())
            return real(K, rhs, positive_definite)

        monkeypatch.setattr(qs_baseline, "solve_symmetric", spy)
        hinge_minimize(th0, cache, mu, passes=1)
        F = 1.0 + cache.a @ th0
        Aact = cache.a[F > 0.0]
        np.testing.assert_array_equal(matrices[0], cache.G + mu * (Aact.T @ Aact))

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("seed", [0, 4])
    def test_refused_exact_attempts_fall_back_to_the_ridged_loop(self, monkeypatch, seed):
        data = collinear_data(seed)
        failed = []  # per solve: refused or flagged
        real = qs_baseline.solve_symmetric

        def spy(K, rhs, positive_definite=False):
            x, rcond = real(K, rhs, positive_definite)
            failed.append(x is None or rcond < np.finfo(float).eps)
            return x, rcond

        monkeypatch.setattr(qs_baseline, "solve_symmetric", spy)
        for mu in (1e2, 1e4, 1e6, 1e8):
            th0, cache = stage_start(data, mu)
            failed.clear()
            th, F, _ = hinge_minimize(th0, cache, mu)
            # each pass is an exact attempt, refused or flagged, then its ridged fallback
            assert failed and len(failed) % 2 == 0 and all(failed[0::2])
            expect = reference_hinge_minimize(th0, cache.a, cache.G, mu,
                                              newton_step=ridged_step)
            np.testing.assert_array_equal(th, expect)
            np.testing.assert_array_equal(F, 1.0 + cache.a @ expect)

    def test_settled_stage_takes_one_exact_step(self, monkeypatch):
        # From the mu = 1e4 minimizer the active set is already the one of
        # mu = 1e8: one exact step lands on the minimizer and the next pass
        # ends on the gradient test.  The ridged steps need three passes.
        th0, cache = stage_start(iris_train(77, 0), 1e8)
        calls = []
        real = qs_baseline.solve_symmetric

        def spy(K, rhs, positive_definite=False):
            calls.append(1)
            return real(K, rhs, positive_definite)

        monkeypatch.setattr(qs_baseline, "solve_symmetric", spy)
        th, F, Gth = hinge_minimize(th0, cache, 1e8)
        assert len(calls) == 1  # a ridged fallback would be a second solve
        act = F > 0.0
        g = Gth + 1e8 * (cache.a[act].T @ F[act])
        assert np.linalg.norm(g) <= 1e-12 * (1.0 + 1e8)

        ridged = []

        def counted_ridged_step(H, g, mu):
            ridged.append(1)
            return ridged_step(H, g, mu)

        reference_hinge_minimize(th0, cache.a, cache.G, 1e8, newton_step=counted_ridged_step)
        assert len(ridged) == 3

    def test_flagged_exact_attempt_is_not_stepped_from(self, monkeypatch):
        th0, cache = stage_start(iris_train(77, 0), 1e2)
        real = qs_baseline.solve_symmetric
        calls = []

        def flag_first(K, rhs, positive_definite=False):
            calls.append(1)
            x, rcond = real(K, rhs, positive_definite)
            if len(calls) == 1:
                return np.full_like(x, np.nan), 1e-20
            return x, rcond

        monkeypatch.setattr(qs_baseline, "solve_symmetric", flag_first)
        th, _, _ = hinge_minimize(th0, cache, 1e2, passes=1)
        expect = reference_hinge_minimize(th0, cache.a, cache.G, 1e2, passes=1,
                                          newton_step=ridged_step)
        np.testing.assert_array_equal(th, expect)
        assert not np.array_equal(th, th0)

    def test_refused_ridged_fallback_ends_the_fit_as_singular_system(self, monkeypatch):
        train = iris_train(77, 0)
        th0, cache = stage_start(train, 1e4)
        real = qs_baseline.solve_symmetric
        calls = []

        def refuse_after_first(K, rhs, positive_definite=False):
            calls.append(1)
            return real(K, rhs, positive_definite) if len(calls) == 1 else (None, 0.0)

        monkeypatch.setattr(qs_baseline, "solve_symmetric",
                            lambda K, rhs, positive_definite=False: (None, 0.0))
        with pytest.raises(LinAlgError):
            hinge_minimize(th0, cache, 1e4)

        # the LS solve goes through; the first hinge pass's exact attempt and
        # its ridged fallback are refused
        monkeypatch.setattr(qs_baseline, "solve_symmetric", refuse_after_first)
        rep = solve(train, SolverConfig(lam=100.0))
        assert len(calls) == 3
        assert rep.status is SolveStatus.SINGULAR_SYSTEM
        assert rep.final.iter == 0
        np.testing.assert_array_equal(rep.final.theta.to_vector(), 0.0)
        np.testing.assert_array_equal(rep.final.z, 0.0)

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_flagged_ridged_fallback_ends_the_fit_as_singular_system(self, monkeypatch):
        # a refused exact attempt whose ridged fallback LAPACK flags: no step is
        # taken from the flagged solution, and no warning is emitted
        train = iris_train(77, 0)
        th0, cache = stage_start(train, 1e4)
        real = qs_baseline.solve_symmetric

        def refuse_then_flag(passed):
            """A solve_symmetric whose first `passed` solves go through, the next
            is refused and every later one flagged; and the list of its calls."""
            calls = []

            def fake(K, rhs, positive_definite=False):
                calls.append(1)
                x, rcond = real(K, rhs, positive_definite)
                k = len(calls) - passed
                return (x, rcond) if k <= 0 else (None, 0.0) if k == 1 else (x, 1e-20)

            return fake, calls

        fake, calls = refuse_then_flag(0)
        monkeypatch.setattr(qs_baseline, "solve_symmetric", fake)
        with pytest.raises(LinAlgError):
            hinge_minimize(th0, cache, 1e4)
        assert len(calls) == 2

        # the LS solve goes through; the first hinge pass is refused, then flagged
        fake, calls = refuse_then_flag(1)
        monkeypatch.setattr(qs_baseline, "solve_symmetric", fake)
        rep = solve(train, SolverConfig(lam=100.0))
        assert len(calls) == 3
        assert rep.status is SolveStatus.SINGULAR_SYSTEM
        assert rep.final.iter == 0
        np.testing.assert_array_equal(rep.final.theta.to_vector(), 0.0)


class TestNoisyDraws:
    def test_noisy_large_draws_converge_and_certify(self):
        # the noisy-2d-large pools of seeds 9000 and 9001: circular draws of
        # 1000-1500 per class with noise 0.3, whose projected points leave
        # hundreds of exact zero margins at the optimum; hinge passes that solve
        # the exact Newton matrix with no shift must keep every fit certified
        config = SolverConfig(lam=100.0)
        for seed in (9000, 9001):
            for k, npc in enumerate((1000, 1250, 1500) * 16):
                spec = GenSpec("circular", n_per_class=npc, noise=0.3,
                               seed=np.random.SeedSequence([seed, k]).generate_state(1)[0])
                rep = solve(generate(spec), config)
                assert rep.status is SolveStatus.CONVERGED, (seed, k)
                assert rep.certificate.passed, (seed, k)


class TestCompare:
    """`_fit_and_score`, the per-split method comparison inside `run_bench`."""

    def test_rows_schema_and_determinism(self, circ_data, rng):
        perm = rng.permutation(circ_data.n)
        train = Dataset(circ_data.points[perm[:70]], circ_data.labels[perm[:70]])
        test = Dataset(circ_data.points[perm[70:]], circ_data.labels[perm[70:]])
        rows1 = _fit_and_score([(train, test)] * 2, METHODS, None, 2, 0)
        rows2 = _fit_and_score([(train, test)] * 2, METHODS, None, 2, 0)
        assert [r["method"] for r in rows1] == ["newton_l01", "ls_qssvm"]
        for r1, r2 in zip(rows1, rows2):
            for key in ("acc_min", "acc_max", "acc_mean", "acc_var", "failures"):
                assert r1[key] == r2[key]

    def test_ls_on_separable_linear(self):
        from quadsurf import split
        data = generate(GenSpec(kind="linear", n_per_class=40, seed=0))
        train, test = split(data, 0.75, seed=0)
        rows = _fit_and_score([(train, test)], ("ls_qssvm",), None, 1, 1)
        assert rows[0]["acc_mean"] == pytest.approx(100.0)

    def test_newton_at_least_close_to_ls(self, circ_data, rng):
        perm = np.random.default_rng(3).permutation(circ_data.n)
        train = Dataset(circ_data.points[perm[:70]], circ_data.labels[perm[:70]])
        test = Dataset(circ_data.points[perm[70:]], circ_data.labels[perm[70:]])
        rows = _fit_and_score([(train, test)], METHODS, None, 1, 0)
        by = {r["method"]: r for r in rows}
        assert by["newton_l01"]["acc_mean"] >= by["ls_qssvm"]["acc_mean"] - 1.0

    def test_rejects_unknown_method(self, circ_data):
        with pytest.raises(ValueError):
            _fit_and_score([(circ_data, circ_data)], ("svm",), None, 1, 0)

    def test_rows_share_bench_serializers(self, tmp_path, circ_data):
        from quadsurf import split
        from quadsurf.bench import rows_to_csv, rows_to_json
        train, test = split(circ_data, 0.8, seed=0)
        rows = _fit_and_score([(train, test)], METHODS, None, 1, 0)
        path = tmp_path / "cmp.csv"
        rows_to_csv(rows, path)
        assert path.read_text().startswith("method,")
        assert '"ls_qssvm"' in rows_to_json(rows)

    def test_agrees_with_one_trial_run_bench(self):
        data = load_csv(IRIS_CSV, class_pair=(1, 2))
        protocol = BenchProtocol(train_rate=0.8, trials=1, seed=9000, normalize="zscore")
        train, test = split(data, 0.8, np.random.SeedSequence(entropy=9000, spawn_key=(0,)))
        shift, scale = fit_normalizer(train.points, Normalize.ZSCORE)
        config = SolverConfig(lam=100.0)
        rows = _fit_and_score([(apply_normalizer(train, shift, scale),
                                apply_normalizer(test, shift, scale))], METHODS, config, 1, 9000)
        bench_rows = run_bench(data, protocol, config)
        assert [r["method"] for r in rows] == [r["method"] for r in bench_rows]
        for r, b in zip(rows, bench_rows):
            for key in ("trials", "seed", "acc_min", "acc_max", "acc_mean", "acc_var",
                        "failures"):
                assert r[key] == b[key]

    def test_singular_fits_counted_as_failures(self, circ_data, monkeypatch):
        import dataclasses
        import quadsurf.newton as qs_newton
        train, test = split(circ_data, 0.8, seed=0)
        clean = {r["method"]: r for r in _fit_and_score([(train, test)], METHODS, None, 1, 0)}
        real_solve = qs_newton.solve
        calls = []

        def singular_every_other_call(data, config):
            report = real_solve(data, config)
            calls.append(1)
            if len(calls) % 2 == 0:
                return report
            return dataclasses.replace(report, status=SolveStatus.SINGULAR_SYSTEM)

        monkeypatch.setattr(qs_newton, "solve", singular_every_other_call)
        by = {r["method"]: r for r in _fit_and_score([(train, test)] * 3, METHODS, None, 3, 0)}
        assert by["newton_l01"]["failures"] == 2
        assert by["newton_l01"]["trials"] == 3
        for key in ("acc_min", "acc_max", "acc_mean", "acc_var"):
            assert by["newton_l01"][key] == clean["newton_l01"][key]
        assert by["ls_qssvm"]["failures"] == 0
        assert by["ls_qssvm"]["acc_mean"] == clean["ls_qssvm"]["acc_mean"]

        monkeypatch.setattr(qs_newton, "solve",
                            lambda data, config: dataclasses.replace(
                                real_solve(data, config), status=SolveStatus.SINGULAR_SYSTEM))
        only = _fit_and_score([(train, test)] * 2, ("newton_l01",), None, 2, 0)[0]
        assert only["failures"] == 2
        assert np.isnan(only["acc_mean"]) and np.isnan(only["mean_time_s"])

    def test_raising_ls_fits_counted_as_failures(self):
        # on iris scaled by 1e6 every LS solve is flagged, so ls_qssvm_fit raises
        # and the Newton fit's warm start ends it as a singular system
        iris = load_csv(IRIS_CSV, class_pair=(1, 2))
        data = Dataset(iris.points * 1e6, iris.labels)
        rows = run_bench(data, BenchProtocol(trials=3, seed=0, normalize=Normalize.NONE))
        for row in rows:
            assert row["failures"] == row["trials"] == 3
            assert np.isnan(row["acc_mean"])
