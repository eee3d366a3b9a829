import importlib
import inspect
import pkgutil
import sys
from itertools import combinations

import numpy as np
import pytest

import quadsurf
import quadsurf.baseline as qs_baseline
import quadsurf.model as qs_model
import quadsurf.newton as qs_newton
from quadsurf import (Dataset, DesignCache, InputError, SolverConfig, SolveStatus, SurfaceParams,
                      build_design, ls_qssvm_fit, margins, param_dim, predict, predict_many,
                      smooth_gradient, smooth_value, solve, total_loss)
from quadsurf.model import _gram_scatter, _packed_features, _pairs, _per_sample_maps

from conftest import iris_train, random_dataset, reference_hessian, scatter_hessian


def fd_gradient(fun, x, h=1e-5):
    """Central-difference gradient, the independent oracle for smooth parts."""
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def reference_maps(pts):
    """Per-sample maps M_i filled one upper-triangle pair at a time."""
    n, m = pts.shape
    M = np.zeros((n, m, m * (m + 1) // 2))
    rows = np.arange(m)
    M[:, rows, rows] = pts
    iu, ju = np.triu_indices(m, k=1)
    for col, (j, k) in enumerate(zip(iu, ju)):
        M[:, j, m + col] = pts[:, k]
        M[:, k, m + col] = pts[:, j]
    return M


def reference_packed(pts):
    m = pts.shape[1]
    iu, ju = np.triu_indices(m, k=1)
    return np.hstack([0.5 * pts**2, pts[:, iu] * pts[:, ju]])


def fd_hessian(fun, x, h=1e-5):
    """Central-difference Hessian from function values only."""
    d = x.size
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            H[i, j] = (fun(x + ei + ej) - fun(x + ei - ej)
                       - fun(x - ei + ej) + fun(x - ei - ej)) / (4 * h * h)
    return H


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            Dataset(points=np.array([[1.0, np.inf]]), labels=np.array([1.0]))

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            Dataset(points=np.ones((2, 2)), labels=np.array([1.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Dataset(points=np.ones((0, 2)), labels=np.zeros(0))


class TestBuildDesign:
    def test_single_point_row(self):
        # m=1, x=(2), y=+1: s(x) = 0.5*4 = 2, so a_1 = -(2, 2, 1)
        data = Dataset(points=np.array([[2.0]]), labels=np.array([1.0]))
        cache = build_design(data)
        np.testing.assert_array_equal(cache.a, [[-2.0, -2.0, -1.0]])

    def test_c_row_of_hessian_zero(self, small_cache):
        np.testing.assert_array_equal(small_cache.G[-1, :], 0.0)
        np.testing.assert_array_equal(small_cache.G[:, -1], 0.0)

    def test_hessian_psd_symmetric(self, small_cache):
        G = small_cache.G
        np.testing.assert_array_equal(G, G.T)
        w = np.linalg.eigvalsh(G)
        assert w.min() > -1e-10 * max(1.0, w.max())

    def test_hessian_matches_finite_differences(self, rng):
        data = random_dataset(rng, 5, 3)
        cache = build_design(data)
        theta0 = rng.normal(size=cache.d)

        def f(v):
            return smooth_value(SurfaceParams.from_vector(v, 2 + 1), cache)

        # f is exactly quadratic, so central differences are step-exact; the
        # larger step keeps the 1/h^2 rounding amplification below the bar
        H = fd_hessian(f, theta0, h=1e-2)
        err = np.abs(H - cache.G).max() / max(1.0, np.abs(cache.G).max())
        assert err < 1e-6

    def test_deterministic(self, small_data):
        c1, c2 = build_design(small_data), build_design(small_data)
        np.testing.assert_array_equal(c1.a, c2.a)
        np.testing.assert_array_equal(c1.G, c2.G)
        np.testing.assert_array_equal(c1.M, c2.M)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 12])
    def test_builders_match_pair_loop(self, rng, m):
        # m = 1 has an empty strict upper triangle
        data = random_dataset(rng, 9, m)
        pts = data.points
        assert set(data.labels) == {-1.0, 1.0}
        cache = build_design(data)
        assert "M" not in vars(cache) and cache.m == m
        M_ref = reference_maps(pts)
        np.testing.assert_array_equal(_per_sample_maps(pts), M_ref)
        # built on first read, from the rows of a
        np.testing.assert_array_equal(cache.M, M_ref)
        assert vars(cache)["M"] is cache.M
        np.testing.assert_array_equal(_packed_features(pts), reference_packed(pts))
        np.testing.assert_array_equal(cache.G, scatter_hessian(data))
        # the einsum over the maps sums in another order
        np.testing.assert_allclose(cache.G, reference_hessian(M_ref), rtol=1e-13, atol=1e-12)

    def test_fits_never_build_the_maps(self, monkeypatch):
        caches = []

        def recorded_design(data):
            caches.append(build_design(data))
            return caches[-1]

        def refuse(pts):
            raise AssertionError("a fit built the per-sample maps")

        monkeypatch.setattr(qs_model, "_per_sample_maps", refuse)
        monkeypatch.setattr(qs_newton, "build_design", recorded_design)
        monkeypatch.setattr(qs_baseline, "build_design", recorded_design)
        train = iris_train(77, 0)
        report = solve(train, SolverConfig(lam=100.0))
        assert report.status is SolveStatus.CONVERGED and report.certificate.passed
        ls_qssvm_fit(train)
        assert len(caches) == 2
        for cache in caches:
            assert cache.m == train.m
            assert "M" not in vars(cache)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_pairs_read_only(self, m):
        for arr in _pairs(m) + _gram_scatter(m):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


class TestMargins:
    def test_zero_theta_gives_ones(self, small_cache):
        F = margins(SurfaceParams.zeros(3), small_cache)
        np.testing.assert_array_equal(F, np.ones(small_cache.n))

    def test_hand_case(self):
        # W=I, b=0, c=-1, x=(2,0), y=+1: h = 0.5*4 - 1 = 1, F = 0
        data = Dataset(points=np.array([[2.0, 0.0]]), labels=np.array([1.0]))
        cache = build_design(data)
        theta = SurfaceParams(np.array([1.0, 1.0, 0.0]), np.zeros(2), -1.0)
        np.testing.assert_allclose(margins(theta, cache), [0.0], atol=1e-14)

    def test_affine(self, rng, small_cache):
        t1 = rng.normal(size=small_cache.d)
        t2 = rng.normal(size=small_cache.d)
        m = small_cache.m

        def F(v):
            return margins(SurfaceParams.from_vector(v, m), small_cache)

        F0 = F(np.zeros(small_cache.d))
        lhs = F(t1 + t2) - F0
        rhs = (F(t1) - F0) + (F(t2) - F0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_jacobian_is_cached_rows(self, rng, small_cache):
        m = small_cache.m
        theta0 = rng.normal(size=small_cache.d)

        for i in range(small_cache.n):
            def Fi(v):
                return margins(SurfaceParams.from_vector(v, m), small_cache)[i]
            g = fd_gradient(Fi, theta0)
            np.testing.assert_allclose(g, small_cache.a[i], rtol=1e-6, atol=1e-8)

    def test_dimension_mismatch(self, small_cache):
        with pytest.raises(InputError):
            margins(SurfaceParams.zeros(2), small_cache)


class TestSmoothPart:
    def test_zero_at_origin(self, small_cache):
        theta = SurfaceParams.zeros(3)
        assert smooth_value(theta, small_cache) == 0.0
        np.testing.assert_array_equal(smooth_gradient(theta, small_cache), 0.0)

    def test_hand_value(self):
        # m=1, x=(1), W=(2), b=(1): 0.5*(2+1)^2 = 4.5
        data = Dataset(points=np.array([[1.0]]), labels=np.array([1.0]))
        cache = build_design(data)
        theta = SurfaceParams(np.array([2.0]), np.array([1.0]), 0.0)
        assert smooth_value(theta, cache) == pytest.approx(4.5, abs=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            data = random_dataset(rng, 6, 2)
            cache = build_design(data)
            theta0 = rng.normal(size=cache.d)

            def f(v):
                return smooth_value(SurfaceParams.from_vector(v, 2), cache)

            g_fd = fd_gradient(f, theta0)
            g = smooth_gradient(SurfaceParams.from_vector(theta0, 2), cache)
            np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)

    def test_value_is_quadratic_form(self, rng, small_cache):
        v = rng.normal(size=small_cache.d)
        theta = SurfaceParams.from_vector(v, small_cache.m)
        quad = 0.5 * v @ small_cache.G @ v
        val = smooth_value(theta, small_cache)
        assert abs(val - quad) <= 1e-10 * max(1.0, abs(val))


class TestTotalLoss:
    def test_zero_theta(self, small_cache):
        lv = total_loss(SurfaceParams.zeros(3), small_cache, lam=2.0)
        assert lv.smooth == 0.0
        assert lv.count == small_cache.n
        assert lv.total == 2.0 * small_cache.n

    def test_counts_match_bruteforce(self, rng, small_cache):
        for _ in range(20):
            v = rng.normal(size=small_cache.d)
            theta = SurfaceParams.from_vector(v, small_cache.m)
            lv = total_loss(theta, small_cache, lam=0.5)
            F = margins(theta, small_cache)
            assert lv.count == sum(1 for t in F if t > 1e-7)

    def test_rounding_at_a_certified_point_is_no_violation(self):
        # Every margin of this certified iris point is met: its zero margins land
        # within 1e-13 of 0, several of them above it, and none counts.
        data = iris_train(77, 0)
        rep = solve(data, SolverConfig(lam=100.0))
        assert rep.certificate.passed
        cache = build_design(data)
        F = margins(rep.final.theta, cache)
        assert np.count_nonzero(F > 0.0) > 0 and F.max() < 1e-13
        lv = total_loss(rep.final.theta, cache, lam=100.0)
        assert lv.count == 0
        assert lv.total == lv.smooth

    def test_rejects_bad_lambda(self, small_cache):
        with pytest.raises(ValueError):
            total_loss(SurfaceParams.zeros(3), small_cache, lam=0.0)


class TestPredict:
    def setup_method(self):
        # unit circle surface: h(x) = 0.5|x|^2 - 1
        self.theta = SurfaceParams(np.array([1.0, 1.0, 0.0]), np.zeros(2), -1.0)

    def test_outside(self):
        assert predict(self.theta, [2.0, 0.0]) == 1

    def test_inside(self):
        assert predict(self.theta, [0.0, 0.0]) == -1

    def test_tie_maps_to_plus(self):
        x = [np.sqrt(2.0), 0.0]  # h = 0 exactly up to rounding
        h = self.theta.decision_values(np.array([x]))[0]
        assert abs(h) < 1e-12
        assert predict(self.theta, [0.0, np.sqrt(2.0)]) in (-1, 1)
        theta = SurfaceParams(np.array([2.0, 2.0, 0.0]), np.zeros(2), -1.0)
        assert predict(theta, [1.0, 0.0]) == 1  # h = 0 exactly
        pts = np.array([[1.0, 0.0], [0.0, -1.0]])  # h = 0 exactly on both rows
        np.testing.assert_array_equal(theta.decision_values(pts), [0.0, 0.0])
        np.testing.assert_array_equal(predict_many(theta, pts), [1.0, 1.0])
        zero = SurfaceParams.zeros(2)
        assert predict(zero, [3.0, -4.0]) == 1
        np.testing.assert_array_equal(predict_many(zero, [[3.0, -4.0]]), [1.0])

    def test_misclassified_implies_margin_violation(self, rng, small_cache, small_data):
        for _ in range(20):
            v = rng.normal(size=small_cache.d)
            theta = SurfaceParams.from_vector(v, small_cache.m)
            pred = predict_many(theta, small_data.points)
            F = margins(theta, small_cache)
            wrong = pred != small_data.labels
            assert np.all(F[wrong] > 0)
            lv = total_loss(theta, small_cache, lam=1.0)
            assert wrong.sum() <= lv.count

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 12])
    def test_row_path_agrees_with_batch_path(self, rng, m):
        def packed_h(theta, x):
            # independent of W: 0.5*x_j^2 on the diagonal slots, x_j*x_k off it
            h = theta.c + sum(0.5 * theta.wtri[j] * x[j] ** 2 + theta.b[j] * x[j]
                              for j in range(m))
            for slot, (j, k) in enumerate(combinations(range(m), 2)):
                h += theta.wtri[m + slot] * x[j] * x[k]
            return h

        decisive = 0
        for _ in range(10):
            theta = SurfaceParams.from_vector(rng.normal(size=param_dim(m)), m)
            X = rng.normal(scale=2.0, size=(20, m))
            ref = np.array([packed_h(theta, x) for x in X])
            for x, h in zip(X, ref):
                if abs(h) <= 1e-9 * (1.0 + np.abs(ref).max()):
                    continue
                decisive += 1
                label = 1 if h >= 0.0 else -1
                assert predict(theta, x) == label
                assert predict_many(theta, x[None])[0] == label
        assert decisive >= 190

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 12])
    def test_wrong_length_row(self, rng, m):
        theta = SurfaceParams.from_vector(rng.normal(size=param_dim(m)), m)
        for n in (m - 1, m + 1):
            with pytest.raises(InputError):
                predict(theta, np.ones(n))
            with pytest.raises(InputError):
                predict_many(theta, np.ones((3, n)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_row_with_overflowing_sum_is_answered(self):
        # huge but finite entries pass the non-finite row check, and on
        # this surface h = c is finite
        theta = SurfaceParams(np.zeros(3), np.zeros(2), 0.1)
        x = np.array([1e308, 1e308])
        assert predict(theta, x) == 1
        assert predict_many(theta, x[None])[0] == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("coord", [0, 1])
    def test_nonfinite_point_raises(self, bad, coord):
        # h would be +inf for (inf, 0) on the unit circle, but inf*0 = nan
        # inside the product; on the all-zero surface h is nan everywhere.
        # The refusal is the InputError alone: any RuntimeWarning fails.
        for theta in (self.theta, SurfaceParams.zeros(2)):
            x = np.zeros(2)
            x[coord] = bad
            with pytest.raises(InputError):
                predict(theta, x)
            with pytest.raises(InputError):
                predict_many(theta, x[None])
            with pytest.raises(InputError):
                predict_many(theta, np.vstack([np.ones(2), x, np.ones(2)]))
            with pytest.raises(InputError):
                theta.decision_values(x[None])


class TestPredictOverflow:
    """A finite row whose h overflows is refused with an InputError alone."""

    theta = SurfaceParams(np.array([1.0, 2.0, 0.5]), np.array([0.3, -0.2]), 0.1)

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_overflowing_row_raises_without_warning(self, scale):
        # the RuntimeWarning filter of the suite turns numpy's overflow warning
        # into a failure, so the refusal must come before or without it
        x = np.array([scale, scale])
        with pytest.raises(InputError):
            predict(self.theta, x)
        with pytest.raises(InputError):
            predict_many(self.theta, x[None])

    def test_row_past_the_bound_with_finite_h_is_answered(self):
        # 2-norm 1.4e150 lies past the bound (about 9e149 here), yet h = 1e300 is finite
        x = np.array([1e150, -1e150])
        assert np.linalg.norm(x) > self.theta._row_bound
        assert predict(self.theta, x) == 1
        assert predict_many(self.theta, x[None])[0] == 1.0

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_rows_within_the_bound_have_finite_h(self, rng, m):
        for _ in range(20):
            theta = SurfaceParams.from_vector(rng.normal(size=param_dim(m))
                                              * 10.0 ** rng.uniform(-3, 3), m)
            x = rng.normal(size=m)
            x *= theta._row_bound / np.linalg.norm(x) * (1.0 - 1e-12)
            label = predict(theta, x)
            assert predict_many(theta, x[None])[0] == label

    def test_bound_of_a_constant_and_of_a_huge_offset(self):
        assert SurfaceParams.zeros(2)._row_bound == sys.float_info.max
        huge = SurfaceParams(np.ones(3), np.zeros(2), -1e301)
        assert huge._row_bound == 0.0
        assert predict(huge, [0.0, 0.0]) == -1
        assert predict(huge, [1.0, 1.0]) == -1


class TestSurfaceParamsChecks:
    def test_wrong_wtri_length(self):
        with pytest.raises(InputError, match="wtri has length"):
            SurfaceParams(np.ones(2), np.ones(2), 0.0)

    @pytest.mark.parametrize("field", ["wtri", "b", "c"])
    def test_non_finite_parameters(self, field):
        parts = {"wtri": np.ones(3), "b": np.ones(2), "c": 0.0}
        parts[field] = np.nan if field == "c" else np.array([np.inf] * len(parts[field]))
        with pytest.raises(InputError, match="non-finite surface"):
            SurfaceParams(**parts)

    def test_from_vector_wrong_length(self):
        with pytest.raises(InputError, match="theta has length"):
            SurfaceParams.from_vector(np.ones(param_dim(2) + 1), 2)


class TestSurfaceImmutable:
    def setup_method(self):
        self.pts = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, -1.5]])

    def test_fields_are_read_only(self):
        theta = SurfaceParams(np.array([1.0, 1.0, 0.0]), np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            theta.wtri[0] = 5.0
        with pytest.raises(ValueError):
            theta.b[1] += 1.0
        np.testing.assert_array_equal(theta.wtri, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(theta.b, [0.0, 0.0])

    @pytest.mark.parametrize("evaluate_first", [False, True])
    def test_constructor_arrays_are_copied(self, evaluate_first):
        wtri, b = np.array([1.0, 1.0, 0.0]), np.zeros(2)
        theta = SurfaceParams(wtri, b, -1.0)
        if evaluate_first:  # build the cached W before the caller's write
            theta.decision_values(self.pts)
        wtri[:] = -7.0
        b[:] = 3.0
        np.testing.assert_array_equal(theta.decision_values(self.pts), [1.0, -1.0, 0.625])
        assert [predict(theta, x) for x in self.pts] == [1, -1, 1]

    @pytest.mark.parametrize("evaluate_first", [False, True])
    def test_from_vector_copies(self, evaluate_first):
        v = np.array([1.0, 1.0, 0.0, 0.0, 0.0, -1.0])
        theta = SurfaceParams.from_vector(v, 2)
        if evaluate_first:
            predict(theta, self.pts[0])
        v[:] = 9.0
        np.testing.assert_array_equal(theta.to_vector(), [1.0, 1.0, 0.0, 0.0, 0.0, -1.0])
        np.testing.assert_array_equal(theta.decision_values(self.pts), [1.0, -1.0, 0.625])
        assert [predict(theta, x) for x in self.pts] == [1, -1, 1]

    def test_matrix_returns_a_fresh_copy(self):
        theta = SurfaceParams(np.array([1.0, 2.0, 0.5]), np.zeros(2), -1.0)
        W = theta.matrix()
        np.testing.assert_array_equal(W, [[1.0, 0.5], [0.5, 2.0]])
        before = theta.decision_values(self.pts)
        W[:] = 100.0
        np.testing.assert_array_equal(theta.matrix(), [[1.0, 0.5], [0.5, 2.0]])
        np.testing.assert_array_equal(theta.decision_values(self.pts), before)
        assert [predict(theta, x) for x in self.pts] == [1, -1, 1]


def test_one_description_of_the_samples_per_call():
    """No library function takes the samples both as a Dataset and as a DesignCache."""
    def takes(params, cls, name):
        return any(p.annotation is cls or (p.annotation is p.empty and p.name == name)
                   for p in params)

    offenders = []
    for info in pkgutil.iter_modules(quadsurf.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"quadsurf.{info.name}")
        own = [obj for _, obj in inspect.getmembers(module)
               if getattr(obj, "__module__", None) == module.__name__]
        funcs = [f for f in own if inspect.isfunction(f)]
        funcs += [f for cls in own if inspect.isclass(cls)
                  for _, f in inspect.getmembers(cls, inspect.isfunction)]
        for f in funcs:
            params = inspect.signature(f).parameters.values()
            if takes(params, Dataset, "data") and takes(params, DesignCache, "cache"):
                offenders.append(f"{module.__name__}.{f.__qualname__}")
    assert offenders == []
