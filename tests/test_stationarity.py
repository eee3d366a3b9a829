import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, LinAlgWarning

import quadsurf.stationarity as qs_stationarity
from quadsurf import (Dataset, GenSpec, ProxParams, SurfaceParams, alpha_bounds, build_design,
                      generate, index_sets, margins, pstationary_check, regular, residual,
                      smooth_gradient)
from quadsurf.stationarity import saddle_matrix, solve_symmetric

from conftest import random_dataset


def brute_force_sweep(working, cache):
    """Reference for `regular` on a nonempty T: every nonempty subset of T is regular."""
    return all(regular(np.array(s, dtype=int), cache)
               for r in range(1, len(working) + 1)
               for s in itertools.combinations(working.tolist(), r))


def exact_pair(rng, n=8, m=2, k=None):
    """Construct an exact stationary (data, theta, z, working) tuple.

    Chooses a working set, forces its margins to zero through one saddle
    solve, and keeps only draws whose multipliers come out strictly positive
    with all other margins bounded away from zero.
    """
    while True:
        data = random_dataset(rng, n, m)
        cache = build_design(data)
        size = k or int(rng.integers(1, 4))
        T = np.sort(rng.choice(n, size=size, replace=False))
        K = saddle_matrix(T, cache, 0.0)
        rhs = np.concatenate([np.zeros(cache.d), -np.ones(size)])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        theta = SurfaceParams.from_vector(sol[:cache.d], m)
        zeta = sol[cache.d:]
        if np.any(zeta <= 1e-8):
            continue
        F = margins(theta, cache)
        off = np.delete(F, T)
        if np.any(np.abs(off) < 1e-6):
            continue
        z = np.zeros(n)
        z[T] = zeta
        return data, cache, theta, z, T


def index_sets_loop(F, z, alpha, lam):
    """Per-sample classification of F + alpha*z; reference for index_sets."""
    tau = ProxParams(alpha=alpha, lam=lam).threshold
    band = 1e-12 * max(1.0, tau)
    sets = {"t_o": [], "t_1": [], "t_2": [], "t_3": []}
    for i, (f, zi) in enumerate(zip(F, z)):
        s, az = f + alpha * zi, alpha * zi
        if abs(s) <= band or abs(s - tau) <= band:
            sets["t_2"].append(i)
            if abs(f) <= band and (abs(az) <= band or abs(az - tau) <= band):
                sets["t_o"].append(i)
        elif 0.0 < s < tau:
            sets["t_1"].append(i)
        else:
            sets["t_3"].append(i)
    return sets


class TestIndexSets:
    def test_hand_case(self):
        # alpha=1, lam=0.5 -> threshold 1
        F = np.array([-0.5, 0.3, 1.5, 0.0])
        z = np.array([0.0, 0.0, 0.0, 0.2])
        s = index_sets(F, z, alpha=1.0, lam=0.5)
        np.testing.assert_array_equal(s.t_1, [1, 3])
        np.testing.assert_array_equal(s.t_3, [0, 2])
        assert s.t_2.size == 0 and s.t_o.size == 0
        np.testing.assert_array_equal(s.working, [1, 3])

    def test_all_zero(self):
        s = index_sets(np.zeros(4), np.zeros(4), alpha=1.0, lam=0.5)
        np.testing.assert_array_equal(s.t_2, np.arange(4))
        np.testing.assert_array_equal(s.t_o, np.arange(4))
        np.testing.assert_array_equal(s.working, np.arange(4))

    @pytest.mark.parametrize("alpha, lam", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_rejects_nonpositive_alpha_or_lam(self, alpha, lam):
        with pytest.raises(ValueError):
            index_sets(np.zeros(3), np.zeros(3), alpha=alpha, lam=lam)

    def test_rejects_f_and_z_of_different_lengths(self):
        with pytest.raises(ValueError, match="disagree in length"):
            index_sets(np.zeros(3), np.zeros(4), alpha=1.0, lam=0.5)

    @pytest.mark.parametrize("lam", [1.3, 0.02])  # tau above 1 and below it
    def test_edges_match_sample_loop(self, lam):
        alpha = 0.5  # alpha*z is exact, so z = 2*tau puts alpha*z at tau
        tau = ProxParams(alpha=alpha, lam=lam).threshold
        band = 1e-12 * max(1.0, tau)
        near = [0.0, 0.5 * band, band, 2.0 * band]
        edges = sorted({e + sign * d for e in (0.0, tau) for d in near for sign in (1, -1)})
        s_at = edges + [-0.0, 0.5 * tau, -1.0, 2.0 * tau]
        # s = F exactly (z = 0), then alpha*z at tau and near 0 with F at and past the
        # band; the last sample has s and F in the band but alpha*z past it
        F = s_at + [0.0, band, -band, 2.0 * band, 0.0, -band, -2.0 * band, band]
        z = [0.0] * len(s_at) + [2.0 * tau] * 4 + [band, 2.0 * band, 4.0 * band, -3.0 * band]
        got = index_sets(np.array(F), np.array(z), alpha, lam)
        expect = index_sets_loop(F, z, alpha, lam)
        for name, idx in expect.items():
            np.testing.assert_array_equal(getattr(got, name), idx, err_msg=name)
            assert idx, f"no sample lands in {name}"
        np.testing.assert_array_equal(got.working, sorted(expect["t_o"] + expect["t_1"]))

    @pytest.mark.parametrize("zero_margin", [True, False])
    def test_matches_sample_loop_with_and_without_a_zero_margin_in_t2(self, rng, zero_margin):
        # t_o's dual test runs only when t_2 holds a zero margin; both paths must
        # classify as the per-sample loop does
        alpha, lam = 0.5, 1.3
        tau = ProxParams(alpha=alpha, lam=lam).threshold
        band = 1e-12 * max(1.0, tau)
        for _ in range(100):
            n = int(rng.integers(4, 16))
            F = rng.normal(size=n)
            z = rng.normal(size=n)
            edge = rng.choice(n, size=3, replace=False)
            # a margin at tau with no dual: in t_2, nonzero
            F[edge[0]], z[edge[0]] = tau, 0.0
            if zero_margin:
                # zero margins whose dual step alpha*z sits at tau (in t_o) or off
                # the break points (in t_2 only)
                F[edge[1]], z[edge[1]] = 0.0, 2.0 * tau
                F[edge[2]], z[edge[2]] = 0.9 * band, -3.0 * band
            got = index_sets(F, z, alpha, lam)
            expect = index_sets_loop(F, z, alpha, lam)
            for name, idx in expect.items():
                np.testing.assert_array_equal(getattr(got, name), idx, err_msg=name)
            np.testing.assert_array_equal(got.working, sorted(expect["t_o"] + expect["t_1"]))
            assert np.any(np.abs(F[got.t_2]) <= band) == zero_margin
            if zero_margin:
                assert edge[1] in got.t_o and edge[2] in np.setdiff1d(got.t_2, got.t_o)
            else:
                assert got.t_o.size == 0

    def test_partition(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 12))
            F = rng.normal(size=n) * rng.choice([1e-3, 1.0, 10.0])
            z = rng.normal(size=n)
            s = index_sets(F, z, alpha=rng.uniform(0.01, 10), lam=rng.uniform(0.01, 10))
            merged = np.concatenate([s.t_1, s.t_2, s.t_3])
            assert sorted(merged.tolist()) == list(range(n))
            assert set(s.t_o) <= set(s.t_2)
            assert set(s.working) == set(s.t_o) | set(s.t_1)


def placed_duals(theta, cache, working, alpha=1.0, lam=1.0):
    """Duals that put `working` in t_1 (F + alpha z = tau/2) and every other
    sample in t_3 (F + alpha z = 2 tau)."""
    tau = math.sqrt(2.0 * alpha * lam)
    s = np.full(cache.n, 2.0 * tau)
    s[working] = 0.5 * tau
    return (s - margins(theta, cache)) / alpha


class TestResidual:
    def test_all_zero(self, small_cache):
        # at theta = 0 every F_i is 1, beyond the tiny threshold: all samples in t_3
        r = residual(SurfaceParams.zeros(3), np.zeros(small_cache.n), 1e-9, 1e-9,
                     small_cache)
        assert r.sets.working.size == 0
        assert r.norm == 0.0
        assert r.margin_part.size == 0
        np.testing.assert_array_equal(r.grad_part, 0.0)

    def test_rejects_z_of_wrong_length(self, small_cache):
        with pytest.raises(ValueError, match="z has length"):
            residual(SurfaceParams.zeros(3), np.zeros(small_cache.n + 1), 1.0, 1.0,
                     small_cache)

    def test_off_working_dual_counts(self, small_cache):
        # threshold sqrt(2): F_i + z_i = 1 puts i in t_1, 1 + 0.7 puts sample 2 in t_3
        z = np.zeros(small_cache.n)
        z[2] = 0.7
        r = residual(SurfaceParams.zeros(3), z, 1.0, 1.0, small_cache)
        np.testing.assert_array_equal(r.sets.t_3, [2])
        assert 0.7 in r.dual_part
        assert r.norm >= 0.7

    def test_norm_combines_blocks(self, rng, small_cache):
        v = rng.normal(size=small_cache.d)
        theta = SurfaceParams.from_vector(v, small_cache.m)
        z = placed_duals(theta, small_cache, [0, 2])
        r = residual(theta, z, 1.0, 1.0, small_cache)
        np.testing.assert_array_equal(r.sets.working, [0, 2])
        expect = math.sqrt(np.sum(r.grad_part**2) + np.sum(r.margin_part**2)
                           + np.sum(r.dual_part**2))
        assert r.norm == pytest.approx(expect, rel=1e-15)

    def test_keeps_margins_and_smooth_gradient_bit_for_bit(self, rng):
        for n, m in ((5, 1), (9, 2), (20, 3)):
            cache = build_design(random_dataset(rng, n, m))
            theta = SurfaceParams.from_vector(rng.normal(size=cache.d), m)
            z = placed_duals(theta, cache, [0, n - 1])
            r = residual(theta, z, 1.0, 1.0, cache)
            assert r.sets.working.size == 2
            np.testing.assert_array_equal(r.F, margins(theta, cache))
            np.testing.assert_array_equal(r.G_theta, smooth_gradient(theta, cache))
            np.testing.assert_array_equal(r.margin_part, r.F[r.sets.working])

    def test_permutation_invariance(self, rng):
        data = random_dataset(rng, 7, 2)
        cache = build_design(data)
        v = rng.normal(size=cache.d)
        theta = SurfaceParams.from_vector(v, 2)
        z = placed_duals(theta, cache, [1, 4, 6])
        r1 = residual(theta, z, 1.0, 1.0, cache)
        np.testing.assert_array_equal(r1.sets.working, [1, 4, 6])

        perm = rng.permutation(7)
        data2 = Dataset(points=data.points[perm], labels=data.labels[perm])
        cache2 = build_design(data2)
        inv = np.argsort(perm)
        r2 = residual(theta, z[perm], 1.0, 1.0, cache2)
        np.testing.assert_array_equal(np.sort(r2.sets.working), np.sort(inv[[1, 4, 6]]))
        assert r1.norm == pytest.approx(r2.norm, rel=1e-12)


class TestAlphaBounds:
    def test_hand_case(self):
        a1, a2, astar = alpha_bounds(np.array([2.0, -1.0, 0.0]), np.array([0.0, 0.0, 0.5]), lam=1.0)
        assert a1 == pytest.approx(2.0)
        assert a2 == pytest.approx(8.0)
        assert astar == pytest.approx(2.0)

    def test_all_nonpositive(self):
        a1, a2, astar = alpha_bounds(np.array([-1.0, 0.0]), np.array([0.0, -2.0]), lam=3.0)
        assert a1 == math.inf and a2 == math.inf and astar == math.inf

    def test_bruteforce(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            F = rng.normal(size=n)
            z = rng.normal(size=n)
            lam = rng.uniform(0.1, 5)
            a1, a2, astar = alpha_bounds(F, z, lam)
            b1 = min((f * f / (2 * lam) for f in F if f > 0), default=math.inf)
            b2 = min((2 * lam / (t * t) for t in z if t > 0), default=math.inf)
            assert a1 == pytest.approx(b1)
            assert a2 == pytest.approx(b2)
            assert astar == min(a1, a2)

    def test_interval_inequalities_below_alpha_star(self, rng):
        # below alpha_star, positive margins clear the collapse threshold and
        # positive duals stay under the dual cap
        for _ in range(50):
            F = rng.normal(size=6)
            z = np.abs(rng.normal(size=6))
            lam = rng.uniform(0.2, 3)
            _, _, astar = alpha_bounds(F, z, lam)
            if not math.isfinite(astar):
                continue
            alpha = 0.9 * astar
            thr = math.sqrt(2 * lam * alpha)
            cap = math.sqrt(2 * lam / alpha)
            assert all(f > thr for f in F if f > 0)
            assert all(t < cap for t in z if t > 0)


class TestPStationaryCheck:
    def test_origin_fails_when_band_wide(self, small_cache):
        # alpha*lam > 1/2 puts F=1 inside the collapse interval
        cert = pstationary_check(SurfaceParams.zeros(3), np.zeros(small_cache.n),
                                 alpha=1.0, lam=1.0, cache=small_cache, tol=1e-8)
        assert not cert.passed and not cert.prox_ok

    def test_rejects_z_of_wrong_length(self, small_cache):
        with pytest.raises(ValueError, match="z has length"):
            pstationary_check(SurfaceParams.zeros(3), np.zeros(small_cache.n - 1),
                              alpha=1.0, lam=1.0, cache=small_cache, tol=1e-8)

    def test_constructed_pair_passes(self, rng):
        data, cache, theta, z, T = exact_pair(rng)
        _, _, astar = alpha_bounds(margins(theta, cache), z, lam=1.0, atol=1e-9)
        alpha = 0.5 * min(astar, 1.0)
        cert = pstationary_check(theta, z, alpha, 1.0, cache, tol=1e-7)
        assert cert.passed
        assert cert.alpha_star > alpha
        assert cert.sign_zero_margin_ok and cert.sign_zero_dual_ok

    def test_monotone_in_alpha(self, rng):
        # passing at alpha stays passing at smaller alpha when no margin enters the band
        data, cache, theta, z, T = exact_pair(rng)
        F = margins(theta, cache)
        _, _, astar = alpha_bounds(F, z, lam=1.0, atol=1e-9)
        alpha = 0.5 * min(astar, 1.0)
        for frac in (0.5, 0.1, 0.01):
            cert = pstationary_check(theta, z, frac * alpha, 1.0, cache, tol=1e-7)
            assert cert.passed

    def test_serializes(self, rng):
        data, cache, theta, z, T = exact_pair(rng)
        cert = pstationary_check(theta, z, 1e-3, 1.0, cache, tol=1e-6)
        d = cert.to_dict()
        assert set(d) >= {"grad_residual", "prox_ok", "alpha1", "alpha2", "alpha_star",
                          "passed", "tolerance"}
        cert.to_json()


class TestRankCheck:
    """`regular` fails when the rows of a_T are dependent."""

    def test_duplicate_rows(self, rng):
        pts = rng.normal(size=(4, 2))
        pts[2] = pts[0]
        data = Dataset(points=pts, labels=np.array([1.0, -1.0, 1.0, -1.0]))
        cache = build_design(data)
        assert not regular(np.array([0, 2]), cache)
        assert regular(np.array([0, 1]), cache)

    def test_empty_is_independent(self, small_cache):
        # no rows are independent rows, but the saddle is G alone, which has no
        # curvature in c; any one row, whose c entry is -y_i, supplies it
        assert not regular(np.array([], dtype=int), small_cache)
        assert regular(np.array([0]), small_cache)

    def test_empty_set_judged_without_a_solve(self, small_cache, monkeypatch):
        calls = []

        def spy(K, rhs, positive_definite=False):
            calls.append(K.shape)
            return solve_symmetric(K, rhs, positive_definite)

        monkeypatch.setattr(qs_stationarity, "solve_symmetric", spy)
        assert not regular(np.array([], dtype=int), small_cache)
        assert calls == []

    def test_generic_rows_independent(self, rng):
        data = random_dataset(rng, 10, 2)
        cache = build_design(data)
        assert regular(np.array([0, 3, 7]), cache)
        # cross-check with an independent factorization
        assert np.linalg.matrix_rank(cache.a[[0, 3, 7]]) == 3

    def test_more_rows_than_d_judged_without_a_solve(self, rng, monkeypatch):
        cache = build_design(random_dataset(rng, 10, 2))
        calls = []

        def spy(K, rhs, positive_definite=False):
            calls.append(K.shape)
            return solve_symmetric(K, rhs, positive_definite)

        monkeypatch.setattr(qs_stationarity, "solve_symmetric", spy)
        assert not regular(np.arange(cache.d + 1), cache)
        assert calls == []
        assert regular(np.arange(cache.d), cache)
        assert calls == [(2 * cache.d, 2 * cache.d)]


class TestSecondOrder:
    def test_empty_working_singular(self, small_cache):
        # G alone has a zero c-row, hence singular
        assert not regular(np.array([], dtype=int), small_cache)
        assert np.linalg.matrix_rank(small_cache.G) < small_cache.d

    def test_m1_instance_nonsingular(self, rng):
        data = Dataset(points=np.array([[1.0], [-1.0], [0.5]]),
                       labels=np.array([1.0, -1.0, 1.0]))
        cache = build_design(data)
        K = saddle_matrix(np.array([0, 1]), cache, 0.0)
        assert regular(np.array([0, 1]), cache)
        assert np.linalg.matrix_rank(K) == K.shape[0]

    def test_subset_sweep(self, rng):
        data = random_dataset(rng, 6, 2)
        cache = build_design(data)
        T = np.array([0, 1])
        singles = [regular(np.array(s, dtype=int), cache) for s in ([0], [1], [0, 1])]
        assert regular(T, cache) == all(singles)
        # a twin pair is irregular as a set, though each row is regular alone
        pts = data.points.copy()
        pts[2] = pts[0]
        twins = build_design(Dataset(points=pts, labels=data.labels))
        assert regular(np.array([0]), twins) and regular(np.array([2]), twins)
        assert not regular(np.array([0, 2]), twins)
        assert not brute_force_sweep(np.array([0, 2]), twins)

    def test_linear_sweep_matches_brute_force(self, rng):
        # one solve over T answers for every nonempty subset of T
        sizes = set()
        for trial in range(40):
            m = int(rng.integers(1, 4))
            data = random_dataset(rng, 12, m)
            if trial % 4 == 0:  # twin samples make some pairs dependent
                pts = data.points.copy()
                pts[1] = pts[0]
                data = Dataset(points=pts, labels=data.labels)
            cache = build_design(data)
            size = int(rng.integers(1, min(cache.d + 2, 12) + 1))
            T = np.sort(rng.choice(data.n, size=size, replace=False))
            assert regular(T, cache) == brute_force_sweep(T, cache)
            sizes.add(size)
        assert {1, 12} <= sizes

    def test_linear_sweep_matches_brute_force_on_thirteen_rows(self, rng):
        cache = build_design(random_dataset(rng, 16, 4))
        T = np.arange(13)
        assert 13 <= cache.d
        assert regular(T, cache) == brute_force_sweep(T, cache)

    @pytest.mark.parametrize("construction", ["collinear", "duplicated", "constant"])
    def test_degenerate_design_has_no_regular_subset(self, rng, construction):
        # points on a proper affine subspace widen null(G) beyond e_c, and every
        # margin row is then one functional on it up to sign: no T is regular,
        # not even a single row (the designs of tools/fit_digest.py)
        for seed in range(3):
            data = generate(GenSpec(kind="circular", n_per_class=50, seed=seed))
            x, y = data.points.T
            pts = {"collinear": np.column_stack([x, 2.0 * x]),
                   "duplicated": np.column_stack([x, y, y]),
                   "constant": np.column_stack([x, y, np.ones_like(x)])}[construction]
            cache = build_design(Dataset(points=pts, labels=data.labels))
            assert not any(regular(np.array([i]), cache) for i in range(cache.n))
            for size in range(2, cache.d + 1):
                T = np.sort(rng.choice(cache.n, size=size, replace=False))
                assert not regular(T, cache)


class TestEquivalence:
    def test_residual_zero_iff_check_passes(self, rng):
        # constructed exact pairs: both tests agree
        for _ in range(10):
            data, cache, theta, z, T = exact_pair(rng)
            F = margins(theta, cache)
            _, _, astar = alpha_bounds(F, z, lam=1.0, atol=1e-9)
            alpha = 0.5 * min(astar, 1.0)
            r = residual(theta, z, alpha, 1.0, cache)
            assert sorted(r.sets.working.tolist()) == sorted(T.tolist())
            cert = pstationary_check(theta, z, alpha, 1.0, cache, tol=1e-8)
            assert r.norm < 1e-10
            assert cert.passed

    def test_perturbed_pair_breaks_both(self, rng):
        data, cache, theta, z, T = exact_pair(rng)
        F = margins(theta, cache)
        _, _, astar = alpha_bounds(F, z, lam=1.0, atol=1e-9)
        alpha = 0.5 * min(astar, 1.0)
        off = [i for i in range(cache.n) if i not in set(T.tolist())][0]
        z2 = z.copy()
        z2[off] += 0.1
        r = residual(theta, z2, alpha, 1.0, cache)
        assert r.norm >= 0.1
        cert = pstationary_check(theta, z2, alpha, 1.0, cache, tol=1e-8)
        assert not cert.passed


_EPS = np.finfo(float).eps


def _outcome(fn):
    """(solution or None, exception type or None, LinAlgWarning count) of fn()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LinAlgWarning)
        try:
            sol, err = fn(), None
        except (LinAlgError, ValueError) as exc:
            sol, err = None, type(exc)
    return sol, err, sum(issubclass(w.category, LinAlgWarning) for w in caught)


def _solve_silently(K, rhs, positive_definite=False):
    """solve_symmetric's (x, rcond), failing the test on any warning it emits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_symmetric(K, rhs, positive_definite=positive_definite)


class TestSolveSymmetric:
    """The shared LAPACK route must reproduce scipy.linalg.solve bit for bit.

    Where scipy raises LinAlgError, x is None; where it warns LinAlgWarning,
    rcond is below machine epsilon; and nothing is raised or warned.
    """

    def test_spd_matches_scipy(self, rng):
        B = rng.normal(size=(40, 15))
        H = B.T @ B + 1e-9 * np.eye(15)
        b = rng.normal(size=15)
        expect = scipy.linalg.solve(H, b, assume_a="pos")
        x, rcond = _solve_silently(H, b, positive_definite=True)
        np.testing.assert_array_equal(x, expect)
        assert rcond >= _EPS

    @pytest.mark.parametrize("k", [3, 20, 58, 64, 94])
    def test_saddle_matches_scipy(self, circ_data, rng, k):
        # d = 6: orders 64 and 70 sit on either side of dsytrf's 64-column
        # block, above which the unblocked factorisation rounds differently
        cache = build_design(circ_data)
        working = np.sort(rng.choice(cache.n, size=k, replace=False))
        K = saddle_matrix(working, cache, gamma=0.1 if k > cache.d else 0.0)
        rhs = rng.normal(size=K.shape[0])
        x, rcond = _solve_silently(K, rhs)
        np.testing.assert_array_equal(x, scipy.linalg.solve(K, rhs))
        assert rcond >= _EPS

    def test_singular_is_refused(self, circ_data):
        # G alone has an exactly zero c-row
        G = saddle_matrix(np.array([], dtype=int), build_design(circ_data))
        rhs = np.ones(G.shape[0])
        for positive_definite, assume_a in ((False, "sym"), (True, "pos")):
            with pytest.raises(LinAlgError):
                scipy.linalg.solve(G, rhs, assume_a=assume_a)
            x, rcond = _solve_silently(G, rhs, positive_definite=positive_definite)
            assert x is None and rcond == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite(self, bad):
        K, rhs = np.eye(3), np.ones(3)
        for positive_definite in (False, True):
            K_bad = K.copy()
            K_bad[1, 2] = K_bad[2, 1] = bad
            with pytest.raises(ValueError):
                solve_symmetric(K_bad, rhs, positive_definite=positive_definite)
            for i in range(3):
                rhs_bad = rhs.copy()
                rhs_bad[i] = bad
                with pytest.raises(ValueError):
                    solve_symmetric(K, rhs_bad, positive_definite=positive_definite)

    def test_finite_matrix_with_overflowing_norm_like_scipy(self):
        # every entry is finite but the column sums overflow: the infinite
        # 1-norm must not be taken for a non-finite K
        K = np.array([[1e308, 9e307], [9e307, 1e308]])
        rhs = np.ones(2)
        for positive_definite, assume_a in ((True, "pos"), (False, "sym")):
            sol, rcond = _solve_silently(K, rhs, positive_definite=positive_definite)
            ref, ref_err, ref_warned = _outcome(
                lambda: scipy.linalg.solve(K, rhs, assume_a=assume_a))
            assert ref_err is None and sol is not None
            assert (rcond < _EPS) == (ref_warned == 1)
            np.testing.assert_array_equal(sol, ref)

    def test_finite_rhs_with_overflowing_norm_is_solved(self):
        # the 1-norm of the right-hand side overflows, but every entry is finite
        rhs = np.array([1e308, 1e308])
        for positive_definite in (False, True):
            x, rcond = _solve_silently(np.eye(2), rhs, positive_definite=positive_definite)
            np.testing.assert_array_equal(x, rhs)
            assert rcond == 1.0

    def test_flags_near_singular(self, circ_data):
        # shifting G's zero c-row leaves one pivot of exactly 1e-30
        G = saddle_matrix(np.array([], dtype=int), build_design(circ_data))
        K = G + 1e-30 * np.eye(G.shape[0])
        rhs = np.ones(K.shape[0])
        for positive_definite, assume_a in ((False, "sym"), (True, "pos")):
            with pytest.warns(LinAlgWarning):
                ref = scipy.linalg.solve(K, rhs, assume_a=assume_a)
            x, rcond = _solve_silently(K, rhs, positive_definite=positive_definite)
            assert rcond < _EPS
            np.testing.assert_array_equal(x, ref)

    def test_identical_active_rows_like_scipy(self, circ_data):
        # two copies of one margin row: rounding decides between a tiny pivot
        # (warning) and a zero one (error), and the helper must decide as
        # scipy.linalg.solve does, never pass the solution as well-conditioned
        cache = build_design(circ_data)
        K = saddle_matrix(np.array([3, 3, 17, 40, 61]), cache, 0.0)
        rhs = np.concatenate([np.zeros(cache.d), -np.ones(5)])
        sol, rcond = _solve_silently(K, rhs)
        ref, ref_err, ref_warned = _outcome(lambda: scipy.linalg.solve(K, rhs))
        assert (sol is None) == (ref_err is LinAlgError)
        assert (sol is not None and rcond < _EPS) == (ref_warned == 1)
        assert sol is None or rcond < _EPS
        if sol is not None:
            np.testing.assert_array_equal(sol, ref)


def test_one_route_for_symmetric_solves():
    """Every linear solve in the library goes through solve_symmetric, every LAPACK
    call sits in stationarity.py, and no caller silences the warnings of a solve."""
    src = Path(__file__).resolve().parent.parent / "src" / "quadsurf"
    # (pattern, the one file allowed to match it)
    rules = [(re.compile(r"(scipy\.linalg|np\.linalg)\.solve\("), None),
             (re.compile(r"lapack\."), "stationarity.py"),
             (re.compile(r"catch_warnings"), None)]
    offenders = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 for pattern, allowed in rules
                 if pattern.search(line) and path.name != allowed]
    assert offenders == []
