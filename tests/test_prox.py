import math

import numpy as np
import pytest

from quadsurf import ProxParams, positive_count, prox_contains, prox_scalar, prox_vector, zero_one_loss


def prox_objective(u, z, p):
    return p.lam * (1.0 if u > 0 else 0.0) + (u - z) ** 2 / (2.0 * p.alpha)


def prox_contains_loop(u, z, p, tol):
    """The per-sample branching prox_contains replaced; reference for its array form."""
    thr = p.threshold
    out = []
    for ui, zi in zip(u, z):
        if abs(zi) <= tol or abs(zi - thr) <= tol:
            out.append(min(abs(ui), abs(ui - zi)) <= tol)
        elif 0.0 < zi < thr:
            out.append(abs(ui) <= tol)
        else:
            out.append(abs(ui - zi) <= tol)
    return np.array(out, dtype=bool)


def prox_vector_loop(z, p, tie_to_zero):
    """The per-entry branching prox_scalar once had; reference for prox_vector."""
    thr = p.threshold
    out = []
    for zi in z:
        if zi == 0.0 or zi == thr:
            out.append(0.0 if tie_to_zero else zi)
        elif 0.0 < zi < thr:
            out.append(0.0)
        else:
            out.append(zi)
    return np.array(out, dtype=np.float64)


def grid_minimum(z, p, spacing=1e-4):
    """Brute-force prox objective minimum over a grid around z plus {0, z}."""
    grid = np.arange(z - 3.0, z + 3.0 + spacing, spacing)
    vals = p.lam * (grid > 0) + (grid - z) ** 2 / (2.0 * p.alpha)
    best = vals.min()
    return min(best, prox_objective(0.0, z, p), prox_objective(z, z, p))


class TestZeroOneLoss:
    def test_zero_at_zero(self):
        assert zero_one_loss(0.0) == 0

    def test_strict_positive(self):
        assert zero_one_loss(1e-12) == 1

    def test_negative(self):
        assert zero_one_loss(-3.0) == 0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            zero_one_loss(float("nan"))


class TestPositiveCount:
    def test_zeros(self):
        assert positive_count(np.zeros(3)) == 0

    def test_mixed(self):
        assert positive_count(np.array([1.0, -1.0, 2.0])) == 2

    def test_matches_scalar_sum(self, rng):
        u = rng.normal(size=200)
        assert positive_count(u) == sum(zero_one_loss(t) for t in u)


class TestProxScalar:
    def test_interior_collapses(self):
        p = ProxParams(alpha=0.5, lam=1.0)  # threshold = 1
        assert p.threshold == pytest.approx(1.0)
        assert prox_scalar(0.5, p) == 0.0

    def test_passthrough(self):
        p = ProxParams(alpha=0.5, lam=1.0)
        assert prox_scalar(-1.0, p) == -1.0
        assert prox_scalar(2.0, p) == 2.0

    def test_boundary_tie(self):
        p = ProxParams(alpha=0.5, lam=1.0)
        assert prox_scalar(1.0, p) == 0.0
        assert prox_scalar(1.0, p, tie_to_zero=False) == 1.0

    def test_zero_input(self):
        p = ProxParams(alpha=3.0, lam=0.2)
        assert prox_scalar(0.0, p) == 0.0
        assert prox_scalar(0.0, p, tie_to_zero=False) == 0.0

    def test_idempotent_on_range(self, rng):
        p = ProxParams(alpha=1.3, lam=0.7)
        for z in rng.uniform(-4, 4, size=100):
            u = prox_scalar(z, p)
            assert prox_scalar(u, p) == u

    def test_scaling_consistency(self, rng):
        # prox with (alpha, lam) equals prox with (t*alpha, lam/t)
        for _ in range(100):
            z = rng.uniform(-4, 4)
            a, lam, t = rng.uniform(0.1, 5, size=3)
            assert prox_scalar(z, ProxParams(a, lam)) == prox_scalar(z, ProxParams(t * a, lam / t))


class TestProxVector:
    def test_paper_style_case(self):
        p = ProxParams(alpha=0.5, lam=1.0)
        out = prox_vector(np.array([0.5, -1.0, 2.0]), p)
        np.testing.assert_array_equal(out, [0.0, -1.0, 2.0])

    def test_zero_vector(self):
        p = ProxParams(alpha=1.0, lam=1.0)
        np.testing.assert_array_equal(prox_vector(np.zeros(4), p), np.zeros(4))

    def test_componentwise(self, rng):
        p = ProxParams(alpha=0.8, lam=2.0)
        z = rng.uniform(-5, 5, size=50)
        out = prox_vector(z, p)
        np.testing.assert_array_equal(out, [prox_scalar(t, p) for t in z])

    def test_attains_grid_minimum(self, rng):
        for _ in range(50):
            p = ProxParams(alpha=rng.uniform(0.01, 10), lam=rng.uniform(0.01, 10))
            z = rng.uniform(-5, 5)
            u = prox_vector(np.array([z]), p)[0]
            assert prox_objective(u, z, p) <= grid_minimum(z, p) + 1e-9

    @pytest.mark.parametrize("tie_to_zero", [True, False])
    def test_break_points_match_scalar_loop(self, tie_to_zero):
        p = ProxParams(alpha=0.3, lam=0.7)
        thr = p.threshold
        tiny = np.nextafter(0.0, 1.0)
        z = np.array([0.0, -0.0, thr, np.nextafter(thr, 0.0), np.nextafter(thr, 2.0 * thr),
                      tiny, -tiny, 0.5 * thr, -thr, 2.0 * thr])
        out = prox_vector(z, p, tie_to_zero=tie_to_zero)
        expect = prox_vector_loop(z, p, tie_to_zero)
        # compared bit for bit, so the sign of a returned zero counts
        np.testing.assert_array_equal(out.view(np.int64), expect.view(np.int64))
        scalar = np.array([prox_scalar(t, p, tie_to_zero=tie_to_zero) for t in z])
        np.testing.assert_array_equal(scalar.view(np.int64), expect.view(np.int64))

    def test_unique_minimizer_off_boundary(self, rng):
        # away from {0, threshold} the prox value strictly beats the alternative branch
        for _ in range(200):
            p = ProxParams(alpha=rng.uniform(0.05, 5), lam=rng.uniform(0.05, 5))
            z = rng.uniform(-4, 4)
            if min(abs(z), abs(z - p.threshold)) < 1e-9:
                continue
            u = prox_scalar(z, p)
            other = z if u == 0.0 else 0.0
            assert prox_objective(u, z, p) < prox_objective(other, z, p) + 1e-15


class TestProxContains:
    def test_boundary_admits_both(self):
        p = ProxParams(alpha=0.5, lam=1.0)
        thr = p.threshold
        assert prox_contains(0.0, thr, p)
        assert prox_contains(thr, thr, p)

    def test_interior_maps_to_zero_only(self):
        p = ProxParams(alpha=0.5, lam=1.0)
        assert not prox_contains(0.3, 0.3, p)
        assert prox_contains(0.0, 0.3, p)

    def test_identity_branch(self, rng):
        p = ProxParams(alpha=1.0, lam=1.0)
        for z in rng.uniform(-5, -0.01, size=20):
            assert prox_contains(z, z, p)

    def test_tolerance_band(self):
        p = ProxParams(alpha=0.5, lam=1.0)
        assert prox_contains(1e-9, 0.5, p, tol=1e-8)
        assert not prox_contains(1e-7, 0.5, p, tol=1e-8)

    @pytest.mark.parametrize("tol", [0.0, 1e-8])
    def test_array_form_matches_scalar_loop(self, rng, tol):
        p = ProxParams(alpha=0.5, lam=1.0)
        thr = p.threshold
        offsets = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0]) * tol  # in, at, beyond tol
        # z at, near and between the branch points; u near 0 and near z
        zz, off = np.meshgrid(np.add.outer([0.0, thr, 0.5 * thr], offsets).ravel(), offsets)
        z_rand = rng.uniform(-2, 2, 300)
        pick = rng.integers(0, 3, 300)
        u_rand = np.where(pick == 0, 0.0, np.where(pick == 1, z_rand, rng.uniform(-2, 2, 300)))
        z = np.concatenate([zz.ravel(), zz.ravel(), z_rand])
        u = np.concatenate([off.ravel(), (zz + off).ravel(), u_rand])

        expect = prox_contains_loop(u, z, p, tol)
        np.testing.assert_array_equal(prox_contains(u, z, p, tol=tol), expect)
        scalar = [prox_contains(ui, zi, p, tol=tol) for ui, zi in zip(u, z)]
        assert all(type(v) is bool for v in scalar) and scalar == expect.tolist()
        assert expect.any() and not expect.all()
