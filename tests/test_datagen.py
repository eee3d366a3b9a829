import numpy as np
import pytest

from quadsurf import GenSpec, Kind, generate, generating_surface, margins, build_design


class TestGenerate:
    def test_circular_structure(self):
        data = generate(GenSpec(kind="circular", n_per_class=50, seed=0))
        assert data.n == 100
        assert (data.labels == 1).sum() == 50
        radii = np.linalg.norm(data.points[data.labels == 1], axis=1)
        assert radii.max() < 1.0
        ann = np.linalg.norm(data.points[data.labels == -1], axis=1)
        assert ann.min() >= 1.4 and ann.max() <= 2.5

    def test_deterministic(self):
        spec = GenSpec(kind="linear", n_per_class=50, seed=7)
        d1, d2 = generate(spec), generate(spec)
        np.testing.assert_array_equal(d1.points, d2.points)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_convex2d_band(self):
        data = generate(GenSpec(kind="convex2d", n_per_class=30, seed=2))
        x1, x2 = data.points[:, 0], data.points[:, 1]
        pos = data.labels == 1
        assert np.all(x2[pos] >= x1[pos] ** 2 + 0.3 - 1e-12)
        assert np.all(x2[~pos] <= x1[~pos] ** 2 - 0.3 + 1e-12)

    @pytest.mark.parametrize("kind", ["linear", "circular", "convex2d"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generating_surface_separates(self, kind, seed):
        spec = GenSpec(kind=kind, n_per_class=50, seed=seed)
        data = generate(spec)
        surface = generating_surface(spec)
        F = margins(surface, build_design(data))
        assert int((F > 0).sum()) == 0

    @pytest.mark.parametrize("kind", ["linear", "circular", "convex2d"])
    def test_noise_preserves_separability(self, kind):
        spec = GenSpec(kind=kind, n_per_class=40, seed=4, noise=0.3)
        data = generate(spec)
        surface = generating_surface(spec)
        F = margins(surface, build_design(data))
        assert int((F > 1e-9).sum()) == 0

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            GenSpec(kind="circular", n_per_class=0)
        with pytest.raises(ValueError):
            GenSpec(kind="circular", noise=-0.1)
        with pytest.raises(ValueError):
            GenSpec(kind="triangle")

    @pytest.mark.parametrize("setting", [
        {"n_per_class": 2.5}, {"n_per_class": True},
        {"seed": 1.5}, {"seed": True}, {"seed": -1}, {"seed": "1"},
        {"noise": float("nan")}, {"noise": float("inf")}, {"noise": True},
        {"noise": np.bool_(True)}, {"noise": "0.3"},
    ])
    def test_rejects_bad_setting_with_value_error(self, setting):
        name = next(iter(setting))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GenSpec(kind="circular", **setting)

    def test_numpy_settings_keep_their_draw(self):
        # a numpy seed (as `SeedSequence.generate_state` gives) is stored as an int
        # and draws the same data; a numpy noise is kept as given
        spec = GenSpec(kind="circular", n_per_class=np.int64(20), seed=np.uint32(7),
                       noise=np.float64(0.3))
        assert type(spec.n_per_class) is int and type(spec.seed) is int
        plain = generate(GenSpec(kind="circular", n_per_class=20, seed=7, noise=0.3))
        np.testing.assert_array_equal(generate(spec).points, plain.points)
        np.testing.assert_array_equal(generate(spec).labels, plain.labels)

    def test_kind_enum_roundtrip(self):
        assert GenSpec(kind="linear").kind is Kind.LINEAR
