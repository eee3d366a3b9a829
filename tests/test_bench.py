import numpy as np
import pytest

from quadsurf import (BenchProtocol, Dataset, GenSpec, InputError, SolverConfig,
                      SurfaceParams, boundary_grid, generate, load_csv, predict,
                      run_bench, save_csv, split)
from quadsurf.bench import apply_normalizer, fit_normalizer, grid_to_csv, rows_to_csv, rows_to_json


class TestLoadCsv:
    def write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_zero_one_labels_map(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0, -1.0])

    def test_header_detected(self, tmp_path):
        body = "1.0,2.0,-1\n3.0,4.0,1\n"
        p1 = self.write(tmp_path, "x1,x2,label\n" + body, "a.csv")
        p2 = self.write(tmp_path, body, "b.csv")
        d1, d2 = load_csv(p1), load_csv(p2)
        np.testing.assert_array_equal(d1.points, d2.points)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_byte_order_mark_keeps_first_sample(self, tmp_path):
        body = "5.1,3.5,-1\n4.9,3.0,1\n4.7,3.2,-1\n4.6,3.1,1\n"
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + body.encode())
        data = load_csv(str(p))
        assert data.n == 4
        np.testing.assert_array_equal(data.points, load_csv(self.write(tmp_path, body)).points)

    def test_header_after_blank_lines(self, tmp_path):
        body = "1.0,2.0,-1\n3.0,4.0,1\n"
        data = load_csv(self.write(tmp_path, "\n\nx1,x2,label\n" + body))
        np.testing.assert_array_equal(data.points, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(InputError, match="row 4: non-numeric value 'x1'"):
            load_csv(self.write(tmp_path, "\n" + body + "x1,x2,label\n", "late.csv"))

    def test_class_pair_filters_and_maps(self, tmp_path):
        path = self.write(tmp_path, "1,1,0\n2,2,1\n3,3,2\n4,4,1\n")
        data = load_csv(path, class_pair=(1, 2))
        assert data.n == 3
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0, -1.0])

    def test_ragged_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "1,2,0\n1,2,3,1\n")
        with pytest.raises(InputError, match="row 2"):
            load_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = self.write(tmp_path, "1,2,0\n1,x,1\n")
        with pytest.raises(InputError, match="row 2"):
            load_csv(path)

    def test_single_label_rejected(self, tmp_path):
        path = self.write(tmp_path, "1,2,1\n3,4,1\n")
        with pytest.raises(InputError, match="distinct"):
            load_csv(path)

    def test_three_labels_need_pair(self, tmp_path):
        path = self.write(tmp_path, "1,1,0\n2,2,1\n3,3,2\n")
        with pytest.raises(InputError, match="class_pair"):
            load_csv(path)

    def test_roundtrip_via_save(self, tmp_path, circ_data):
        path = str(tmp_path / "round.csv")
        save_csv(path, circ_data)
        back = load_csv(path)
        np.testing.assert_allclose(back.points, circ_data.points, rtol=0, atol=0)
        np.testing.assert_array_equal(back.labels, circ_data.labels)


class TestSplit:
    def test_balanced_80_20(self, circ_data):
        train, test = split(circ_data, 0.8, seed=0)
        assert train.n == 80 and test.n == 20
        assert (train.labels == 1).sum() == 40
        assert (test.labels == 1).sum() == 10

    def test_deterministic(self, circ_data):
        t1 = split(circ_data, 0.6, seed=9)
        t2 = split(circ_data, 0.6, seed=9)
        np.testing.assert_array_equal(t1[0].points, t2[0].points)
        np.testing.assert_array_equal(t1[1].points, t2[1].points)

    def test_union_is_original_multiset(self, circ_data):
        train, test = split(circ_data, 0.37, seed=5)
        merged = np.vstack([train.points, test.points])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(circ_data.points.T)
        np.testing.assert_array_equal(merged[key], circ_data.points[orig_key])

    def test_tiny_class_rejected(self):
        data = Dataset(points=np.ones((3, 1)), labels=np.array([1.0, 1.0, -1.0]))
        with pytest.raises(InputError):
            split(data, 0.5, seed=0)

    def test_at_least_one_each_side(self):
        data = Dataset(points=np.arange(8.0).reshape(4, 2),
                       labels=np.array([1.0, 1.0, -1.0, -1.0]))
        train, test = split(data, 0.95, seed=0)
        for lbl in (-1.0, 1.0):
            assert (train.labels == lbl).sum() >= 1
            assert (test.labels == lbl).sum() >= 1


class TestNormalize:
    def test_zscore(self, rng):
        pts = rng.normal(size=(50, 3)) * 5 + 2
        shift, scale = fit_normalizer(pts, "zscore")
        out = (pts - shift) / scale
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, rtol=1e-12)

    def test_minmax(self, rng):
        pts = rng.normal(size=(30, 2))
        shift, scale = fit_normalizer(pts, "minmax")
        out = (pts - shift) / scale
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_constant_column_safe(self):
        pts = np.ones((10, 2))
        for mode in ("zscore", "minmax"):
            shift, scale = fit_normalizer(pts, mode)
            assert np.all(np.isfinite((pts - shift) / scale))


class TestRunBench:
    def test_circular_bench_perfect(self, circ_data):
        proto = BenchProtocol(train_rate=0.8, trials=3, seed=0)
        rows = run_bench(circ_data, proto, SolverConfig())
        by = {r["method"]: r for r in rows}
        assert by["newton_l01"]["acc_mean"] == pytest.approx(100.0)
        assert by["newton_l01"]["failures"] == 0

    def test_rerun_identical(self, circ_data):
        proto = BenchProtocol(train_rate=0.7, trials=4, seed=11)
        r1 = run_bench(circ_data, proto, SolverConfig())
        r2 = run_bench(circ_data, proto, SolverConfig())
        for a, b in zip(r1, r2):
            assert a["acc_mean"] == b["acc_mean"]
            assert a["acc_var"] == b["acc_var"]

    def test_row_serialization(self, tmp_path, circ_data):
        proto = BenchProtocol(train_rate=0.8, trials=2, seed=0)
        rows = run_bench(circ_data, proto, SolverConfig())
        csv_path = tmp_path / "rows.csv"
        rows_to_csv(rows, csv_path)
        assert csv_path.read_text().startswith("method,")
        text = rows_to_json(rows)
        assert '"newton_l01"' in text

    def test_accuracy_accounting(self, circ_data):
        # reported accuracy equals a per-point recount of predictions
        from quadsurf import accuracy, ls_qssvm_fit
        train, test = split(circ_data, 0.8, seed=2)
        theta = ls_qssvm_fit(train)
        correct = sum(1 for x, y in zip(test.points, test.labels)
                      if predict(theta, x) == y)
        assert accuracy(theta, test) == pytest.approx(correct / test.n)


class TestBenchProtocol:
    @pytest.mark.parametrize("kwargs", [{"train_rate": 0.0}, {"train_rate": 1.0},
                                        {"trials": 0}, {"normalize": "l2"}])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            BenchProtocol(**kwargs)

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, "3"])
    def test_rejects_non_integral_trials(self, trials):
        # 2.5 used to pass here and fail later inside range()
        with pytest.raises(ValueError, match="trials must be an integer"):
            BenchProtocol(trials=trials)

    @pytest.mark.parametrize("seed", [2.5, -1, False])
    def test_rejects_a_seed_that_seedsequence_would_refuse(self, seed):
        # 2.5 and -1 used to pass here and fail inside run_bench's SeedSequence
        with pytest.raises(ValueError, match="seed must be an integer"):
            BenchProtocol(seed=seed)

    def test_numpy_integer_trials_become_an_int(self, circ_data):
        proto = BenchProtocol(trials=np.int64(2), seed=0)
        assert type(proto.trials) is int and proto.trials == 2
        rows = run_bench(circ_data, proto, SolverConfig())
        assert [r["trials"] for r in rows] == [2, 2]
        rows_to_json(rows)


class TestBoundaryGrid:
    def setup_method(self):
        # unit circle: h = 0.5|x|^2 - 1
        self.theta = SurfaceParams(np.array([1.0, 1.0, 0.0]), np.zeros(2), -1.0)

    def test_center_and_corners(self):
        grid = boundary_grid(self.theta, (-2, 2, -2, 2), 3)
        assert grid.shape == (9, 4)
        rows = {(x, y): (h, s) for x, y, h, s in grid}
        assert rows[(0.0, 0.0)][1] == -1.0
        assert rows[(-2.0, -2.0)][1] == 1.0
        assert rows[(2.0, 2.0)][1] == 1.0

    def test_resolution_one_is_center(self):
        grid = boundary_grid(self.theta, (-2, 2, 0, 4), 1)
        assert grid.shape == (1, 4)
        assert grid[0, 0] == 0.0 and grid[0, 1] == 2.0

    def test_signs_match_predict(self, rng):
        grid = boundary_grid(self.theta, (-3, 3, -3, 3), 7)
        for x, y, h, s in grid:
            assert s == predict(self.theta, [x, y])

    def test_requires_two_features(self):
        theta = SurfaceParams(np.array([1.0]), np.array([0.0]), 0.0)
        with pytest.raises(InputError):
            boundary_grid(theta, (-1, 1, -1, 1), 3)

    def test_csv_writer(self, tmp_path):
        grid = boundary_grid(self.theta, (-1, 1, -1, 1), 2)
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,h,sign"
        assert len(lines) == 5
