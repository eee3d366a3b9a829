from pathlib import Path

import numpy as np
import pytest

from quadsurf import (BenchProtocol, Dataset, GenSpec, LsqConfig, Normalize, SolverConfig,
                      SolveStatus, accuracy, apply_normalizer, build_design, compare,
                      fit_normalizer, generate, load_csv, ls_qssvm_fit, lsq_objective_gradient,
                      margins, run_bench, solve, split, warm_start_point)

IRIS_CSV = Path(__file__).resolve().parent.parent / "data" / "iris.csv"


class TestLsqFit:
    def test_exact_minimizer(self, rng, circ_data):
        cfg = LsqConfig()
        theta = ls_qssvm_fit(circ_data, cfg)
        g = lsq_objective_gradient(theta, circ_data, cfg)
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(theta.to_vector()))

    def test_circular_accuracy(self, circ_data):
        # the squared-error surface cannot carry the far annulus points to the
        # -1 target without pulling the boundary inside the ring, so a handful
        # of inner-annulus points stay misclassified at every penalty level
        theta = ls_qssvm_fit(circ_data, LsqConfig(c_penalty=100.0))
        assert accuracy(theta, circ_data) >= 0.9

    def test_all_one_label_predicts_that_label(self, rng):
        data = Dataset(points=rng.normal(size=(15, 2)), labels=np.ones(15))
        theta = ls_qssvm_fit(data, LsqConfig())
        assert accuracy(theta, data) == 1.0

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_large_penalty_interpolates_single_point(self):
        data = Dataset(points=np.array([[1.5]]), labels=np.array([1.0]))
        theta = ls_qssvm_fit(data, LsqConfig(c_penalty=1e6))
        h = theta.decision_values(data.points)[0]
        assert abs(h - 1.0) < 1e-3

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LsqConfig(c_penalty=0.0)
        with pytest.raises(ValueError):
            LsqConfig(ridge=-1.0)


class TestWarmStart:
    def test_balance_and_margins(self, circ_data):
        from quadsurf import smooth_gradient
        cache = build_design(circ_data)
        theta0, z0 = warm_start_point(circ_data, cache, lam=10.0, alpha=1e-6)
        g = smooth_gradient(theta0, cache) + cache.a.T @ z0
        assert np.linalg.norm(g) < 1e-6
        assert np.all(z0 >= 0.0)
        F = margins(theta0, cache)
        assert F.max() <= 1e-8  # separable case polishes to feasibility

    def test_unpolished_keeps_violations_small(self, circ_data):
        cache = build_design(circ_data)
        theta0, z0 = warm_start_point(circ_data, cache, lam=10.0, alpha=1e-6,
                                      polish=False)
        F = margins(theta0, cache)
        tau = np.sqrt(2.0 * 1e-6 * 10.0)
        assert F.max() <= tau

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_polish_with_duplicated_samples(self):
        # Two identical training samples share one margin row, so the polish's
        # first active set holds a rank-deficient A_act (rank 13 of 14) and its
        # saddle solves are near-singular.  The fit must still certify a point
        # that prices only a few margins; falling back to the penalty duals
        # instead ends near theta = 0 with every margin violated.
        data = load_csv(IRIS_CSV, class_pair=(1, 2))
        train, _ = split(data, 0.8, np.random.SeedSequence(entropy=9000, spawn_key=(87,)))
        train = apply_normalizer(train, *fit_normalizer(train.points, Normalize.ZSCORE))
        rows = np.column_stack([train.points, train.labels])
        assert np.unique(rows, axis=0).shape[0] == train.n - 1

        report = solve(train, SolverConfig(lam=100.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.certificate.passed
        violations = np.count_nonzero(margins(report.final.theta, build_design(train)) > 0.0)
        assert violations <= train.n // 4


class TestCompare:
    def test_rows_schema_and_determinism(self, circ_data, rng):
        perm = rng.permutation(circ_data.n)
        train = Dataset(circ_data.points[perm[:70]], circ_data.labels[perm[:70]])
        test = Dataset(circ_data.points[perm[70:]], circ_data.labels[perm[70:]])
        rows1 = compare(train, test, trials=2, seed=0)
        rows2 = compare(train, test, trials=2, seed=0)
        assert [r["method"] for r in rows1] == ["newton_l01", "ls_qssvm"]
        for r1, r2 in zip(rows1, rows2):
            for key in ("acc_min", "acc_max", "acc_mean", "acc_var", "failures"):
                assert r1[key] == r2[key]

    def test_ls_on_separable_linear(self):
        from quadsurf import split
        data = generate(GenSpec(kind="linear", n_per_class=40, seed=0))
        train, test = split(data, 0.75, seed=0)
        rows = compare(train, test, methods=("ls_qssvm",), trials=1, seed=1)
        assert rows[0]["acc_mean"] == pytest.approx(100.0)

    def test_newton_at_least_close_to_ls(self, circ_data, rng):
        perm = np.random.default_rng(3).permutation(circ_data.n)
        train = Dataset(circ_data.points[perm[:70]], circ_data.labels[perm[:70]])
        test = Dataset(circ_data.points[perm[70:]], circ_data.labels[perm[70:]])
        rows = compare(train, test, trials=1, seed=0)
        by = {r["method"]: r for r in rows}
        assert by["newton_l01"]["acc_mean"] >= by["ls_qssvm"]["acc_mean"] - 1.0

    def test_rejects_unknown_method(self, circ_data):
        with pytest.raises(ValueError):
            compare(circ_data, circ_data, methods=("svm",), trials=1)

    def test_rows_share_bench_serializers(self, tmp_path, circ_data):
        from quadsurf import split
        from quadsurf.bench import rows_to_csv, rows_to_json
        train, test = split(circ_data, 0.8, seed=0)
        rows = compare(train, test, trials=1, seed=0)
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
        rows = compare(apply_normalizer(train, shift, scale), apply_normalizer(test, shift, scale),
                       trials=1, seed=9000, solver_config=config)
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
        clean = {r["method"]: r for r in compare(train, test, trials=1, seed=0)}
        real_solve = qs_newton.solve
        calls = []

        def singular_every_other_call(data, config):
            report = real_solve(data, config)
            calls.append(1)
            if len(calls) % 2 == 0:
                return report
            return dataclasses.replace(report, status=SolveStatus.SINGULAR_SYSTEM)

        monkeypatch.setattr(qs_newton, "solve", singular_every_other_call)
        by = {r["method"]: r for r in compare(train, test, trials=3, seed=0)}
        assert by["newton_l01"]["failures"] == 2
        assert by["newton_l01"]["trials"] == 3
        for key in ("acc_min", "acc_max", "acc_mean", "acc_var"):
            assert by["newton_l01"][key] == clean["newton_l01"][key]
        assert by["ls_qssvm"]["failures"] == 0
        assert by["ls_qssvm"]["acc_mean"] == clean["ls_qssvm"]["acc_mean"]

        monkeypatch.setattr(qs_newton, "solve",
                            lambda data, config: dataclasses.replace(
                                real_solve(data, config), status=SolveStatus.SINGULAR_SYSTEM))
        only = compare(train, test, methods=("newton_l01",), trials=2, seed=0)[0]
        assert only["failures"] == 2
        assert np.isnan(only["acc_mean"]) and np.isnan(only["mean_time_s"])
