"""Tests of the benchmark itself: smoke runs of every workload, the correctness
gate, and the refusal to run without the library's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "7", "--seconds", "0.1",
                         "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads
    return workloads


def test_gate_trips_on_corrupted_prediction(workloads, monkeypatch):
    import quadsurf.model as qs_model
    prep = workloads.setup_predict_row(3)
    assert prep.setup_failures == []
    assert all(prep.run_op(i).ok for i in range(200))

    predict = qs_model.predict
    monkeypatch.setattr(qs_model, "predict", lambda theta, x: -predict(theta, x))
    results = [prep.run_op(i) for i in range(200)]
    assert all(not r.ok and r.wrong for r in results)


def test_gate_trips_on_corrupted_batch_in_a_fit(workloads, monkeypatch):
    import quadsurf.model as qs_model
    prep = workloads.setup_noisy(3)
    assert prep.run_op(0).wrong is None

    predict_many = qs_model.predict_many

    def one_flipped(theta, pts):
        out = predict_many(theta, pts).copy()
        out[np.argmax(np.abs(workloads.reference_h(theta, pts)))] *= -1.0
        return out

    monkeypatch.setattr(qs_model, "predict_many", one_flipped)
    assert prep.run_op(0).wrong is not None


def test_iris_check_leaves_out_singular_trials_like_run_bench(workloads, monkeypatch):
    import dataclasses
    import quadsurf.newton as qs_newton
    solve = qs_newton.solve

    def singular_for_some_splits(train, config):
        report = solve(train, config)
        if train.points[0, 0] > 0.0:
            return report
        zero = report.final.theta.zeros(train.points.shape[1])
        return dataclasses.replace(report, status=qs_newton.SolveStatus.SINGULAR_SYSTEM,
                                   final=dataclasses.replace(report.final, theta=zero))

    monkeypatch.setattr(qs_newton, "solve", singular_for_some_splits)
    prep = workloads.setup_iris(3)
    first = [prep.run_op(i) for i in range(workloads.IRIS_CHECK_TRIALS)]
    assert 0 < sum(r.status == "singular_system" for r in first) < len(first)
    assert workloads.check_iris_against_run_bench(prep, 3, first) is None

    kept = next(r for r in first if r.status != "singular_system")
    kept.acc_pct += 1.0
    assert workloads.check_iris_against_run_bench(prep, 3, first) is not None

    first[0].status = "raised"
    assert workloads.check_iris_against_run_bench(prep, 3, first) is None


def test_same_seed_same_inputs(workloads):
    assert workloads.setup_noisy(5).input_hash == workloads.setup_noisy(5).input_hash
    assert workloads.setup_noisy(5).input_hash != workloads.setup_noisy(6).input_hash


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark("--workload", "iris-trials", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
