import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadsurf.cli as qs_cli
import quadsurf.model as qs_model
import quadsurf.newton as qs_newton
from quadsurf import SolverConfig
from quadsurf.cli import _solver_config, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def circ_csv(tmp_path):
    path = str(tmp_path / "circ.csv")
    code = main(["gen", "circular", "--n-per-class", "30", "--seed", "0", "--out", path])
    assert code == 0
    return path


class TestGen:
    def test_writes_loadable_csv(self, circ_csv):
        from quadsurf import load_csv
        data = load_csv(circ_csv)
        assert data.n == 60 and data.m == 2


class TestFit:
    def test_converged_exit_zero(self, circ_csv, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["fit", circ_csv, "--out", out])
        assert code == 0
        rep = json.loads(open(out).read())
        assert rep["status"] == "converged"
        assert rep["regular"] is True
        assert rep["certificate"]["passed"] is True
        assert len(rep["theta"]["wtri"]) == 3
        assert "train_acc=100.00% certified=True regular=True" in capsys.readouterr().out

    def test_record_on_stdout_parses_as_json(self, circ_csv):
        # `--out /dev/stdout` into a pipe: the status line moves to stderr
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")])))
        proc = subprocess.run([sys.executable, "-m", "quadsurf", "fit", circ_csv,
                               "--out", "/dev/stdout"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["status"] == "converged" and rep["regular"] is True
        assert proc.stderr.startswith("status=converged ")

    def test_record_carries_config_and_certificate(self, circ_csv, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["fit", circ_csv, "--lambda", "20", "--alpha", "2e-6", "--out", out]) == 0
        rep = json.loads(open(out).read())
        assert rep["config"] == {"lam": 20.0, "alpha": 2e-6, "rho": 1.0, "eps": 1e-8,
                                 "max_iter": 100}
        # what the former `check` record held as alpha_margin_ok follows from two numbers
        assert rep["certificate"]["alpha_star"] > rep["config"]["alpha"]
        assert rep["working_sizes"][-1] >= 1
        assert rep["residual_trace"][-1] < rep["config"]["eps"]

    def test_design_built_once_per_fit(self, circ_csv, tmp_path, monkeypatch):
        calls = []
        orig = qs_model.build_design

        def spy(data):
            calls.append(1)
            return orig(data)

        for name, mod in list(sys.modules.items()):
            if name.startswith("quadsurf") and mod is not None \
                    and mod.__dict__.get("build_design") is orig:
                monkeypatch.setattr(mod, "build_design", spy)
        out = str(tmp_path / "report.json")
        assert main(["fit", circ_csv, "--out", out]) == 0
        assert len(calls) == 1

    def test_working_set_larger_than_d_is_irregular(self, tmp_path, capsys):
        # more rows than d: `regular` answers for every subset with no solve
        data, out = str(tmp_path / "c.csv"), str(tmp_path / "r.json")
        assert main(["gen", "circular", "--n-per-class", "300", "--noise", "0.3",
                     "--seed", "1", "--out", data]) == 0
        assert main(["fit", data, "--lambda", "100", "--out", out]) == 0
        rep = json.loads(open(out).read())
        assert rep["working_sizes"][-1] == 75
        assert rep["regular"] is False
        # the record is SolveReport.to_dict() alone, with no key added by the CLI
        assert set(rep) == {"status", "regular", "iters", "residual_trace", "gamma_trace",
                            "working_sizes", "certificate", "config", "theta", "phase_s",
                            "wall_time_s"}
        assert "error" not in capsys.readouterr().err

    def test_converged_but_uncertified_exit_three(self, circ_csv, monkeypatch, capsys):
        real_solve = qs_newton.solve

        def uncertified(*args, **kwargs):
            report = real_solve(*args, **kwargs)
            cert = dataclasses.replace(report.certificate, passed=False)
            return dataclasses.replace(report, certificate=cert)

        monkeypatch.setattr(qs_cli, "solve", uncertified)
        assert main(["fit", circ_csv]) == 3
        assert "status=converged" in capsys.readouterr().out

    def test_check_subcommand_is_gone(self, circ_csv):
        with pytest.raises(SystemExit) as exc:
            main(["check", circ_csv])
        assert exc.value.code == 2

    def test_subset_sweep_flag_is_gone(self, circ_csv, capsys):
        # `regular` in the record already answers for every nonempty subset
        with pytest.raises(SystemExit) as exc:
            main(["fit", circ_csv, "--all-subsets"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file_exit_two(self):
        assert main(["fit", "/nonexistent/nope.csv"]) == 2

    def test_directory_path_exit_two(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path)]) == 2
        assert main(["gen", "linear", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("error: ") == 2

    def test_unwritable_out_fails_before_the_solve(self, circ_csv, tmp_path, monkeypatch,
                                                   capsys):
        calls = []
        real_solve = qs_newton.solve

        def spy(*args, **kwargs):
            calls.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(qs_cli, "solve", spy)
        monkeypatch.setattr(qs_newton, "solve", spy)
        for out in (str(tmp_path), str(tmp_path / "missing" / "out.json")):
            for command in ("fit", "bench"):
                assert main([command, circ_csv, "--out", out]) == 2
        assert calls == []
        assert capsys.readouterr().err.count("error: cannot write") == 4

    def test_solver_flags_reach_their_config_fields(self):
        args = build_parser().parse_args(["fit", "x.csv", "--lambda", "3", "--alpha", "2e-6",
                                          "--rho", "2", "--eps", "1e-9", "--max-iter", "7"])
        assert _solver_config(args) == SolverConfig(lam=3, alpha=2e-6, rho=2, eps=1e-9,
                                                    max_iter=7)

    @pytest.mark.parametrize("name, value", [("tau", "0.5"), ("gamma0", "0.1")])
    def test_fixed_schedule_flags_are_rejected(self, circ_csv, name, value):
        # the perturbation's start and shrink are constants, not flags
        with pytest.raises(SystemExit) as exc:
            main(["fit", circ_csv, f"--{name}", value])
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_failed_warm_start_exit_three(self, tmp_path, capsys):
        from pathlib import Path
        from quadsurf import Dataset, load_csv, save_csv
        iris = load_csv(Path(__file__).resolve().parent.parent / "data" / "iris.csv",
                        class_pair=(1, 2))
        path = str(tmp_path / "scaled.csv")
        save_csv(path, Dataset(iris.points * 1e6, iris.labels))
        assert main(["fit", path, "--lambda", "100"]) == 3
        assert "status=singular_system iters=0" in capsys.readouterr().out

    def test_unconverged_exit_three(self, circ_csv, capsys):
        # an absurd parameter combination cannot converge in one iteration
        code = main(["fit", circ_csv, "--lambda", "1e-4", "--alpha", "1e8", "--max-iter", "1"])
        assert code == 3
        assert "status=max_iter iters=1" in capsys.readouterr().out


class TestBench:
    def test_bench_csv_output(self, circ_csv, tmp_path):
        out = str(tmp_path / "rows.csv")
        code = main(["bench", circ_csv, "--train-rate", "0.8", "--trials", "2",
                     "--seed", "0", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 3

    def test_bench_stdout_table(self, circ_csv, capsys):
        code = main(["bench", circ_csv, "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "newton_l01" in out and "ls_qssvm" in out


class TestGrid:
    def test_grid_from_report(self, circ_csv, tmp_path):
        report = str(tmp_path / "report.json")
        assert main(["fit", circ_csv, "--out", report]) == 0
        out = str(tmp_path / "grid.csv")
        code = main(["grid", report, "--bbox=-2,2,-2,2", "--resolution", "5",
                     "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "x,y,h,sign"
        assert len(lines) == 26

    @pytest.mark.parametrize("doc", [
        {},
        [1, 2],
        {"theta": {"wtri": [0.0, 0.0, 0.0], "b": [0.0, 0.0], "c": None}},
    ], ids=["empty", "list", "null-c"])
    def test_malformed_report_exit_two(self, tmp_path, capsys, doc):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert main(["grid", str(report), "--out", str(tmp_path / "g.csv")]) == 2
        assert str(report) in capsys.readouterr().err

    def test_bad_bbox_exit_two(self, circ_csv, tmp_path):
        report = str(tmp_path / "report.json")
        main(["fit", circ_csv, "--out", report])
        assert main(["grid", report, "--bbox=1,2", "--out",
                     str(tmp_path / "g.csv")]) == 2
