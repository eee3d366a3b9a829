import json

import numpy as np
import pytest

from quadsurf.cli import main


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
        assert rep["certificate"]["passed"] is True
        assert len(rep["theta"]["wtri"]) == 3
        assert "train_acc=100.00%" in capsys.readouterr().out

    def test_missing_file_exit_two(self):
        assert main(["fit", "/nonexistent/nope.csv"]) == 2

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_failed_warm_start_exit_three(self, tmp_path, capsys):
        from pathlib import Path
        from quadsurf import Dataset, load_csv, save_csv
        iris = load_csv(Path(__file__).resolve().parent.parent / "data" / "iris.csv",
                        class_pair=(1, 2))
        path = str(tmp_path / "scaled.csv")
        save_csv(path, Dataset(iris.points * 1e6, iris.labels))
        assert main(["fit", path, "--lambda", "100"]) == 3
        assert "status=singular_system iters=0" in capsys.readouterr().out

    def test_unconverged_exit_three(self, circ_csv):
        # an absurd parameter combination cannot converge in one iteration
        code = main(["fit", circ_csv, "--warm-start", "zeros", "--lambda", "1e-4",
                     "--alpha", "1e8", "--max-iter", "1"])
        assert code == 3


class TestCheck:
    def test_emits_certificates(self, circ_csv, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["check", circ_csv, "--out", out])
        assert code == 0
        cert = json.loads(open(out).read())
        assert cert["solve"]["status"] == "converged"
        assert cert["certificate"]["passed"] is True
        assert cert["alpha_margin_ok"] is True
        assert cert["rank_check"]["independent"] is True
        assert cert["second_order"]["nonsingular"] is True


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

    def test_bad_bbox_exit_two(self, circ_csv, tmp_path):
        report = str(tmp_path / "report.json")
        main(["fit", circ_csv, "--out", report])
        assert main(["grid", report, "--bbox=1,2", "--out",
                     str(tmp_path / "g.csv")]) == 2
