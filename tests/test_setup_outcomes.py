import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import quadsurf.newton as qs_newton
from quadsurf import SolveStatus, SurfaceParams

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "setup_outcomes.py"


def parse(stdout):
    """{key: value} of the tool's lines, with an empty value for an empty list."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value.strip()
    return out


def load_tool(monkeypatch):
    """The tool as a module; the environment and sys.path it sets are restored."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("setup_outcomes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_three_seeds_none_failing():
    proc = subprocess.run([sys.executable, str(TOOL), "--seeds", "132", "134"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = parse(proc.stdout)
    assert set(out) == {"seeds", "failed", "failed_seeds", "constant", "constant_seeds",
                        "digest"}
    assert out["seeds"] == "132-134"
    # seed 133's set-up fit used to diverge, as a predict-row run on it counted
    assert out["failed"] == "0" and out["failed_seeds"] == ""
    assert out["constant"] == "0" and out["constant_seeds"] == ""
    assert len(out["digest"]) == 64


def test_failed_and_constant_set_up_fits_are_reported(monkeypatch):
    # seed 133's fit reports diverged and seed 134's serves h = 0.5: each is
    # listed under its own line, and the failure moves the digest
    tool = load_tool(monkeypatch)
    _, _, digest = tool.setup_outcomes(133, 134)
    real = qs_newton.solve
    calls = []

    def altered_solve(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append(rep)
        if len(calls) == 1:
            return dataclasses.replace(rep, status=SolveStatus.DIVERGED)
        theta = rep.final.theta
        flat = SurfaceParams(wtri=np.zeros_like(theta.wtri), b=np.zeros_like(theta.b), c=0.5)
        return dataclasses.replace(rep, final=dataclasses.replace(rep.final, theta=flat))

    monkeypatch.setattr(qs_newton, "solve", altered_solve)
    failed, constant, altered = tool.setup_outcomes(133, 134)
    assert len(calls) == 2
    assert failed == [133] and constant == [134]
    assert altered != digest
