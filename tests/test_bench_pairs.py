import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_one_smoke_pair_on_two_copies(tmp_path):
    trees = []
    for side in ("a", "b"):
        tree = tmp_path / side
        for part in ("src", "perfbench", "data"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".perfbench-out"))
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        trees.append(str(tree))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                           "--parent", trees[0], "--change", trees[1], "--pairs", "1",
                           "--seed", "7", "--seconds", "0.1", "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # seed 7 is odd: the parent runs first
    assert [line.split()[4] for line in lines[:2]] == ["parent", "change"]
    assert all("correct True" in line and "failed 0" in line for line in lines[:2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [line.split()[0] for line in lines[2:]] == [m["name"] for m in spec["end_to_end"]]
    assert all("change better" in line and "parent IQR 0 " in line for line in lines[2:])


def test_sigterm_removes_the_exported_trees(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a HEAD revision")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                             "--parent", "HEAD", "--change", "HEAD", "--pairs", "1",
                             "--seed", "7", "--seconds", "60"],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        # the parent's run has started once its output directory exists
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("*/parent/.perfbench-out")):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no benchmark run started"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp_path.iterdir()) == []
