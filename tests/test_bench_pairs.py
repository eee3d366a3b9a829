import json
import shutil
import subprocess
import sys
from pathlib import Path

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
