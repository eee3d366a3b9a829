import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_three_seeds_one_of_them_failing():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "setup_outcomes.py"),
                           "--seeds", "132", "134"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = dict(line.split(maxsplit=1) if " " in line else (line, "")
               for line in proc.stdout.splitlines())
    assert set(out) == {"seeds", "failed", "failed_seeds", "digest"}
    assert out["seeds"] == "132-134"
    # seed 133's set-up fit diverges, as a predict-row run on it counts
    assert out["failed"] == "1" and out["failed_seeds"] == "133"
    assert len(out["digest"]) == 64
