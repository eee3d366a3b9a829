import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_digest(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fit_digest.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(maxsplit=1) for line in proc.stdout.splitlines())


def test_same_digest_twice():
    first = run_digest("--seeds", "77", "9000", "--trials", "2")
    second = run_digest("--seeds", "77", "9000", "--trials", "2")
    assert first == second
    assert set(first) == {"digest", "linalg_warnings", "accuracy_pct", "noisy_digest",
                          "degenerate_digest", "degenerate_warnings"}
    assert len(first["digest"]) == len(first["noisy_digest"]) == 64
    assert len(first["degenerate_digest"]) == 64
    assert 0.0 <= float(first["accuracy_pct"]) <= 100.0
    assert int(first["degenerate_warnings"]) >= 0
    # a different trial set must change the iris digest, not the fixed-set ones
    other = run_digest("--seeds", "77", "--trials", "2")
    assert other["digest"] != first["digest"]
    for key in ("noisy_digest", "degenerate_digest", "degenerate_warnings"):
        assert other[key] == first[key]
