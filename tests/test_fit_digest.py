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
    assert set(first) == {"digest", "linalg_warnings", "accuracy_pct", "regular_fits",
                          "warm_start_solves", "warm_start_evals", "noisy_digest",
                          "degenerate_digest", "degenerate_warnings", "degenerate_statuses",
                          "degenerate_reversed_statuses", "endpoint_mismatches"}
    assert len(first["digest"]) == len(first["noisy_digest"]) == 64
    assert len(first["degenerate_digest"]) == 64
    assert 0.0 <= float(first["accuracy_pct"]) <= 100.0
    assert 0 <= int(first["regular_fits"]) <= 4
    assert int(first["degenerate_warnings"]) >= 0
    # the in-`solve` certificate and `regular` read as a fresh evaluation of the endpoint
    assert first["endpoint_mismatches"] == "0"
    # the LS solve and at least one hinge pass per stage
    assert float(first["warm_start_solves"]) >= 3.0
    # the start value of each stage and at least one trial of its first pass
    assert float(first["warm_start_evals"]) >= 4.0
    for key in ("degenerate_statuses", "degenerate_reversed_statuses"):
        statuses = dict(item.split("=") for item in first[key].split())
        assert list(statuses) == sorted(statuses)
        assert set(statuses) <= {"converged", "max_iter", "singular_system", "diverged"}
        assert sum(int(count) for count in statuses.values()) == 60
    # a different trial set must change the iris digest, not the fixed-set ones
    other = run_digest("--seeds", "77", "--trials", "2")
    assert other["digest"] != first["digest"]
    for key in ("noisy_digest", "degenerate_digest", "degenerate_warnings",
                "degenerate_statuses", "degenerate_reversed_statuses"):
        assert other[key] == first[key]
