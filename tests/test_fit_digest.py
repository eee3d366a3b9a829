import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# Runs the tool with scipy's compiled NNLS made unloadable, so that every warm start
# runs the squared-hinge continuation.
CONTINUATION_ONLY = ("import runpy, sys; tool = runpy.run_path(sys.argv[1]); "
                     "tool['qs_baseline']._nnls = lambda: None; tool['main'](sys.argv[2:])")


def run_digest(*args, continuation_only=False):
    tool = str(ROOT / "tools" / "fit_digest.py")
    prefix = ["-c", CONTINUATION_ONLY] if continuation_only else []
    proc = subprocess.run([sys.executable, *prefix, tool, *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(maxsplit=1) for line in proc.stdout.splitlines())


def test_same_digest_twice():
    first = run_digest("--seeds", "77", "9000", "--trials", "2")
    second = run_digest("--seeds", "77", "9000", "--trials", "2")
    assert first == second
    assert set(first) == {"digest", "linalg_warnings", "accuracy_pct", "regular_fits",
                          "warm_start_solves", "warm_start_evals", "ldp_starts", "noisy_digest",
                          "noisy_warm_start_solves", "noisy_warm_start_evals",
                          "degenerate_digest", "degenerate_warnings", "degenerate_statuses",
                          "degenerate_reversed_statuses", "endpoint_mismatches",
                          "regular_solves"}
    assert len(first["digest"]) == len(first["noisy_digest"]) == 64
    assert len(first["degenerate_digest"]) == 64
    assert 0.0 <= float(first["accuracy_pct"]) <= 100.0
    assert 0 <= int(first["regular_fits"]) <= 4
    assert int(first["degenerate_warnings"]) >= 0
    # the in-`solve` certificate and `regular` read as a fresh evaluation of the endpoint
    assert first["endpoint_mismatches"] == "0"
    # every iris warm start is the hard-margin one: one NNLS, then one polish solve
    assert first["ldp_starts"] == "4"
    assert float(first["warm_start_solves"]) == 1.0
    assert float(first["warm_start_evals"]) == 0.0
    # without the NNLS every warm start runs the continuation, and every fit is the same
    continuation = run_digest("--seeds", "77", "9000", "--trials", "2", continuation_only=True)
    assert continuation["ldp_starts"] == "0"
    counts = ("warm_start_solves", "warm_start_evals", "ldp_starts")
    assert {k: v for k, v in continuation.items() if k not in counts} == \
        {k: v for k, v in first.items() if k not in counts}
    # at least one hinge pass per stage, and more than one in the first, whose
    # first step from theta = 0 is the least-squares point
    assert float(continuation["warm_start_solves"]) >= 3.0
    # the start value of each stage and at least one trial of its first pass
    assert float(continuation["warm_start_evals"]) >= 4.0
    # the noisy designs are too large for the hard-margin start: the continuation
    # runs on every noisy fit, NNLS or not
    for out in (first, continuation):
        assert float(out["noisy_warm_start_solves"]) >= 2.0
        assert float(out["noisy_warm_start_evals"]) >= 4.0
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
