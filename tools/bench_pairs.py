"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --workload iris-trials \\
        --pairs 10 --seed 9301

`--parent` and `--change` each name a git revision of this repository,
which is exported with `git archive` into a fresh temporary directory, or
an existing directory that holds a source checkout (its `src/`,
`perfbench/`, `data/` and `BENCHMARK.json`).  Every run is a new process of
`perfbench/run.py` started in that tree.  Pair i runs seed `--seed + i` on
both sides, the parent first when the seed is odd and the change first
when it is even, so neither side always runs on the warmer or the cooler
half of a pair.

For each run it prints the side, seed, `correct`, `attempted` and `failed`.
Then, for each end-to-end metric of the BENCHMARK.json in the parent's tree,
it prints each side's median and quartiles, the number of pairs in which
the change did better, the parent's interquartile range, and the median
shift (change minus parent).  It exits with 1 when a run did not print a
result.  A SIGTERM stops the running benchmark process and removes the
exported trees before the script exits.
"""

import argparse
import io
import json
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export_tree(spec: str, dest: Path) -> Path:
    """Directory to run `spec` in: the directory itself, or revision `spec` exported
    under `dest`."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", spec],
                         capture_output=True, check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, args, seed: int) -> dict:
    """The result object that one `perfbench/run.py` run prints on its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=3 * args.seconds + 180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(spec: dict, results: dict) -> list:
    """One line per end-to-end metric of `spec` over the paired runs in `results`."""
    out = []
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        vals = {side: np.array([r["metrics"][name]["value"] for r in results[side]])
                for side in SIDES}
        q = {side: np.percentile(vals[side], [25, 50, 75]) for side in SIDES}
        wins = int(np.count_nonzero(sign * (vals["change"] - vals["parent"]) > 0))
        iqr = q["parent"][2] - q["parent"][0]
        shift = q["change"][1] - q["parent"][1]
        out.append(f"{name:<14} {m['unit']:<4} "
                   + "  ".join(f"{side} {q[side][1]:.6g} [{q[side][0]:.6g}, {q[side][2]:.6g}]"
                               for side in SIDES)
                   + f"  change better {wins}/{len(vals['parent'])}"
                   + f"  parent IQR {iqr:.6g}  median shift {shift:+.6g}")
    return out


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills its child, and
    # through TemporaryDirectory, which removes the exported trees
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision or source directory")
    ap.add_argument("--change", required=True, help="git revision or source directory")
    ap.add_argument("--workload", default="iris-trials")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--smoke", action="store_true", help="pass --smoke to every run")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export_tree(getattr(args, side), Path(tmp) / side) for side in SIDES}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        results = {side: [] for side in SIDES}
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                for side in (SIDES if seed % 2 else SIDES[::-1]):
                    r = run_once(trees[side], args, seed)
                    results[side].append(r)
                    print(f"pair {i} seed {seed} {side:<6} correct {r['correct']} "
                          f"attempted {r['attempted']} failed {r['failed']}", flush=True)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    for line in summarise(spec, results):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
