"""Command-line front end: gen / fit / bench / grid.

`fit` trains, certifies and writes the library's own record of the fit,
`SolveReport.to_dict()`, whose `regular` also answers whether every
nonempty subset of the final working set is regular: one saddle
factorization answers both, the polish's when the fit ends on its set.  Exit codes: 0 on
success (a converged fit whose certificate passes, a completed run), 2 on
input errors, 3 on solver failures (a fit that did not converge or is not
certified).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import bench as bench_mod
from .baseline import accuracy
from .datagen import GenSpec, generate
from .model import InputError, SurfaceParams
from .newton import SolveStatus, SolverConfig, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _add_solver_flags(p):
    base = SolverConfig()
    p.add_argument("--lambda", dest="lam", type=float, default=base.lam,
                   help=f"margin-violation penalty (default {base.lam})")
    p.add_argument("--alpha", type=float, default=base.alpha,
                   help=f"prox step for the working-set tests (default {base.alpha})")
    p.add_argument("--rho", type=float, default=base.rho,
                   help=f"residual multiplier in the perturbation update (default {base.rho})")
    p.add_argument("--eps", type=float, default=base.eps,
                   help=f"stop tolerance on the residual norm (default {base.eps})")
    p.add_argument("--max-iter", type=int, default=base.max_iter, help="Newton step budget")


def _add_data_flags(p):
    p.add_argument("--normalize", choices=list(bench_mod.Normalize.ALL), default="none")
    p.add_argument("--class-pair", type=str, default=None,
                   help="two raw label values 'a,b' to keep from a multiclass file")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(lam=args.lam, alpha=args.alpha, rho=args.rho, eps=args.eps,
                        max_iter=args.max_iter)


def _class_pair(args):
    if args.class_pair is None:
        return None
    parts = args.class_pair.split(",")
    if len(parts) != 2:
        raise InputError(f"--class-pair expects 'a,b', got {args.class_pair!r}")
    return float(parts[0]), float(parts[1])


def _load(args):
    data = bench_mod.load_csv(args.data, class_pair=_class_pair(args))
    shift, scale = bench_mod.fit_normalizer(data.points, args.normalize)
    return bench_mod.apply_normalizer(data, shift, scale)


def _check_out(path):
    """Fail before any work when the output path cannot be opened for writing."""
    if path is not None:
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise OSError(f"cannot write {path!r}")


def _is_stdout(path) -> bool:
    """Whether `path` names the file this process's stdout writes to."""
    try:
        out, target = os.fstat(sys.stdout.fileno()), os.stat(path)
    except (OSError, ValueError):  # no such path, or a stdout with no file behind it
        return False
    return (out.st_dev, out.st_ino) == (target.st_dev, target.st_ino)


def cmd_gen(args) -> int:
    data = generate(GenSpec(kind=args.kind, n_per_class=args.n_per_class,
                            seed=args.seed, noise=args.noise))
    bench_mod.save_csv(args.out, data)
    print(f"wrote {data.n} points ({args.kind}) to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    data = _load(args)
    report = solve(data, _solver_config(args))
    acc = 100.0 * accuracy(report.final.theta, data)
    # a record written to stdout itself stays parseable: the status line goes to stderr
    log = sys.stderr if args.out and _is_stdout(args.out) else sys.stdout
    print(f"status={report.status.value} iters={report.final.iter} "
          f"residual={report.final.residual.norm:.3e} train_acc={acc:.2f}% "
          f"certified={report.certificate.passed} regular={report.regular}", file=log)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    ok = report.status is SolveStatus.CONVERGED and report.certificate.passed
    return EXIT_OK if ok else EXIT_SOLVER


def cmd_bench(args) -> int:
    data = bench_mod.load_csv(args.data, class_pair=_class_pair(args))
    protocol = bench_mod.BenchProtocol(train_rate=args.train_rate, trials=args.trials,
                                       seed=args.seed, normalize=args.normalize)
    rows = bench_mod.run_bench(data, protocol, _solver_config(args))
    if args.out and args.out.endswith(".csv"):
        bench_mod.rows_to_csv(rows, args.out)
    elif args.out:
        bench_mod.rows_to_json(rows, args.out)
    else:
        hdr = ("method", "acc_min", "acc_max", "acc_mean", "acc_var",
               "mean_time_s", "failures")
        print("  ".join(f"{h:>12}" for h in hdr))
        for r in rows:
            print("  ".join([f"{r['method']:>12}"]
                            + [f"{r[h]:12.4f}" for h in hdr[1:-1]]
                            + [f"{r['failures']:12d}"]))
    return EXIT_OK


def cmd_grid(args) -> int:
    with open(args.report) as fh:
        rep = json.load(fh)
    try:
        th = rep["theta"]
        theta = SurfaceParams(np.asarray(th["wtri"]), np.asarray(th["b"]), th["c"])
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"{args.report}: no surface in theta.wtri, theta.b, theta.c "
                         f"({type(err).__name__}: {err})") from err
    bbox = [float(v) for v in args.bbox.split(",")]
    if len(bbox) != 4:
        raise InputError(f"--bbox expects 'x_lo,x_hi,y_lo,y_hi', got {args.bbox!r}")
    grid = bench_mod.boundary_grid(theta, bbox, args.resolution)
    bench_mod.grid_to_csv(grid, args.out)
    print(f"wrote {len(grid)} grid rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quadsurf",
                                 description="quadratic surface classifiers under the exact 0-1 loss")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("kind", choices=["linear", "circular", "convex2d"])
    p.add_argument("--n-per-class", type=int, default=50)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="train on a CSV, certify the fit, write its solve report")
    p.add_argument("data")
    _add_solver_flags(p)
    _add_data_flags(p)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bench", help="repeated-split benchmark on a CSV")
    p.add_argument("data")
    p.add_argument("--train-rate", type=float, default=0.8)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p)
    _add_data_flags(p)
    p.add_argument("--out", default=None, help=".csv or .json output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("grid", help="decision-value grid from a fit report")
    p.add_argument("report", help="JSON report produced by fit")
    p.add_argument("--bbox", default="-2,2,-2,2")
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (InputError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
