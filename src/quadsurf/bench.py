"""CSV ingestion, stratified splits, repeated-trial method benchmark, grid dumps."""

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from . import newton
from .baseline import accuracy, ls_qssvm_fit
from .model import Dataset, InputError, SurfaceParams
from .newton import SolveStatus, SolverConfig, _integer_setting

METHODS = ("newton_l01", "ls_qssvm")


class Normalize:
    NONE = "none"
    ZSCORE = "zscore"
    MINMAX = "minmax"
    ALL = (NONE, ZSCORE, MINMAX)


@dataclass(frozen=True)
class BenchProtocol:
    train_rate: float = 0.8
    trials: int = 50
    seed: int = 0
    normalize: str = Normalize.NONE

    def __post_init__(self):
        if not 0.0 < self.train_rate < 1.0:
            raise ValueError(f"train_rate must lie in (0, 1), got {self.train_rate}")
        object.__setattr__(self, "trials", _integer_setting("trials", self.trials, 1))
        object.__setattr__(self, "seed", _integer_setting("seed", self.seed, 0))
        if self.normalize not in Normalize.ALL:
            raise ValueError(f"normalize must be one of {Normalize.ALL}")


def _parse_float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def load_csv(path, class_pair=None) -> Dataset:
    """Read a feature CSV with the label in the last column.

    The file is read as UTF-8, a leading byte-order mark dropped.  A
    non-numeric first non-empty row is treated as a header.  Labels are
    remapped to {-1, +1}: with `class_pair` the two named raw labels are kept (sorted
    order maps to (-1, +1)) and all other rows dropped; without it the file
    must contain exactly two distinct raw labels, mapped the same way (so
    {0, 1} becomes 0 -> -1, 1 -> +1).
    """
    rows = []
    first = True
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            rec = [t.strip() for t in rec]
            if not rec or (len(rec) == 1 and rec[0] == ""):
                continue
            if first:
                first = False
                if any(_parse_float(t) is None for t in rec):
                    continue  # header
            vals = [_parse_float(t) for t in rec]
            if any(v is None for v in vals):
                bad = rec[vals.index(None)]
                raise InputError(f"row {lineno}: non-numeric value {bad!r}")
            rows.append((lineno, vals))
    if not rows:
        raise InputError(f"{path}: no data rows")

    width = len(rows[0][1])
    if width < 2:
        raise InputError(f"row {rows[0][0]}: need at least one feature and a label")
    for lineno, vals in rows:
        if len(vals) != width:
            raise InputError(f"row {lineno}: expected {width} columns, got {len(vals)}")

    arr = np.array([vals for _, vals in rows], dtype=np.float64)
    feats, raw = arr[:, :-1], arr[:, -1]

    if class_pair is not None:
        lo, hi = sorted(float(v) for v in class_pair)
        if lo == hi:
            raise InputError(f"class_pair values must differ, got {class_pair}")
        keep = (raw == lo) | (raw == hi)
        if not np.any(raw == lo) or not np.any(raw == hi):
            raise InputError(f"class_pair {class_pair}: class missing from {path}")
        feats, raw = feats[keep], raw[keep]
    else:
        distinct = np.unique(raw)
        if distinct.size < 2:
            raise InputError(f"{path}: fewer than 2 distinct labels")
        if distinct.size > 2:
            raise InputError(
                f"{path}: {distinct.size} distinct labels; pass class_pair to pick two")
        lo, hi = float(distinct[0]), float(distinct[1])

    labels = np.where(raw == lo, -1.0, 1.0)
    return Dataset(points=feats, labels=labels)


def save_csv(path, data: Dataset):
    """Write a Dataset, after a header row x1..xm,label, as `load_csv` reads it back."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{j + 1}" for j in range(data.m)] + ["label"])
        for row, lbl in zip(data.points, data.labels):
            w.writerow([repr(float(v)) for v in row] + [int(lbl)])


def split(data: Dataset, train_rate: float, seed: int):
    """Stratified random split, deterministic in `seed`.

    Per-label train counts round to nearest while keeping at least one
    sample of each label on each side; labels with fewer than 2 samples
    cannot be split.
    """
    if not 0.0 < train_rate < 1.0:
        raise ValueError(f"train_rate must lie in (0, 1), got {train_rate}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for lbl in (-1.0, 1.0):
        idx = np.flatnonzero(data.labels == lbl)
        if idx.size < 2:
            raise InputError(f"label {int(lbl)} has {idx.size} samples, cannot split")
        idx = rng.permutation(idx)
        k = int(np.clip(round(train_rate * idx.size), 1, idx.size - 1))
        train_idx.append(idx[:k])
        test_idx.append(idx[k:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    return (Dataset(data.points[train_idx], data.labels[train_idx]),
            Dataset(data.points[test_idx], data.labels[test_idx]))


def fit_normalizer(points: np.ndarray, mode: str):
    """Per-feature affine map fitted on `points`; returns (shift, scale)."""
    if mode == Normalize.NONE:
        return np.zeros(points.shape[1]), np.ones(points.shape[1])
    if mode == Normalize.ZSCORE:
        shift = points.mean(axis=0)
        scale = points.std(axis=0)
    elif mode == Normalize.MINMAX:
        shift = points.min(axis=0)
        scale = points.max(axis=0) - shift
    else:
        raise ValueError(f"unknown normalize mode {mode!r}")
    scale = np.where(scale > 0, scale, 1.0)
    return shift, scale


def apply_normalizer(data: Dataset, shift, scale) -> Dataset:
    return Dataset((data.points - shift) / scale, data.labels)


def _fit_method(method: str, train: Dataset, solver_config=None):
    if method == "ls_qssvm":
        return ls_qssvm_fit(train), None
    if method == "newton_l01":
        # looked up on the module at call time, so a patched or traced solve is used
        report = newton.solve(train, solver_config or SolverConfig())
        return report.final.theta, report
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def _stats_row(method: str, accs, times, failures: int, trials: int, seed: int) -> dict:
    accs = np.asarray(accs, dtype=np.float64)
    return {
        "method": method,
        "trials": trials,
        "seed": seed,
        "acc_min": float(accs.min()) if accs.size else float("nan"),
        "acc_max": float(accs.max()) if accs.size else float("nan"),
        "acc_mean": float(accs.mean()) if accs.size else float("nan"),
        "acc_var": float(accs.var()) if accs.size else float("nan"),
        "mean_time_s": float(np.mean(times)) if times else float("nan"),
        "failures": failures,
    }


def _fit_and_score(splits, methods, solver_config, trials: int, seed: int) -> list:
    """Fit every method on each (train, test) split; one statistics row per method.

    Fits are timed and scored by test accuracy in percent.  A fit ending in a
    singular system, or raising LinAlgError (a singular least-squares
    system), is left out of the statistics and counted in `failures`.
    """
    accs = [[] for _ in methods]
    times = [[] for _ in methods]
    failures = [0] * len(methods)
    for train, test in splits:
        for i, method in enumerate(methods):
            t0 = time.perf_counter()
            try:
                theta, report = _fit_method(method, train, solver_config)
            except LinAlgError:
                failures[i] += 1
                continue
            dt = time.perf_counter() - t0
            if report is not None and report.status is SolveStatus.SINGULAR_SYSTEM:
                failures[i] += 1
                continue
            accs[i].append(100.0 * accuracy(theta, test))
            times[i].append(dt)
    return [_stats_row(method, accs[i], times[i], failures[i], trials, seed)
            for i, method in enumerate(methods)]


def run_bench(data: Dataset, protocol: BenchProtocol,
              solver_config: SolverConfig = SolverConfig(), methods=METHODS):
    """Repeated-split benchmark: per-method accuracy statistics over trials.

    Each trial re-splits with an RNG stream derived from (seed, trial),
    normalizes with statistics fitted on the training half, fits every
    method, and scores test accuracy as a percentage.  Trials that end in
    a singular system are excluded from the statistics and counted.
    """
    def trial_splits():
        for t in range(protocol.trials):
            trial_seed = np.random.SeedSequence(entropy=protocol.seed, spawn_key=(t,))
            train, test = split(data, protocol.train_rate, trial_seed)
            shift, scale = fit_normalizer(train.points, protocol.normalize)
            yield apply_normalizer(train, shift, scale), apply_normalizer(test, shift, scale)

    rows = _fit_and_score(trial_splits(), methods, solver_config, protocol.trials,
                          protocol.seed)
    for row in rows:
        row["train_rate"] = protocol.train_rate
        row["normalize"] = protocol.normalize
    return rows


_ROW_FIELDS = ("method", "train_rate", "trials", "seed", "normalize",
               "acc_min", "acc_max", "acc_mean", "acc_var", "mean_time_s", "failures")


def rows_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_ROW_FIELDS, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)


def rows_to_json(rows, path=None) -> str:
    def clean(row):
        return {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                for k, v in row.items()}
    text = json.dumps([clean(r) for r in rows], indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def boundary_grid(theta: SurfaceParams, bbox, resolution: int):
    """Decision values on a resolution^2 grid over bbox = (x_lo, x_hi, y_lo, y_hi).

    Returns rows (x, y, h, sign); resolution 1 evaluates the bbox center.
    Only 2-feature surfaces have a plottable plane.
    """
    if theta.m != 2:
        raise InputError(f"boundary grid needs m=2, surface has m={theta.m}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in bbox)

    def axis(lo, hi):
        return np.array([(lo + hi) / 2.0]) if resolution == 1 \
            else np.linspace(lo, hi, resolution)

    xs, ys = axis(x_lo, x_hi), axis(y_lo, y_hi)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    h = theta.decision_values(pts)
    sign = np.where(h >= 0.0, 1.0, -1.0)
    return np.column_stack([pts, h, sign])


def grid_to_csv(grid, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "h", "sign"])
        for x, y, h, s in grid:
            w.writerow([repr(float(x)), repr(float(y)), repr(float(h)), int(s)])
