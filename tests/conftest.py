from pathlib import Path

import numpy as np
import pytest

import quadsurf.baseline as qs_baseline
from quadsurf import (Dataset, GenSpec, Normalize, apply_normalizer, build_design,
                      fit_normalizer, generate, load_csv, param_dim, split, tri_dim)
from quadsurf.model import _pairs

IRIS_CSV = Path(__file__).resolve().parent.parent / "data" / "iris.csv"


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def small_data(rng):
    pts = rng.normal(size=(5, 3))
    labels = np.where(rng.random(5) < 0.5, 1.0, -1.0)
    return Dataset(points=pts, labels=labels)


@pytest.fixture
def small_cache(small_data):
    return build_design(small_data)


@pytest.fixture
def continuation_only(monkeypatch):
    """Warm starts skip the hard-margin start, as when scipy's compiled NNLS cannot
    be loaded, so iris fits run the squared-hinge continuation."""
    monkeypatch.setattr(qs_baseline, "_nnls", lambda: None)


@pytest.fixture
def no_polish(monkeypatch):
    """The warm start's polish finds no consistent set, so the hard-margin start is
    rejected and z0 holds the continuation's penalty duals."""
    monkeypatch.setattr(qs_baseline, "_active_set_polish", lambda *args, **kwargs: None)


@pytest.fixture
def circ_data():
    return generate(GenSpec(kind="circular", n_per_class=50, seed=0))


def random_dataset(rng, n, m):
    pts = rng.normal(size=(n, m))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(labels == labels[0]) and n >= 2:
        labels[0] = -labels[0]
    return Dataset(points=pts, labels=labels)


def iris_train(seed, trial):
    """z-scored training split of iris classes 1 vs 2, trial `trial` of seed `seed`."""
    data = load_csv(IRIS_CSV, class_pair=(1, 2))
    train, _ = split(data, 0.8, np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    return apply_normalizer(train, *fit_normalizer(train.points, Normalize.ZSCORE))


def degenerate_designs():
    """The 60 degenerate designs of tools/fit_digest.py, in its order: circular draws
    (50 per class, seeds 0-19) made collinear (x, 2x), given a duplicated feature
    (x, y, y) or a constant one (x, y, 1)."""
    for seed in range(20):
        data = generate(GenSpec(kind="circular", n_per_class=50, seed=seed))
        x, y = data.points.T
        for pts in (np.column_stack([x, 2.0 * x]), np.column_stack([x, y, y]),
                    np.column_stack([x, y, np.ones_like(x)])):
            yield Dataset(points=pts, labels=data.labels)


def _with_b_blocks(G, Msum, n):
    """Fill G's (wtri, b) and (b, b) blocks from sum_i M_i and n, then symmetrize."""
    m, p = Msum.shape
    G[:p, p:p + m] = Msum.T
    G[p:p + m, :p] = Msum
    G[p:p + m, p:p + m] = n * np.eye(m)
    return 0.5 * (G + G.T)


def reference_hessian(M):
    """G = sum_i J_i' J_i with J_i = [M_i, I_m, 0], summed by einsum over the maps M_i."""
    n, m, p = M.shape
    G = np.zeros((p + m + 1, p + m + 1))
    G[:p, :p] = np.einsum("irj,irk->jk", M, M)
    return _with_b_blocks(G, M.sum(axis=0), n)


def scatter_hessian(data):
    """G from S = X'X and the column sums of X, without the per-sample maps M_i.

    Entry (j, k) of sum_i M_i'M_i adds S[src_e, src_f] over the pattern
    entries e, f of `_pairs` that share a row and sit in columns j and k,
    accumulated one term at a time by `np.add.at`.
    """
    X = data.points
    n, m = X.shape
    p, d = tri_dim(m), param_dim(m)
    _, _, rows, cols, src = _pairs(m)
    e, f = np.nonzero(rows[:, None] == rows[None, :])
    S = X.T @ X
    G = np.zeros((d, d))
    np.add.at(G, (cols[e], cols[f]), S[src[e], src[f]])
    Msum = np.zeros((m, p))
    Msum[rows, cols] = X.sum(axis=0)[src]
    return _with_b_blocks(G, Msum, n)
