from pathlib import Path

import numpy as np
import pytest

from quadsurf import (Dataset, GenSpec, Normalize, apply_normalizer, build_design,
                      fit_normalizer, generate, load_csv, split)

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
