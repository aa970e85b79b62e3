import numpy as np
import pytest

from astra.data import Dataset


def gaussian_imbalance(base: int, seed: int, pos_mean: float = 1.8,
                       pos_std: float = 0.7, m0: int = 10000,
                       m1: int = 10) -> Dataset:
    """Seeded 2-feature Gaussian problem: negatives N(0, I), a positive
    cluster at (pos_mean, pos_mean); IR = m0/m1."""
    rng = np.random.default_rng([base, seed, 77])
    Xn = rng.normal(0.0, 1.0, (m0, 2))
    Xp = rng.normal(pos_mean, pos_std, (m1, 2))
    return Dataset(X=np.vstack([Xn, Xp]), y=np.array([0] * m0 + [1] * m1))


@pytest.fixture
def make_gaussian_imbalance():
    return gaussian_imbalance


def separable_toy() -> tuple[Dataset, Dataset]:
    """40-example linearly separable set with IR 19 plus a positive-only
    validation set, both standardized by the train statistics."""
    from astra.data import standardize

    rng = np.random.default_rng(42)
    Xn = rng.normal(0.0, 1.0, (38, 2))
    Xp = rng.normal(5.0, 0.3, (2, 2))
    ds = Dataset(X=np.vstack([Xn, Xp]), y=np.array([0] * 38 + [1] * 2))
    val = Dataset(X=Xp.copy(), y=np.array([1, 1]))
    train_ds, (val_ds,) = standardize(ds, [val])
    return train_ds, val_ds


@pytest.fixture
def toy_sets():
    return separable_toy()
