"""Shared fixtures: tiny datasets and scripted stub classifiers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from comulti import _native
from comulti.classifiers.base import Classifier
from comulti.dataset import Dataset, FeatureSchema


class LookupStub(Classifier):
    """Classifier whose distribution is scripted per instance.

    The first feature of each row is an index into a fixed table of
    distributions; ``calls`` counts batch invocations so tests can prove a
    layer was never evaluated.
    """

    spec = None

    def __init__(self, space, dists):
        self.space = tuple(space)
        self.dists = np.asarray(dists, dtype=np.float64)
        self.calls = 0

    def predict_proba_batch(self, x):
        self.calls += 1
        idx = np.asarray(x)[:, 0].astype(int)
        return self.dists[idx]


# Inputs a two-layer model's single-row predict rejects: several rows as an
# array, a list of rows or a 2-D list; a scalar; a row nested one level
# too deep.
NOT_ONE_ROW = [np.arange(2, dtype=float)[:, None],
               [np.array([0.0]), np.array([1.0])], [[0.0], [1.0]], 0.0,
               np.zeros((1, 1, 1))]


@pytest.fixture
def lookup_stub():
    return LookupStub


def make_dataset(x, y, labels=None, schema=None) -> Dataset:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if labels is None:
        labels = tuple(f"c{i}" for i in range(int(y.max()) + 1))
    if schema is None:
        schema = FeatureSchema.numeric(x.shape[1])
    return Dataset(schema, x, y, tuple(labels))


@pytest.fixture
def csr_checks(monkeypatch):
    """The argument lists of every compiled CSR check the test makes."""
    calls, check = [], _native.LIB.csr_check

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(_native.LIB, "csr_check", counted)
    return calls


@pytest.fixture
def tiny_dataset():
    return make_dataset


def two_separable_clusters(n_per_side=10, seed=0, gap=8.0) -> Dataset:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_side, 2))
    b = rng.normal(size=(n_per_side, 2)) + gap
    x = np.vstack([a, b])
    y = np.array([0] * n_per_side + [1] * n_per_side)
    return make_dataset(x, y, labels=("left", "right"))


@pytest.fixture
def separable_clusters():
    return two_separable_clusters


def duplicate_csr_dataset() -> Dataset:
    """90 rows over 30 columns, 3 classes; every row stores one column
    twice, as ``load_sparse`` stores a line that names a column twice, and
    the values are not integers, so the order in which the two entries are
    summed shows in the bits."""
    rng = np.random.default_rng(9)
    indptr, indices = [0], []
    for _ in range(90):
        cols = rng.choice(30, size=int(rng.integers(2, 9)), replace=False)
        indices.extend([*cols.tolist(), int(cols[0])])
        indptr.append(len(indices))
    data = rng.uniform(0.1, 3.0, size=len(indices))
    x = sp.csr_matrix((data, np.asarray(indices, dtype=np.int32),
                       np.asarray(indptr, dtype=np.int64)), shape=(90, 30))
    assert x.nnz == len(indices) and not x.has_canonical_format
    y = rng.integers(0, 3, size=90)
    y[:3] = [0, 1, 2]
    return Dataset(FeatureSchema.numeric(30), x, y, ("a", "b", "c"))
