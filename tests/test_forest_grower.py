"""The compiled tree grower beyond the golden cases: sparse input, many
classes, fits on threads and the inputs it refuses.

Trees are compared whole with the per-feature reference grower of
``test_forest_golden``.
"""

import json
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from comulti.classifiers import ForestSpec
from comulti.classifiers.forest import fit_forest
from comulti.errors import DataError

from test_forest_golden import _random_case, _reference_forest


def _labels(n_classes):
    return tuple(f"c{i}" for i in range(n_classes))


def _arrays(model):
    return [[t.feature.tolist(), t.threshold.tolist(), t.left.tolist(),
             t.right.tolist(), t.vote.tolist()] for t in model.trees]


def _with_stored_zero(x):
    """CSR copy of ``x`` that also stores one of its zeros explicitly."""
    coo = sp.coo_matrix(x)
    r, c = np.argwhere(x == 0)[0]
    m = sp.csr_matrix((np.append(coo.data, 0.0),
                       (np.append(coo.row, r), np.append(coo.col, c))),
                      shape=x.shape)
    assert m.nnz == np.count_nonzero(x) + 1
    return m


@pytest.mark.parametrize("seed", range(8))
def test_grower_on_csr_matches_reference(seed):
    # Zeros among negative and positive values, so a node's zero run lies
    # between its negative and positive runs.
    x, y = _random_case(seed)
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(x.shape) < 0.3, 0.0, x)
    x[0, 0] = 0.0
    n_classes = int(y.max()) + 1
    model = fit_forest(ForestSpec(trees=3), _with_stored_zero(x), y,
                       _labels(n_classes), seed)
    assert _arrays(model) == _reference_forest(x, y, n_classes, 3, seed)


def test_grower_matches_reference_with_20_classes():
    # 20 classes: each Gini row sums 16 terms in eight running sums, then
    # adds the last 4 in order.  With 20 rows per class, many cuts tie in
    # exact arithmetic and the order of the sum picks the winner: summing
    # in plain order, or the last 4 into the running sums, fails here.
    rng = np.random.default_rng(2)
    x = rng.poisson(0.5, size=(400, 12)).astype(float)
    y = np.repeat(np.arange(20), 20)
    rng.shuffle(y)
    model = fit_forest(ForestSpec(trees=2), x, y, _labels(20), 2)
    assert _arrays(model) == _reference_forest(x, y, 20, 2, 2)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025])
def test_grower_matches_reference_at_power_of_two_widths(width):
    # Each node's permutation draws from [0, i] for i = width - 1 down to
    # 1, masking every draw with the smallest 2^k - 1 >= i.  Widths on both
    # sides of a power of two start the draws just below and just at one,
    # so a mask off by one bit at any boundary draws another permutation.
    rng = np.random.default_rng(width)
    x = rng.normal(size=(40, width))
    y = rng.integers(0, 3, 40)
    model = fit_forest(ForestSpec(trees=2), x, y, _labels(3), width)
    assert _arrays(model) == _reference_forest(x, y, 3, 2, width)


def _long_columns(n):
    """n rows of columns laid out for the node sort: ascending, descending,
    organ-pipe, 3-valued (-1, 0, 1), negative values among -0.0 and +0.0,
    and one nonzero value in every row (constant, though no row is 0)."""
    rng = np.random.default_rng(n)
    up = np.arange(n, dtype=float)
    half = np.arange(n // 2, dtype=float)
    x = np.column_stack([
        up, up[::-1], np.concatenate([half, half[::-1]]), up % 3 - 1,
        rng.choice([-3.5, -1.0, -0.0, 0.0], size=n), np.full(n, 2.5)])
    y = (up > n / 3).astype(int) + (x[:, 2] > n / 5) + (x[:, 3] == 0)
    flip = rng.random(n) < 0.02  # noise, so the trees grow deep
    y[flip] = rng.integers(0, 4, int(flip.sum()))
    return x, y


@pytest.mark.parametrize("sparse", [False, True])
def test_grower_matches_reference_on_long_sorted_columns(sparse):
    # The root sorts 2 000 values of each candidate.  A sparse input is
    # gathered in row order, so the sort sees the columns' own order,
    # sorted either way or organ-pipe; every cell is stored, -0.0 and +0.0
    # included.  A dense input is gathered in bootstrap order.
    x, y = _long_columns(2000)
    if sparse:
        rows, cols = np.indices(x.shape)
        x_in = sp.csr_matrix((x.ravel(), (rows.ravel(), cols.ravel())),
                             shape=x.shape)
        assert x_in.nnz == x.size
    else:
        x_in = x
    model = fit_forest(ForestSpec(trees=2), x_in, y, _labels(4), 6)
    assert _arrays(model) == _reference_forest(x, y, 4, 2, 6)
    assert model.trees[0].feature.size > 100


def test_fit_on_two_threads_matches_serial():
    rng = np.random.default_rng(4)
    dense = rng.integers(0, 3, size=(300, 12)) * rng.normal(size=12)
    y = rng.integers(0, 4, 300)
    inputs = [dense, sp.csr_matrix(dense)]

    def fitted(x):
        model = fit_forest(ForestSpec(trees=8), x, y, _labels(4), 2)
        return json.dumps(model.to_dict(), sort_keys=True)

    want = [fitted(x) for x in inputs]
    got = [None] * len(inputs)
    start = threading.Barrier(len(inputs))

    def work(i):
        start.wait(timeout=60)
        got[i] = fitted(inputs[i])

    workers = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(len(inputs))]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert got == want


@pytest.mark.parametrize("y", [[0, 1, 2, 1, -1], [0, 1, 2, 1, 3], [0, 1, 2, 1]])
def test_fit_refuses_labels_outside_the_space_or_count(y):
    with pytest.raises(DataError, match=r"needs 5 labels in \[0, 3\)"):
        fit_forest(ForestSpec(trees=2), np.ones((5, 2)), np.array(y),
                   _labels(3), 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("sparse", [False, True])
def test_fit_refuses_non_finite_features(value, sparse):
    x = np.arange(10.0).reshape(5, 2)
    x[3, 1] = value
    with pytest.raises(DataError, match="features must be finite"):
        fit_forest(ForestSpec(trees=2), sp.csr_matrix(x) if sparse else x,
                   np.array([0, 1, 0, 1, 0]), _labels(2), 0)
