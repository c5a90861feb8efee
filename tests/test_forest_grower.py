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
