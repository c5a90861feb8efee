"""Bagged forest of CART-style trees with Gini splits.

Each tree trains on a bootstrap resample and is grown until nodes are pure
or hold fewer than 2 samples.  At every split, candidate features are drawn
at random as a size-``floor(sqrt(n_features))`` subset; constant features do
not consume candidate slots (otherwise purity growth could stall on nodes
whose sampled candidates happen to be constant).  The forest predicts by
majority vote: class probabilities are vote fractions, so every probability
is a multiple of ``1/trees``.

How a tree is grown.  Python spawns a seed per tree and draws its bootstrap
rows; one compiled call per tree (``grow_tree`` in ``_native.c``) grows it,
depth first and left child first.  Each impure node draws a permutation of
all features from the tree's own generator, as ``Generator.permutation``
does, and scores every cut of the first ``floor(sqrt(n_features))`` that
vary over it: the first lowest weighted Gini, summed in numpy's pairwise
order, wins, and rows ``<=`` its threshold go left.  So trees, model JSON
and the random stream left for later draws are those of the numpy reference
in ``tests/test_forest_golden.py``.  C reads a dense input from a dense copy
and a sparse one from CSC arrays, by type, and sorts only a node's nonzero
values, its zeros being one run.  :func:`fit_forest` checks the labels and
values C trusts.

How a forest predicts.  The fitted trees are packed into one node table
per forest: ``feature``, ``threshold``, ``left``/``right`` as absolute node
ids and ``vote``, plus the node id of each tree's root.  A row goes left at
a node when its value of the node's feature is ``<=`` the threshold, so NaN
goes right.  One compiled loop (``forest_counts`` in ``_native.c``, built
by :mod:`._native`) walks every (row, tree) pair of a dense block of rows,
a single row and a batch alike, and adds each leaf's vote to the row's
count of that label, so probabilities are exact vote counts divided by the
number of trees.  C makes the same float64 ``<=`` as numpy (IEEE 754, NaN
included), so it reaches the same leaves.  C also trusts the table, so the
table is checked when a forest is built, from a fit or from a model file:
every inner node's feature lies in ``[0, n_features)``, both its children
lie after it and inside its tree, and every leaf's vote names a label.
Because every step moves to a higher node id in the same tree, each walk
ends at a leaf after fewer steps than the tree has nodes.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp

from ..errors import DataError
from ._native import LIB, ForestTable
from .base import Classifier, ForestSpec

# A batch is predicted in chunks of at most this many dense cells, so a
# sparse input densifies one chunk at a time.
_CHUNK_CELLS = 10_000_000


class _Tree:
    """One tree's flat node arrays, with node ids local to the tree:
    feature < 0 marks a leaf voting ``vote``."""

    __slots__ = ("feature", "threshold", "left", "right", "vote")

    def __init__(self, feature, threshold, left, right, vote):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.vote = np.asarray(vote, dtype=np.int32)


def _dense(x) -> np.ndarray:
    """``x`` as a C-contiguous float64 array."""
    if sp.issparse(x):
        x = x.toarray()
    return np.ascontiguousarray(x, dtype=np.float64)


class TrainedForest(Classifier):
    """A fitted forest.  ``trees`` keeps each tree's own arrays (what
    ``to_dict`` writes); prediction walks one node table packed from them
    (see "How a forest predicts" in the module docstring)."""

    def __init__(self, spec: ForestSpec, space: tuple[str, ...],
                 trees: list[_Tree], n_features: int):
        self.spec = spec
        self.space = space
        self.trees = trees
        self.n_features = n_features
        if not isinstance(n_features, int) or n_features < 0:
            raise DataError(f"forest n_features must be an integer >= 0, "
                            f"got {n_features!r}")
        if not trees:
            raise DataError("forest has no trees")
        for i, t in enumerate(trees):
            shape = t.feature.shape
            if len(shape) != 1 or not shape[0] or any(
                    a.shape != shape
                    for a in (t.threshold, t.left, t.right, t.vote)):
                raise DataError(f"forest tree {i}: node arrays must be "
                                "non-empty and of one length")
        sizes = np.array([t.feature.size for t in trees], dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        feature, left, right, vote = (
            np.concatenate([getattr(t, name) for t in trees]).astype(np.intp)
            for name in ("feature", "left", "right", "vote"))
        offset = np.repeat(starts, sizes)
        left += offset  # child ids become absolute in the table
        right += offset
        # C trusts the table: each feature indexes a row, each child lies
        # after its node in the same tree (so every walk ends), and each
        # vote indexes a row of counts.
        node = np.arange(feature.size)
        end = offset + np.repeat(sizes, sizes)
        bad = np.where(
            feature >= 0,
            (feature >= n_features) | (left <= node) | (left >= end)
            | (right <= node) | (right >= end),
            (vote < 0) | (vote >= len(space)))
        if bad.any():
            at = int(np.argmax(bad))
            i = int(np.searchsorted(starts, at, side="right")) - 1
            what = ("feature or child out of range" if feature[at] >= 0
                    else f"vote {vote[at]} names no label")
            raise DataError(f"forest tree {i} node {at - starts[i]}: {what}")
        self._arrays = (starts, feature, left, right, vote,
                        np.concatenate([t.threshold for t in trees]))
        self._table = ForestTable(len(trees), n_features, len(space),
                                  *(a.ctypes.data for a in self._arrays))

    def __reduce__(self):
        # A copy packs its own table: this one holds raw addresses.
        return TrainedForest, (self.spec, self.space, self.trees,
                               self.n_features)

    def predict_proba_batch(self, x) -> np.ndarray:
        if x.shape[1] != self.n_features:
            raise DataError(f"input has {x.shape[1]} features, model expects "
                            f"{self.n_features}")
        n = x.shape[0]
        counts = np.zeros((n, self.n_labels), dtype=np.int64)
        step = max(1, _CHUNK_CELLS // max(1, self.n_features))
        for lo in range(0, n, step):
            # An input of one chunk is not sliced: slicing a one-row CSR
            # matrix costs more than walking it.
            dense = _dense(x if n <= step else x[lo:lo + step])
            LIB.forest_counts(ctypes.byref(self._table), dense.shape[0],
                              dense.ctypes.data, counts[lo:].ctypes.data)
        return counts / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "kind": "random_forest",
            "trees": self.spec.trees,
            "space": list(self.space),
            "n_features": self.n_features,
            "forest": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "vote": t.vote.tolist(),
                }
                for t in self.trees
            ],
        }

    @staticmethod
    def from_dict(doc: dict) -> "TrainedForest":
        trees = [
            _Tree(t["feature"], t["threshold"], t["left"], t["right"], t["vote"])
            for t in doc["forest"]
        ]
        return TrainedForest(ForestSpec(trees=doc["trees"]),
                             tuple(doc["space"]), trees, doc["n_features"])


def fit_forest(spec: ForestSpec, x, y: np.ndarray, space: tuple[str, ...],
               seed: int) -> TrainedForest:
    """Train ``spec.trees`` trees on bootstrap resamples of (x, y).

    Per-tree randomness comes from seeds spawned off ``seed``, so results do
    not depend on training order or parallel schedule.
    """
    n, n_features = x.shape
    y = np.ascontiguousarray(y, dtype=np.intp)
    if y.shape != (n,) or (n and (y.min() < 0 or y.max() >= len(space))):
        raise DataError(f"forest needs {n} labels in [0, {len(space)})")
    index = [None, None]  # CSC indptr and indices of a sparse input
    if sp.issparse(x):
        csc = sp.csc_matrix(x, dtype=np.float64, copy=True)
        csc.sum_duplicates()
        values = csc.data
        index = [csc.indptr.astype(np.intp), csc.indices.astype(np.intp)]
    else:  # feature-major
        values = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    if not np.isfinite(values).all():
        raise DataError("forest training features must be finite")
    data = (n, n_features, max(1, int(np.sqrt(n_features))), len(space),
            values.ctypes.data, *(a if a is None else a.ctypes.data
                                  for a in index), y.ctypes.data)
    # Room for the largest tree; each tree keeps a copy of its own nodes.
    out = [np.empty(max(1, 2 * n - 1), dtype=t) for t in
           (np.int32, np.float64, np.int32, np.int32, np.int32)]
    trees = []
    for child in np.random.SeedSequence(seed).spawn(spec.trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n).astype(np.intp, copy=False)
        count = LIB.grow_tree(*data, rng.bit_generator.ctypes.bit_generator,
                              n, boot.ctypes.data,
                              *(a.ctypes.data for a in out))
        if count < 0:
            raise MemoryError("no memory to grow a tree")
        trees.append(_Tree(*(a[:count].copy() for a in out)))
    return TrainedForest(spec, space, trees, n_features)
