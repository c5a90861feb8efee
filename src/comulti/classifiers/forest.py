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
and a sparse one from CSC arrays, by type.  A feature with no nonzero value
among a node's rows is skipped before any sort; otherwise C sorts its
nonzero values, the node's zeros being one run, with insertion sort on
short runs and a bottom-up merge sort above them (n log n comparisons at
worst).  The permutation's rejection mask is halved as the draw bound
falls below each power of two, not recomputed per draw, which leaves the
draws unchanged.  :func:`fit_forest` checks the labels and values C trusts,
and a sparse input's arrays (``Csr``) before scipy converts it to CSC.

How a forest predicts.  A forest keeps its trees in one read-only array of
``NODE`` records, tree after tree, with child ids local to their tree as a
model document stores them, and the index of each tree's root record.  The
grower writes the records, ``trees`` slices them and ``to_dict`` writes the
slices.  A row goes left at a node when its value of the node's feature is
``<=`` the threshold, so NaN goes right.  One compiled loop
(``forest_counts`` in ``_native.c``, built by :mod:`.._native`) walks every
(row, tree) pair of a batch, a single row and many alike, and adds each
leaf's vote to the row's float64 count of that label.  A count is a whole
number below 2^53, so it is exact, and dividing the counts in place by the
number of trees gives the bits of int64 counts over the tree count.  The
table's C struct, and the reference to it that each call passes, are
built once per forest.  C makes the same float64 ``<=`` as numpy (IEEE
754, NaN included), so it reaches the same leaves.  C also trusts the
records, so they are checked when a forest is built, from a fit or from a
model file: every inner node's feature lies in ``[0, n_features)``, both
its children lie after it and inside its tree, and every leaf's vote
names a label.  Because every step moves to a higher node id in the same
tree, each walk ends at a leaf after fewer steps than the tree has nodes.
A dense batch is walked as one C-order block.  A sparse batch is read as
a ``Csr``, which a model makes once where it takes the batch in and hands
down, so a forest checks only a scipy matrix handed to it directly (a
malformed CSR, CSC or COO batch is a ``ValueError``).  C walks the CSR
arrays as they are: it adds each row's stored values into a zeroed row of
``n_features`` doubles, as scipy's ``toarray`` adds them, walks that row
and zeroes what it touched.  The row is made per call, never kept on the
forest, because threads share a model; no sparse batch is sliced or
densified.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp

from ..errors import DataError
from .._native import LIB, Csr, ForestTable, address, csr_rows
from .base import Classifier, ForestSpec

# ``struct node`` in _native.c: 32 bytes, child ids local to the tree.
NODE = np.dtype([("feature", np.int32), ("vote", np.int32), ("left", np.int64),
                 ("right", np.int64), ("threshold", np.float64)], align=True)
# A model document's node arrays, in the order it writes them, with the
# dtypes it is read in: an id beyond int32 is refused.
_FIELDS = (("feature", np.int32), ("threshold", np.float64),
           ("left", np.int32), ("right", np.int32), ("vote", np.int32))


class TrainedForest(Classifier):
    """A fitted forest, built from each tree's ``NODE`` records, which it
    copies into one read-only array (see "How a forest predicts" in the
    module docstring)."""

    def __init__(self, spec: ForestSpec, space: tuple[str, ...],
                 trees: list[np.ndarray], n_features: int):
        self.spec = spec
        self.space = space
        self.n_features = n_features
        if type(n_features) is not int or n_features < 0:  # not bool
            raise DataError(f"forest n_features must be an integer >= 0, "
                            f"got {n_features!r}")
        if not trees:
            raise DataError("forest has no trees")
        nodes = np.concatenate(trees, dtype=NODE)
        sizes = np.array([t.size for t in trees], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        # C trusts the records: each feature indexes a row, each child lies
        # after its node in the same tree (so every walk ends), and each
        # vote indexes a row of counts.
        local = np.arange(nodes.size) - np.repeat(roots, sizes)
        end = np.repeat(sizes, sizes)
        feature, left, right, vote = (
            nodes[name] for name in ("feature", "left", "right", "vote"))
        bad = np.where(
            feature >= 0,
            (feature >= n_features) | (left <= local) | (left >= end)
            | (right <= local) | (right >= end),
            (vote < 0) | (vote >= len(space)))
        if bad.any():
            at = int(np.argmax(bad))
            i = int(np.searchsorted(roots, at, side="right")) - 1
            what = ("feature or child out of range" if feature[at] >= 0
                    else f"vote {vote[at]} names no label")
            raise DataError(f"forest tree {i} node {local[at]}: {what}")
        for a in (nodes, roots):
            a.setflags(write=False)
        self._nodes, self._roots = nodes, roots
        self._table = ForestTable(sizes.size, n_features, len(space),
                                  roots.ctypes.data, nodes.ctypes.data)
        # forest_counts' first argument, made once per table.
        self._table_ref = ctypes.byref(self._table)

    @property
    def trees(self) -> list[np.recarray]:
        """Each tree's records, read-only, with the arrays ``feature``, ...,
        ``vote``: ``feature`` < 0 marks a leaf voting ``vote``."""
        return np.split(self._nodes.view(np.recarray), self._roots[1:])

    def __reduce__(self):
        # A copy builds its own table: this one holds raw addresses.
        return TrainedForest, (self.spec, self.space, self.trees,
                               self.n_features)

    def predict_proba_batch(self, x) -> np.ndarray:
        self._check_width(x)
        x = csr_rows(x)
        counts = np.zeros((x.shape[0], self._table.n_labels))
        if isinstance(x, Csr):
            row = np.zeros(self.n_features)
            LIB.forest_counts(self._table_ref, x.shape[0], *x.at,
                              address(row), address(counts))
        else:
            x = np.ascontiguousarray(x, dtype=np.float64)
            LIB.forest_counts(self._table_ref, x.shape[0], None, None,
                              address(x), None, address(counts))
        counts /= self._table.n_trees
        return counts

    def to_dict(self) -> dict:
        return {
            "kind": "random_forest",
            "trees": self.spec.trees,
            "space": list(self.space),
            "n_features": self.n_features,
            "forest": [{name: t[name].tolist() for name, _ in _FIELDS}
                       for t in self.trees],
        }

    @staticmethod
    def from_dict(doc: dict) -> "TrainedForest":
        trees = []
        for i, t in enumerate(doc["forest"]):
            arrays = {name: np.asarray(t[name], dtype=dtype)
                      for name, dtype in _FIELDS}
            shape = arrays["feature"].shape
            if len(shape) != 1 or not shape[0] \
                    or any(a.shape != shape for a in arrays.values()):
                raise DataError(f"forest tree {i}: node arrays must be "
                                "non-empty and of one length")
            trees.append(np.rec.fromarrays(
                [arrays[name] for name in NODE.names], dtype=NODE))
        if type(doc["trees"]) is not int or doc["trees"] != len(trees):
            raise DataError(f"forest document: trees must be {len(trees)}, "
                            "the length of its tree list, got "
                            f"{doc['trees']!r}")
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
    if sp.issparse(x):  # Csr checks what scipy's conversion trusts
        csc = sp.csc_matrix(Csr(x).m, dtype=np.float64, copy=True)
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
    # Room for the largest tree, which each tree's records are copied out of.
    scratch = np.empty(max(1, 2 * n - 1), dtype=NODE)
    trees = []
    for child in np.random.SeedSequence(seed).spawn(spec.trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n).astype(np.intp, copy=False)
        count = LIB.grow_tree(*data, rng.bit_generator.ctypes.bit_generator,
                              n, boot.ctypes.data, scratch.ctypes.data)
        if count < 0:
            raise MemoryError("no memory to grow a tree")
        trees.append(scratch[:count].copy())
    return TrainedForest(spec, space, trees, n_features)
