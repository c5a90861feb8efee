"""Bagged forest of CART-style trees with Gini splits.

Each tree trains on a bootstrap resample and is grown until nodes are pure
or hold fewer than 2 samples.  At every split, candidate features are drawn
at random as a size-``floor(sqrt(n_features))`` subset; constant features do
not consume candidate slots (otherwise purity growth could stall on nodes
whose sampled candidates happen to be constant).  The forest predicts by
majority vote: class probabilities are vote fractions, so every probability
is a multiple of ``1/trees``.

How a tree is grown.  The training matrix is copied once per forest into a
feature-major ``(n_features, n)`` array, so the values of one feature over a
node's rows are gathered from one contiguous row.  A node is a list of row
indices (the bootstrap sample at the root, duplicates included).  It draws a
permutation of all features, skips the features already known to be
constant in it (a feature constant in a node stays constant in its
children, so the set is inherited down the tree), and gathers the next block
of drawn features over its rows.  One ``argsort`` and one ``sort`` call
order the whole block; a feature whose sorted values never increase is
constant and joins the inherited set.  More blocks are fetched only while
fewer than ``floor(sqrt(n_features))`` varying features have been found, and
the first that many, in draw order, are the candidates.  One split search
then scores all their cuts together: one ``cumsum`` yields the class counts
left of every cut (over one-hot class rows in small blocks, over the class
counts of each run of equal values, from one ``bincount``, in large ones),
the weighted Gini impurity is evaluated at every cut, and one ``argmin``
picks the split.  The node's class counts split with its rows, so children
never recount them.

Why the sort need not be stable.  A cut lies between two different sorted
values; its score depends only on how many rows of each class lie on either
side, and its threshold only on the two values.  Rows with equal values
always fall on the same side, so the order inside a tie changes neither, nor
which rows go to each child.  The grower therefore picks its sort kind for
speed alone (quicksort, or the stable sort on mostly-zero data, where
quicksort is several times slower) and produces the same trees (the same
arrays, hence the same model JSON) as a grower that sorts one feature at a
time with a stable sort: the random draws happen in the same order, the
Gini arithmetic is the same per cut, and ``argmin`` keeps the earliest of
equal scores, which is the first feature in draw order and then its lowest
cut.

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

# Densify sparse training matrices up to this element count; larger ones stay
# sparse and are densified one block of columns at a time.  The sparse copy
# bounds memory at about the same speed: a 3-tree fit on generated sparse
# topics (2000 columns) took 4.5 s at 112 MB peak RSS from the sparse copy
# against 4.4 s at 262 MB from a dense one at 15 000 rows (30 M cells), and
# 11.1 s at 180 MB against 8.9 s at 470 MB at 30 000 rows.
_DENSIFY_ELEMS = 30_000_000
# Class counts left of every cut come from a cumsum over one-hot class rows
# while a node's block has at most this many (rows x columns x classes)
# cells: few numpy calls, so fastest on small nodes and narrow data.  Larger
# blocks count classes per run of equal values instead, whose cost follows
# the number of runs, far below the cell count on tie-heavy data.
_ONEHOT_CELLS = 1 << 15
# A batch is predicted in chunks of at most this many dense cells, so a
# sparse input densifies one chunk at a time.
_CHUNK_CELLS = 10_000_000


class _Columns:
    """The training matrix, feature-major: ``xt[f]`` holds feature ``f``.

    ``xt`` is a C-contiguous ``(n_features, n)`` array, or a CSR matrix of
    that shape for inputs too large to densify.
    """

    def __init__(self, x):
        if sp.issparse(x) and x.shape[0] * x.shape[1] > _DENSIFY_ELEMS:
            self.xt = sp.csr_matrix(x.T, dtype=np.float64)
        elif sp.issparse(x):
            self.xt = x.T.toarray(order="C").astype(np.float64, copy=False)
        else:
            self.xt = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
        self.n_features = x.shape[1]
        # Any sort kind gives the same trees (see the module docstring).
        # Quicksort is the fastest on most data, but several times slower
        # than the stable sort on mostly-zero data such as word counts.
        nonzero = self.xt.nnz if sp.issparse(self.xt) \
            else np.count_nonzero(self.xt)
        mostly_zero = 2 * nonzero < x.shape[0] * x.shape[1]
        self.sort_kind = "stable" if mostly_zero else "quicksort"

    def block(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """C-contiguous ``(len(cols), len(rows))`` values."""
        xt = self.xt
        if sp.issparse(xt):
            return xt[cols][:, rows].toarray()
        if 4 * rows.size < xt.shape[1]:  # small node: gather just its cells
            return xt.ravel().take((cols * xt.shape[1])[:, None] + rows)
        return xt.take(cols, axis=0).take(rows, axis=1)


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


def _screen(cols: _Columns, rows: np.ndarray, drawn: np.ndarray,
            n_candidates: int):
    """Sort the first ``n_candidates`` columns of ``drawn`` that vary over
    ``rows``.

    Returns the kept columns, the argsort and the sorted values of each over
    ``rows``, where each sorted value is below the next (the cuts), and a
    list of arrays of columns found constant.  Blocks of drawn columns are
    fetched and sorted only while too few varying ones have been found.
    """
    kept, orders, values, steps, constant = [], [], [], [], []
    need, pos = n_candidates, 0
    while need > 0 and pos < drawn.size:
        if pos == 0:
            size = need  # just big enough if every column varies
        else:  # sized by the share of columns that varied so far
            size = need * pos // (n_candidates - need + 1) + 1
        take = drawn[pos:pos + size]
        pos += take.size
        block = cols.block(take, rows)
        order = np.argsort(block, axis=1, kind=cols.sort_kind)
        v = np.sort(block, axis=1)
        step = v[:, :-1] < v[:, 1:]
        varies = step.any(axis=1)
        if take.size > need or not varies.all():
            idx = np.flatnonzero(varies)
            if idx.size < take.size:
                constant.append(take[~varies])
            idx = idx[:need]
            take, order, v, step = take[idx], order[idx], v[idx], step[idx]
        kept.append(take)
        orders.append(order)
        values.append(v)
        steps.append(step)
        need -= take.size
    if len(kept) == 1:
        return kept[0], orders[0], values[0], steps[0], constant
    if not kept:  # no feature to draw
        return drawn, None, None, None, constant
    return (np.concatenate(kept), np.concatenate(orders),
            np.concatenate(values), np.concatenate(steps), constant)


def _left_counts_by_run(step: np.ndarray, col: np.ndarray, ys: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """Class counts left of every cut (where ``step``, in row-major order;
    ``col`` holds each cut's column) of sorted columns with classes ``ys``
    and class totals ``counts``."""
    k, n = ys.shape
    n_classes = counts.size
    new_run = np.ones((k, n), dtype=bool)
    new_run[:, 1:] = step
    run = np.cumsum(new_run) - 1
    per_run = np.bincount(run * n_classes + ys.ravel(),
                          minlength=(run[-1] + 1) * n_classes)
    per_run = per_run.reshape(-1, n_classes)
    # Take the previous columns' totals off each column's first run, so the
    # running total restarts at every column.
    per_run[run[n::n]] -= counts
    cum = np.cumsum(per_run, axis=0)
    # Every column's last run ends at no cut, so cut j ends run j + col[j].
    return cum[np.arange(col.size) + col]


def _best_split(order: np.ndarray, v: np.ndarray, step: np.ndarray,
                y_node: np.ndarray, counts: np.ndarray):
    """Best Gini split over sorted columns ``v`` (argsort ``order``, cuts
    where ``step``).

    Returns (column index into ``v``, cut position, threshold, class counts
    left of the cut): sorted positions ``<= cut`` go left.  The winner is
    the lowest weighted Gini; ties go to the earliest column, then to its
    lowest cut.
    """
    k, n = v.shape
    n_classes = counts.size
    col, cut = np.nonzero(step)
    ys = y_node[order]
    if k * n * n_classes <= _ONEHOT_CELLS:
        onehot = np.eye(n_classes, dtype=np.int8)[ys]
        left_counts = onehot.cumsum(axis=1, dtype=np.int32)[col, cut]
    else:
        left_counts = _left_counts_by_run(step, col, ys, counts)
    left = left_counts.astype(np.float64)
    right = counts - left
    n_left = cut + 1.0
    n_right = n - n_left
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))
    c, i = int(col[best]), int(cut[best])
    thr = 0.5 * (v[c, i] + v[c, i + 1])
    if not v[c, i] <= thr < v[c, i + 1]:  # guard against midpoint rounding up
        thr = v[c, i]
    return c, i, float(thr), left_counts[best]


def _grow_tree(cols: _Columns, boot: np.ndarray, y: np.ndarray,
               n_classes: int, rng: np.random.Generator) -> _Tree:
    n_features = cols.n_features
    n_candidates = max(1, int(np.floor(np.sqrt(n_features))))
    feature, threshold, left, right, vote = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        vote.append(-1)
        return len(feature) - 1

    root = new_node()
    stack = [(root, boot, np.bincount(y[boot], minlength=n_classes),
              np.zeros(n_features, dtype=bool))]
    while stack:
        node_id, rows, counts, known_constant = stack.pop()
        if rows.size < 2 or counts.max() == rows.size:
            vote[node_id] = int(np.argmax(counts))
            continue
        drawn = rng.permutation(n_features)
        kept, order, v, step, constant = _screen(
            cols, rows, drawn[~known_constant[drawn]], n_candidates)
        if constant:
            known_constant = known_constant.copy()
            for found in constant:
                known_constant[found] = True
        if kept.size == 0:  # impure but no feature separates the rows
            vote[node_id] = int(np.argmax(counts))
            continue
        c, i, thr, left_counts = _best_split(order, v, step, y[rows],
                                              counts)
        feature[node_id] = int(kept[c])
        threshold[node_id] = thr
        left_id = new_node()
        right_id = new_node()
        left[node_id] = left_id
        right[node_id] = right_id
        stack.append((right_id, rows[order[c, i + 1:]], counts - left_counts,
                      known_constant))
        stack.append((left_id, rows[order[c, :i + 1]], left_counts,
                      known_constant))
    return _Tree(feature, threshold, left, right, vote)


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
    n = x.shape[0]
    cols = _Columns(x)
    trees = []
    for child in np.random.SeedSequence(seed).spawn(spec.trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(cols, boot, y, len(space), rng))
    return TrainedForest(spec, space, trees, x.shape[1])
