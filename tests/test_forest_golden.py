"""Golden fingerprints of fitted forests.

Each case fits a small forest and pins the SHA-256 of its canonical model
JSON (``TrainedForest.to_dict()``, sorted keys).  Any change to the grower
that alters a split, a threshold, a vote, the node order or the random
stream changes a fingerprint, so a rewrite of the grower that keeps them
all is bit-identical on these inputs.  The second half keeps the grower as
it was first written, one feature at a time, as a reference, and compares
whole trees with it on random matrices.
"""

import copy
import gc
import hashlib
import json
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from comulti.classifiers import ForestSpec, fit
from comulti.classifiers import forest as forest_mod
from comulti.datagen import gaussian_blobs, rule_grid, sparse_topics
from comulti.dataset import (
    VIEW_KINDS,
    Dataset,
    apply_view,
    class_stats,
    make_view,
)

from conftest import make_dataset


def _fingerprint(model) -> str:
    text = json.dumps(model.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _small_topics():
    # 10 classes (2 shadow classes), 500 columns, 231 rows.
    return sparse_topics(class_sizes=(60, 48, 40, 22, 16, 13, 11, 9, 7, 5),
                         n_features=500, n_common=200, signature_size=20,
                         n_shadow=2, seed=0)


def _mostly_constant():
    """300 columns, of which only a handful vary inside most nodes.

    Six dense ordinal columns carry the signal; 30 columns are non-zero in
    1-4 rows each (constant in most nodes, so the inherited-constant mask
    grows down the tree); the rest are all zero or all one.  With 17
    candidate slots, most nodes run out of non-constant columns before
    filling them.
    """
    rng = np.random.default_rng(11)
    n, width = 120, 300
    x = np.zeros((n, width))
    x[:, 100:150] = 1.0
    x[:, :6] = rng.integers(0, 4, size=(n, 6))
    for col in range(200, 230):
        hit = rng.choice(n, size=int(rng.integers(1, 5)), replace=False)
        x[hit, col] = rng.integers(1, 3, size=hit.size)
    y = (x[:, 0] + x[:, 1] > 3).astype(int) + (x[:, 2] == 0)
    y[rng.choice(n, size=10, replace=False)] = 2  # label noise
    return make_dataset(x, y)


def _topics_view(kind):
    ds = _small_topics()
    return apply_view(ds, make_view(class_stats(ds), kind))


GOLDEN = {
    "rule_grid":
        "4ce43944298590a7951dd7274a6ad61fa1ce101d40d1e4ec07380c87e0adcf40",
    "gaussian_blobs":
        "7a7ca9eac5721b48b27214575b67b84fbf7490cadcc295d10e58b543f6ba9f25",
    "topics_full":
        "cba00d64e292e8c6406e385e9d8eaa8533cdd681431b15b27a78013c254f7b43",
    "topics_binary":
        "8736e6606311e577fe1dbbebcec9cbfe922f15c3fbe1786039724cf067effb0a",
    "topics_maj_cluster":
        "75e43267174b2c641ca2b2778c6c9c269f9d6a81ffe9f68afb976083c7fcf34f",
    "topics_min_cluster":
        "40c06c515856c9dd4c1c3c23fa6bb77c789a92f706ff6ccadf59058e94601a49",
    "mostly_constant":
        "89f601a7fa215bd0ebe75d10f50944cfdc7bd57e79be6e9304de26d2a62dbfe7",
}


def _case(name):
    if name == "rule_grid":
        return rule_grid(), 3, 0
    if name == "gaussian_blobs":
        return gaussian_blobs((120, 40, 25), n_features=5, seed=0), 4, 1
    if name == "mostly_constant":
        return _mostly_constant(), 5, 2
    return _topics_view(name[len("topics_"):]), 3, 3


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_forest_fingerprint(name):
    ds, trees, seed = _case(name)
    assert _fingerprint(fit(ForestSpec(trees=trees), ds, seed=seed)) \
        == GOLDEN[name]


def test_topic_views_cover_every_kind():
    assert {f"topics_{k}" for k in VIEW_KINDS} <= set(GOLDEN)


@pytest.mark.parametrize("name", ["topics_full", "mostly_constant"])
def test_forest_fingerprint_csc_fallback(monkeypatch, name):
    ds, trees, seed = _case(name)
    if not sp.issparse(ds.x):
        ds = Dataset(ds.schema, sp.csr_matrix(ds.x), ds.y, ds.labels)
    assert _fingerprint(fit(ForestSpec(trees=trees), ds, seed=seed)) \
        == GOLDEN[name]


# ---------------------------------------------------------------------------
# Reference grower: the same trees, one feature at a time


def _reference_split(values, y, n_classes):
    """Best (weighted Gini, threshold) of one feature, or None if constant."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    boundaries = np.nonzero(v[:-1] < v[1:])[0]
    if boundaries.size == 0:
        return None
    n = v.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y[order]] = 1.0
    cum = np.cumsum(onehot, axis=0)
    left = cum[boundaries]
    right = cum[-1] - left
    n_left = boundaries + 1.0
    n_right = n - n_left
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))
    cut = boundaries[best]
    thr = 0.5 * (v[cut] + v[cut + 1])
    if not v[cut] <= thr < v[cut + 1]:
        thr = v[cut]
    return float(weighted[best]), float(thr)


def _reference_tree(dense, y, n_classes, rng):
    n_features = dense.shape[1]
    n_candidates = max(1, int(np.floor(np.sqrt(n_features))))
    nodes = []  # [feature, threshold, left, right, vote]

    def new_node():
        nodes.append([-1, 0.0, -1, -1, -1])
        return len(nodes) - 1

    stack = [(new_node(), np.arange(y.size))]
    while stack:
        node, rows = stack.pop()
        counts = np.bincount(y[rows], minlength=n_classes)
        if rows.size < 2 or counts.max() == rows.size:
            nodes[node][4] = int(np.argmax(counts))
            continue
        best, tried = None, 0
        for f in rng.permutation(n_features):
            found = _reference_split(dense[rows, f], y[rows], n_classes)
            if found is None:
                continue
            tried += 1
            if best is None or found[0] < best[0]:
                best = (*found, int(f))
            if tried >= n_candidates:
                break
        if best is None:
            nodes[node][4] = int(np.argmax(counts))
            continue
        _, thr, f = best
        mask = dense[rows, f] <= thr
        left, right = new_node(), new_node()
        nodes[node][:4] = [f, thr, left, right]
        stack.append((right, rows[~mask]))
        stack.append((left, rows[mask]))
    return [list(field) for field in zip(*nodes)]


def _reference_forest(x, y, n_classes, trees, seed):
    dense = x.toarray() if sp.issparse(x) else np.asarray(x, dtype=float)
    out = []
    for child in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, y.size, size=y.size)
        out.append(_reference_tree(dense[boot], y[boot], n_classes, rng))
    return out


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(20, 160)), int(rng.integers(1, 60))
    x = rng.integers(0, int(rng.integers(2, 6)), size=(n, width)) \
        * rng.choice([1.0, 0.5, -3.0], size=width)
    x[:, rng.random(width) < 0.4] = 0.0  # constant columns
    if seed % 2:
        x[:, : width // 2] = rng.normal(size=(n, width // 2))
    y = rng.integers(0, int(rng.integers(2, 9)), n)
    return x, np.unique(y, return_inverse=True)[1]


@pytest.mark.parametrize("seed", range(8))
def test_grower_matches_per_feature_reference(seed):
    x, y = _random_case(seed)
    n_classes = int(y.max()) + 1
    model = forest_mod.fit_forest(ForestSpec(trees=3), x, y,
                                  tuple(f"c{i}" for i in range(n_classes)),
                                  seed)
    got = [[t.feature.tolist(), t.threshold.tolist(), t.left.tolist(),
            t.right.tolist(), t.vote.tolist()] for t in model.trees]
    assert got == _reference_forest(x, y, n_classes, 3, seed)


@pytest.mark.parametrize("n,width,n_classes", [(300, 400, 10), (10, 0, 2)])
def test_grower_matches_reference_on_edge_shapes(n, width, n_classes):
    # 400 columns and 10 classes: large nodes count classes per run of
    # equal values, small ones through one-hot rows.  No columns: every
    # tree is one leaf.
    rng = np.random.default_rng(99)
    x = rng.poisson(0.3, size=(n, width)).astype(float)
    y = rng.integers(0, n_classes, n)
    labels = tuple(f"c{i}" for i in range(n_classes))
    model = forest_mod.fit_forest(ForestSpec(trees=2), x, y, labels, 5)
    got = [[t.feature.tolist(), t.threshold.tolist(), t.left.tolist(),
            t.right.tolist(), t.vote.tolist()] for t in model.trees]
    assert got == _reference_forest(x, y, n_classes, 2, 5)


# ---------------------------------------------------------------------------
# Reference walker: the same votes, one tree at a time, level by level


def _reference_votes(tree, dense):
    """Leaf vote of every row of ``dense`` in one tree, walked level by
    level with numpy (the forest's walk as it was first written)."""
    node = np.zeros(dense.shape[0], dtype=np.int32)
    active = tree.feature[node] >= 0
    while active.any():
        rows = np.nonzero(active)[0]
        cur = node[rows]
        go_left = dense[rows, tree.feature[cur]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = tree.feature[node] >= 0
    return tree.vote[node]


def _check_walk(model, x):
    """``predict_proba_batch`` equals the reference's vote fractions, int64
    counts over the tree count, on ``x`` as one batch and on each of its
    rows alone."""
    dense = x.toarray() if sp.issparse(x) else np.asarray(x, dtype=float)
    want = np.array([_reference_votes(t, dense) for t in model.trees],
                    dtype=np.int32).reshape(len(model.trees), -1)
    k = model.n_labels
    proba = np.array([np.bincount(v, minlength=k) for v in want.T],
                     dtype=np.int64).reshape(-1, k) / len(model.trees)
    assert model.predict_proba_batch(x).tobytes() == proba.tobytes()
    for r in range(x.shape[0]):
        assert model.predict_proba_batch(x[r:r + 1]).tobytes() \
            == proba[r:r + 1].tobytes()


def _edge_values(model, x, rng):
    """``x`` with cells set to split thresholds, +/-inf and NaN."""
    x = np.array(x, dtype=float)
    for t in model.trees:
        inner = np.flatnonzero(t.feature >= 0)
        for node in rng.choice(inner, size=min(inner.size, 12),
                               replace=False):
            x[rng.integers(x.shape[0]), t.feature[node]] = t.threshold[node]
    for value in (np.inf, -np.inf, np.nan):
        hit = rng.random(x.shape) < 0.05
        x[hit] = value
    return x


def _unsorted_csr(x, rng):
    """CSR copy of ``x`` whose column indices are shuffled within rows."""
    m = sp.csr_matrix(x)
    for r in range(m.shape[0]):
        lo, hi = m.indptr[r], m.indptr[r + 1]
        perm = lo + rng.permutation(hi - lo)
        m.indices[lo:hi] = m.indices[perm].copy()
        m.data[lo:hi] = m.data[perm].copy()
    m.has_sorted_indices = False
    return m


@pytest.mark.parametrize("seed", range(6))
def test_walk_matches_level_reference(seed):
    x, y = _random_case(seed)
    n_classes = int(y.max()) + 1
    model = forest_mod.fit_forest(ForestSpec(trees=4), x, y,
                                  tuple(f"c{i}" for i in range(n_classes)),
                                  seed)
    rng = np.random.default_rng(seed)
    probe = np.vstack([x[:20], rng.normal(size=(10, x.shape[1]))])
    _check_walk(model, probe)
    _check_walk(model, _edge_values(model, probe, rng))
    _check_walk(model, sp.csr_matrix(probe))
    _check_walk(model, _unsorted_csr(probe, rng))


def test_walk_matches_level_reference_lone_leaf_tree():
    x, y = _random_case(3)
    model = forest_mod.fit_forest(ForestSpec(trees=2), x, y,
                                  tuple(f"c{i}" for i in range(int(y.max())
                                                                + 1)), 3)
    doc = model.to_dict()
    leaf = {"feature": [-1], "threshold": [0.0], "left": [-1],
            "right": [-1], "vote": [1]}
    doc["forest"].insert(1, leaf)
    doc["trees"] = 3
    lone = forest_mod.TrainedForest.from_dict(doc)
    rng = np.random.default_rng(0)
    _check_walk(lone, _edge_values(lone, x[:25], rng))
    _check_walk(lone, _unsorted_csr(x[:25], rng))
    # No features at all: every tree is one leaf.
    empty = forest_mod.fit_forest(ForestSpec(trees=3), np.zeros((10, 0)),
                                  np.arange(10) % 2, ("a", "b"), 0)
    _check_walk(empty, np.zeros((4, 0)))


def test_walk_matches_level_reference_on_csr_edge_values():
    # Thresholds, +/-inf and NaN, dense and as unsorted CSR rows.
    x, y = _random_case(5)
    model = forest_mod.fit_forest(ForestSpec(trees=4), x, y,
                                  tuple(f"c{i}" for i in range(int(y.max())
                                                                + 1)), 5)
    rng = np.random.default_rng(1)
    probe = _edge_values(model, x[:15], rng)
    for x_in in (probe, _unsorted_csr(probe, rng)):
        _check_walk(model, x_in)


@pytest.mark.parametrize("fmt", ["coo", "csc"])
def test_other_sparse_formats_walk_as_csr(fmt):
    # A batch of another sparse format is converted to CSR, and walked as
    # that CSR batch is.
    x, y = _random_case(5)
    model = forest_mod.fit_forest(ForestSpec(trees=4), x, y,
                                  tuple(f"c{i}" for i in range(int(y.max())
                                                                + 1)), 5)
    rng = np.random.default_rng(2)
    csr = _unsorted_csr(_edge_values(model, x[:15], rng), rng)
    _check_walk(model, csr)
    assert model.predict_proba_batch(csr.asformat(fmt)).tobytes() \
        == model.predict_proba_batch(csr).tobytes()


CSR_LAYOUTS = ["unsorted", "duplicates", "zeros", "non_finite", "empty_rows"]


def _walk_csr(model, rng, n_rows, layout):
    """A CSR batch for ``model`` stored as ``layout`` says, each row's
    indices in random order: ``duplicates`` stores a column twice in every
    row, ``zeros`` stores +0.0 and -0.0, ``non_finite`` NaN and +/-inf,
    and ``empty_rows`` leaves every other row empty.  About half the values
    are split thresholds, so rows go both ways at many nodes."""
    width = model.n_features
    cuts = np.concatenate([[0.0]] + [t.threshold[t.feature >= 0]
                                     for t in model.trees])
    indptr, indices = [0], []
    for r in range(n_rows):
        k = 0 if layout == "empty_rows" and r % 2 else \
            int(rng.integers(1, width + 1))
        cols = rng.permutation(width)[:k]
        if layout == "duplicates":
            cols = np.append(cols, cols[0])
        indices.extend(cols.tolist())
        indptr.append(len(indices))
    nnz = len(indices)
    data = np.where(rng.random(nnz) < 0.5, rng.choice(cuts, size=nnz),
                    rng.normal(size=nnz) * 3)
    special = {"zeros": [0.0, -0.0],
               "non_finite": [np.nan, np.inf, -np.inf]}.get(layout)
    if special:
        at = rng.random(nnz) < 0.3
        data[at] = rng.choice(special, size=int(at.sum()))
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, width))


@pytest.mark.parametrize("layout", CSR_LAYOUTS)
@pytest.mark.parametrize("seed", [1, 4])
def test_walk_matches_level_reference_on_csr(layout, seed):
    # A sparse batch and each of its rows are walked as their toarray()
    # values, whatever the stored layout: duplicates summed, -0.0 kept.
    x, y = _random_case(seed)
    model = forest_mod.fit_forest(ForestSpec(trees=5), x, y,
                                  tuple(f"c{i}" for i in range(int(y.max())
                                                                + 1)), seed)
    rng = np.random.default_rng(seed)
    _check_walk(model, _walk_csr(model, rng, 30, layout))


@pytest.mark.parametrize("trees", [1, 3, 7, 10])
def test_walk_gives_int64_counts_over_trees(trees):
    # The walk adds votes into float64 counts and divides them in place.
    x, y = _random_case(1)
    model = forest_mod.fit_forest(ForestSpec(trees=trees), x, y,
                                  tuple(f"c{i}" for i in range(int(y.max())
                                                                + 1)), trees)
    rng = np.random.default_rng(trees)
    probe = _edge_values(model, x[:20], rng)  # thresholds, +/-inf, NaN
    assert np.isnan(probe).any()
    _check_walk(model, probe)
    _check_walk(model, _unsorted_csr(probe, rng))  # one-row CSR inputs too
    _check_walk(model, sp.csr_matrix(probe))
    want = model.predict_proba_batch(probe).tobytes()
    # A copy builds its own table and walk arguments: it predicts alike
    # once the original is gone.
    copies = [copy.deepcopy(model), pickle.loads(pickle.dumps(model))]
    del model
    gc.collect()
    for again in copies:
        assert again.predict_proba_batch(probe).tobytes() == want
        _check_walk(again, probe)


def test_wide_csr_batch_is_walked_without_a_dense_copy():
    # 2 000 rows of 100 000 columns would be 1.6 GB dense; the walk reads
    # the CSR arrays and one zeroed row of n_features doubles.
    rng = np.random.default_rng(6)
    n, width = 2000, 100_000
    x = sp.random(n, width, density=5 / width, format="csr", random_state=rng)
    y = rng.integers(0, 3, n)
    model = forest_mod.fit_forest(ForestSpec(trees=3), x[:300], y[:300],
                                  ("a", "b", "c"), 0)
    tracemalloc.start()
    try:
        proba = model.predict_proba_batch(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert proba[:10].tobytes() \
        == model.predict_proba_batch(x[:10].toarray()).tobytes()
