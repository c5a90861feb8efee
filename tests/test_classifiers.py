import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from comulti.classifiers import (
    CombinerSpec,
    ForestSpec,
    SmoSpec,
    TrainedCombiner,
    combine_rows,
    default_stage_specs,
    fit,
)
from comulti.classifiers.smo import _Kernel, platt_fit, solve_binary
from comulti.errors import DataError, TrainingError

from conftest import LookupStub, make_dataset


# ---------------------------------------------------------------------------
# Argmax and the combiner


def test_predict_batch_argmax_tie_breaks_low():
    stub = LookupStub(("a", "b", "c"), [[0.4, 0.4, 0.2], [0.2, 0.4, 0.4],
                                        [1 / 3, 1 / 3, 1 / 3]])
    assert stub.predict_batch(np.arange(3.0)[:, None]).tolist() == [0, 1, 0]


@pytest.mark.parametrize("a,b,expect", [
    ([0.9, 0.1], [0.6, 0.4], [0.9, 0.1]),
    ([0.5, 0.5], [0.2, 0.8], [0.2, 0.8]),
    ([0.7, 0.3], [0.3, 0.7], [0.7, 0.3]),  # tie on max: first wins
])
def test_combine_max_confidence(a, b, expect):
    got = combine_rows(np.array([a]), np.array([b]))
    assert got.tolist() == [expect]
    comb = TrainedCombiner(CombinerSpec(), LookupStub(("x", "y"), [a]),
                           LookupStub(("x", "y"), [b]))
    assert comb.predict_proba_batch(np.zeros((1, 1))).tolist() == [expect]


def test_combine_space_mismatch():
    with pytest.raises(DataError, match="mismatch"):
        TrainedCombiner(CombinerSpec(), LookupStub(("a", "b"), [[1.0, 0.0]]),
                        LookupStub(("a", "c"), [[1.0, 0.0]]))


def test_combine_idempotent_and_max_property():
    rng = np.random.default_rng(0)
    pa = rng.dirichlet(np.ones(3), size=50)
    pb = rng.dirichlet(np.ones(3), size=50)
    assert np.array_equal(combine_rows(pa, pa), pa)
    got = combine_rows(pa, pb)
    assert np.array_equal(got.max(axis=1),
                          np.maximum(pa.max(axis=1), pb.max(axis=1)))
    # each row is one of the two inputs, never a blend
    assert ((got == pa).all(axis=1) | (got == pb).all(axis=1)).all()


# ---------------------------------------------------------------------------
# Forest


def test_forest_separable_training_accuracy(separable_clusters):
    ds = separable_clusters()
    model = fit(ForestSpec(trees=25), ds, seed=0)
    assert (model.predict_batch(ds.x) == ds.y).mean() == 1.0


def test_smo_separable_training_accuracy(separable_clusters):
    ds = separable_clusters()
    model = fit(SmoSpec(), ds, seed=0)
    assert (model.predict_batch(ds.x) == ds.y).mean() == 1.0


def test_forest_uninformative_features_give_even_probabilities():
    x = np.ones((40, 2))
    y = np.array([0, 1] * 20)
    ds = make_dataset(x, y)
    model = fit(ForestSpec(trees=100), ds, seed=1)
    p = model.predict_proba_batch(np.array([[1.0, 1.0]]))[0]
    # vote-fraction oracle: constant features leave only bootstrap noise
    assert abs(p[0] - 0.5) <= 0.1
    assert abs(p[1] - 0.5) <= 0.1


def _tree_vote(tree, row):
    """The leaf vote of one row in one tree, walked from the root."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.vote[node]


def test_forest_probabilities_are_vote_fractions():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.normal(size=(60, 3)), rng.integers(0, 3, 60))
    model = fit(ForestSpec(trees=17), ds, seed=5)
    grid = rng.normal(size=(20, 3))
    proba = model.predict_proba_batch(grid)
    for i in range(20):
        votes = [_tree_vote(t, grid[i]) for t in model.trees]
        counts = np.bincount(votes, minlength=3)
        assert np.allclose(proba[i], counts / 17)
    # multiples of 1/trees and normalized
    assert np.allclose(np.round(proba * 17) / 17, proba)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    for width in (2, 4):  # too few features used to index out of bounds
        with pytest.raises(DataError, match="model expects 3"):
            model.predict_proba_batch(np.zeros((1, width)))


def test_forest_predicts_on_threads_as_serially():
    # The walk runs without the GIL; 4 threads on one forest, started
    # together and switching often, must give the serial bytes.
    rng = np.random.default_rng(12)
    ds = make_dataset(rng.normal(size=(200, 6)), rng.integers(0, 4, 200))
    model = fit(ForestSpec(trees=15), ds, seed=3)
    inputs = [rng.normal(size=(300, 6)), rng.normal(size=(1, 6)),
              sp.csr_matrix(rng.normal(size=(40, 6))), rng.normal(size=(7, 6))]
    want = [model.predict_proba_batch(x).tobytes() for x in inputs]
    got = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def predict(i):
        start.wait(timeout=60)
        for _ in range(20):
            got[i].append(model.predict_proba_batch(inputs[i]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=predict, args=(i,), daemon=True)
                   for i in range(len(inputs))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [[b] * 20 for b in want]


def test_forest_unanimous_vote_is_certain(separable_clusters):
    ds = separable_clusters(gap=50.0)
    model = fit(ForestSpec(trees=50), ds, seed=2)
    p = model.predict_proba_batch(ds.x[:1])
    assert p.tolist() == [[1.0, 0.0]]


def test_forest_deterministic_per_seed():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng.normal(size=(50, 4)), rng.integers(0, 2, 50))
    a = fit(ForestSpec(trees=12), ds, seed=7)
    b = fit(ForestSpec(trees=12), ds, seed=7)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.vote, tb.vote)
    c = fit(ForestSpec(trees=12), ds, seed=8)
    assert any(not np.array_equal(ta.feature, tc.feature)
               for ta, tc in zip(a.trees, c.trees))


def _sparse_dataset(dense, y):
    from comulti.dataset import Dataset, FeatureSchema

    return Dataset(FeatureSchema.numeric(dense.shape[1]),
                   sp.csr_matrix(dense), np.asarray(y),
                   tuple(f"c{i}" for i in range(int(np.max(y)) + 1)))


def test_forest_sparse_equals_dense():
    rng = np.random.default_rng(4)
    dense = rng.integers(0, 3, size=(60, 5)).astype(float)
    y = rng.integers(0, 2, 60)
    m1 = fit(ForestSpec(trees=10), make_dataset(dense, y), seed=3)
    m2 = fit(ForestSpec(trees=10), _sparse_dataset(dense, y), seed=3)
    assert np.array_equal(m1.predict_proba_batch(dense),
                          m2.predict_proba_batch(sp.csr_matrix(dense)))


def test_fit_preconditions():
    ds = make_dataset(np.zeros((4, 1)), [0, 0, 0, 0], labels=("only",))
    with pytest.raises(TrainingError, match="2 labels"):
        fit(ForestSpec(), ds, seed=0)
    holey = make_dataset(np.zeros((3, 1)), [0, 0, 0], labels=("a", "ghost"))
    with pytest.raises(TrainingError, match="zero training instances"):
        fit(ForestSpec(), holey, seed=0)
    pair = make_dataset(np.zeros((4, 1)), [0, 0, 1, 1])
    with pytest.raises(TrainingError, match="multistage"):
        fit(CombinerSpec(), pair, seed=0)


def test_predict_dimension_mismatch(separable_clusters):
    ds = separable_clusters()
    model = fit(ForestSpec(trees=5), ds, seed=0)
    with pytest.raises(DataError, match="features"):
        model.predict_proba_batch(np.zeros((2, 7)))
    smo = fit(SmoSpec(), ds, seed=0)
    with pytest.raises(DataError, match="features"):
        smo.predict_proba_batch(np.zeros((2, 7)))


# ---------------------------------------------------------------------------
# SMO solver internals


def _dual_feasible(alpha, y, c, tol_gap, kernel):
    # KKT oracle: box constraints plus violating-pair gap below tolerance.
    assert (alpha >= -1e-12).all() and (alpha <= c + 1e-12).all()
    assert abs(np.dot(alpha, y)) < 1e-8
    q = (y[:, None] * y[None, :]) * kernel
    grad = q @ alpha - 1.0
    yg = -y * grad
    eps = 1e-12
    up = ((y > 0) & (alpha < c - eps)) | ((y < 0) & (alpha > eps))
    low = ((y < 0) & (alpha < c - eps)) | ((y > 0) & (alpha > eps))
    if up.any() and low.any():
        assert yg[up].max() - yg[low].min() < tol_gap


def test_smo_kkt_conditions_hold_at_convergence():
    rng = np.random.default_rng(1)
    x = np.vstack([rng.normal(size=(20, 3)), rng.normal(size=(20, 3)) + 1.5])
    y = np.array([1.0] * 20 + [-1.0] * 20)
    kernel = _Kernel(x, degree=1)
    for c in (0.5, 1.0, 10.0):
        alpha, bias, gap, iters = solve_binary(kernel, y, c, 1e-3, 100_000)
        assert gap < 1e-3
        _dual_feasible(alpha, y, c, 1e-3, kernel.full)


def test_smo_polynomial_kernel_solves_circle():
    rng = np.random.default_rng(2)
    angles = rng.uniform(0, 2 * np.pi, 60)
    inner = np.column_stack([np.cos(angles[:30]), np.sin(angles[:30])]) * 0.4
    outer = np.column_stack([np.cos(angles[30:]), np.sin(angles[30:])]) * 2.5
    ds = make_dataset(np.vstack([inner, outer]), [0] * 30 + [1] * 30)
    model = fit(SmoSpec(degree=2, c=10.0), ds, seed=0)
    assert (model.predict_batch(ds.x) == ds.y).mean() >= 0.95


def test_smo_probabilities_normalized_multiclass():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.normal(size=(45, 3)) + rng.integers(0, 3, 45)[:, None],
                      rng.integers(0, 3, 45))
    model = fit(SmoSpec(), ds, seed=0)
    proba = model.predict_proba_batch(rng.normal(size=(25, 3)))
    assert (proba >= 0).all()
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_smo_deterministic():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng.normal(size=(30, 2)), rng.integers(0, 2, 30))
    a = fit(SmoSpec(), ds, seed=0)
    b = fit(SmoSpec(), ds, seed=99)  # seed is irrelevant to the solver
    for ca, cb in zip(a.sv_coef, b.sv_coef):
        assert np.array_equal(ca, cb)
    assert np.array_equal(a.bias, b.bias)


def test_platt_fit_orients_probabilities():
    rng = np.random.default_rng(3)
    scores = np.concatenate([rng.normal(2.0, 0.5, 50),
                             rng.normal(-2.0, 0.5, 50)])
    positive = np.array([True] * 50 + [False] * 50)
    a, b = platt_fit(scores, positive)
    p_hi = 1.0 / (1.0 + np.exp(a * 3.0 + b))
    p_lo = 1.0 / (1.0 + np.exp(a * -3.0 + b))
    assert p_hi > 0.9
    assert p_lo < 0.1


def test_platt_fit_degenerate_sides():
    scores = np.array([1.0, 2.0, 3.0])
    a, b = platt_fit(scores, np.array([True, True, True]))
    assert np.isfinite([a, b]).all()


@pytest.mark.parametrize("full_gram_rows", [6000, 0])
@pytest.mark.parametrize("value,degree", [(1e200, 1), (1e100, 2)])
def test_smo_overflowing_kernel_is_training_error(monkeypatch, full_gram_rows,
                                                  value, degree):
    # The kernel overflowed into inf/NaN and the solver ran to its cap
    # with a NaN gap, leaving NaN biases and probabilities.  Both the full
    # Gram and the column cache stop at the diagonal, without numpy
    # overflow warnings.
    import comulti.classifiers.smo as smo_mod

    monkeypatch.setattr(smo_mod, "_FULL_GRAM_ROWS", full_gram_rows)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 3))
    x[4, 1] = value
    ds = make_dataset(x, rng.integers(0, 2, 30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match="^SMO stage: the degree-"):
            fit(SmoSpec(degree=degree, max_iter=50), ds, seed=0)


@pytest.mark.parametrize("full_gram_rows", [6000, 0])
def test_smo_large_finite_kernel_still_fits(monkeypatch, full_gram_rows):
    # 1e150 squares to 1e300: the kernel is finite, so the fit goes on and
    # still warns at its iteration cap.
    import comulti.classifiers.smo as smo_mod

    monkeypatch.setattr(smo_mod, "_FULL_GRAM_ROWS", full_gram_rows)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 3))
    x[4, 1] = 1e150
    ds = make_dataset(x, rng.integers(0, 2, 30))
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        model = fit(SmoSpec(max_iter=3), ds, seed=0)
    assert np.isfinite(model.bias).all() and np.isfinite(model.kkt_gaps).all()
    assert np.isfinite(model.predict_proba_batch(x)).all()


def test_smo_non_finite_solution_is_training_error(monkeypatch):
    import comulti.classifiers.smo as smo_mod

    monkeypatch.setattr(smo_mod, "platt_fit", lambda scores, pos: (np.nan, 0))
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, 30))
    with pytest.raises(TrainingError, match="^SMO stage: the problem for "
                                            "label 'c0' has a non-finite"):
        fit(SmoSpec(), ds, seed=0)


def test_smo_column_cache_matches_full_gram(monkeypatch):
    import comulti.classifiers.smo as smo_mod

    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, 40))
    full = fit(SmoSpec(), ds, seed=0)
    monkeypatch.setattr(smo_mod, "_FULL_GRAM_ROWS", 8)
    cached = fit(SmoSpec(), ds, seed=0)
    monkeypatch.undo()
    # both paths converge to KKT-feasible solutions; last-ulp kernel
    # differences (gemm vs gemv accumulation) shift probabilities slightly
    x = rng.normal(size=(15, 3))
    assert np.allclose(full.predict_proba_batch(x),
                       cached.predict_proba_batch(x), atol=1e-3)
    assert np.array_equal(full.predict_batch(x), cached.predict_batch(x))
    assert (cached.kkt_gaps < 1e-3).all()


def test_default_stage_specs_takes_the_forest_and_smo_specs():
    assert default_stage_specs() == [ForestSpec(trees=100), SmoSpec(),
                                     CombinerSpec(left=0, right=1)]
    forest, smo = ForestSpec(trees=7), SmoSpec(degree=2, c=0.5)
    assert default_stage_specs(forest, smo) == [
        forest, smo, CombinerSpec(left=0, right=1)]
