"""The SMO kernel and calibration, bit for bit against independent forms.

``_poly_kernel``, a full Gram matrix of ``_Kernel`` and a fitted model's
``decision_scores`` are compared byte for byte with a reference built
here: ``(a @ b.T).toarray()`` from scipy (or ``a @ b.T`` for dense rows),
then ``+ 1`` and ``** degree`` in numpy, and one product per label.
``predict_proba_batch`` is compared with the per-label calibration loop,
copied here: one logistic map per label, then normalization, with a row
whose every label calibrates to 0 made uniform.  The inputs cover what a
CSR matrix may legally hold and what prediction may be given: indices in
any order, a column stored twice in a row, explicitly stored zeros of
either sign, empty rows, no rows or no columns at all, int32 and int64
index arrays, infinities and NaN in the predicted rows, one-row inputs,
one-column ``(n, 1)`` products, and models of 14 and 17
labels.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from comulti.classifiers import ForestSpec, SmoSpec, default_stage_specs, fit
from comulti.classifiers import forest as forest_mod
from comulti.classifiers import smo as smo_mod
from comulti.cmc import fit_cmc
from comulti.cmcm import fit_cmcm
from comulti.datagen import MULTISKEW_SIZES, gaussian_blobs, sparse_topics
from comulti.dataset import Dataset, FeatureSchema, class_stats
from comulti.errors import DataError

from conftest import duplicate_csr_dataset
from test_smo_golden import _assert_same_solution, _fingerprint, _table_rows

LAYOUTS = ["sorted", "unsorted", "duplicates", "zeros"]


def _csr(rng, n_rows, n_cols, layout, index_dtype, values=None):
    """A random CSR matrix stored as ``layout`` says, about a third of its
    rows empty.  ``values(k)`` draws k stored values (normal by default).
    ``duplicates`` stores some columns twice in a row; ``zeros`` stores
    +0.0 and -0.0 among the values; ``sorted`` keeps each row's indices
    ascending, every other layout shuffles them."""
    values = values or (lambda k: rng.normal(size=k) * 3)
    indptr, indices = [0], []
    for _ in range(n_rows):
        k = 0 if rng.random() < 0.3 or not n_cols else \
            int(rng.integers(1, n_cols + 1))
        cols = rng.choice(n_cols, size=k, replace=layout == "duplicates")
        if layout == "duplicates" and k:
            cols = np.append(cols, cols[0])  # at least one repeat
        if layout == "sorted":
            cols = np.sort(cols)
        indices.extend(cols.tolist())
        indptr.append(len(indices))
    data = values(len(indices))
    if layout == "zeros" and data.size:
        at = rng.random(data.size) < 0.4
        data[at] = rng.choice([0.0, -0.0], size=int(at.sum()))
    m = sp.csr_matrix((np.asarray(data, dtype=np.float64),
                       np.asarray(indices, dtype=np.int32),
                       np.asarray(indptr, dtype=np.int32)),
                      shape=(n_rows, n_cols))
    # The constructor may narrow index arrays; set the wanted width after.
    m.indices = m.indices.astype(index_dtype)
    m.indptr = m.indptr.astype(index_dtype)
    if layout == "duplicates" and m.nnz:
        assert not m.has_canonical_format
    return m


def _reference_kernel(a, b, degree, order="K"):
    prod = a @ b.T
    if sp.issparse(prod):
        prod = prod.toarray()
    prod = np.add(np.asarray(prod, dtype=np.float64), 1.0, order=order)
    if degree != 1:
        prod **= degree
    return prod


def _assert_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check_kernel(a, b, degree):
    with np.errstate(over="ignore", invalid="ignore"):
        got = smo_mod._poly_kernel(a, b, degree)
        _assert_bits(got, _reference_kernel(a, b, degree))


def _check_gram(x, degree):
    """A full Gram matrix has the reference's values, row-major."""
    got = smo_mod._Kernel(x, degree).table
    assert got.flags.c_contiguous
    _assert_bits(got, _reference_kernel(x, x, degree, order="C"))


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_poly_kernel_matches_scipy_product(layout, index_dtype, degree):
    rng = np.random.default_rng([LAYOUTS.index(layout), degree,
                                 np.dtype(index_dtype).itemsize])
    a = _csr(rng, 11, 14, layout, index_dtype)
    b = _csr(rng, 9, 14, layout, index_dtype)
    _check_kernel(a, b, degree)  # a prediction block
    _check_kernel(b, b, degree)  # a block of every column
    _check_gram(a, degree)  # a full Gram
    _check_gram(b, degree)
    for i in range(a.shape[0]):
        _check_kernel(a[i:i + 1], b, degree)  # one predicted row
    for i in range(b.shape[0]):
        _check_kernel(b, b[i:i + 1], degree)  # one column, (n, 1)
    _check_kernel(b, b[[3, 0, 3]], degree)  # a block of columns


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape_a,shape_b", [
    ((0, 6), (5, 6)), ((5, 6), (0, 6)), ((0, 6), (0, 6)),
    ((4, 0), (3, 0)), ((1, 0), (1, 0))])
def test_poly_kernel_on_empty_shapes(shape_a, shape_b, index_dtype):
    rng = np.random.default_rng(3)
    a = _csr(rng, *shape_a, "unsorted", index_dtype)
    b = _csr(rng, *shape_b, "unsorted", index_dtype)
    for degree in (1, 2, 3):
        _check_kernel(a, b, degree)
        _check_gram(a, degree)
        _check_gram(b, degree)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dense_gram_matches_numpy_product(degree):
    # BLAS may sum a product of a matrix with its own transpose once per
    # pair and mirror it; the Gram's layout must not rest on that.
    rng = np.random.default_rng(degree + 20)
    x = rng.normal(size=(37, 6)) * 3
    for rows in (x, np.asfortranarray(x), x[:, ::2], x[:1], x[:0]):
        _check_gram(rows, degree)


@pytest.mark.parametrize("sparse", [False, True])
def test_full_gram_is_built_in_one_buffer(sparse):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2000, 8))
    if sparse:
        x = sp.csr_matrix(np.where(rng.random(x.shape) < 0.5, x, 0.0))
    gram_bytes = 2000 * 2000 * 8
    tracemalloc.start()
    try:
        kernel = smo_mod._Kernel(x, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.table.shape == (2000, 2000)
    assert kernel.table.flags.c_contiguous
    assert gram_bytes <= peak < 1.25 * gram_bytes


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 100, 1499, 1500])
def test_table_stays_within_its_byte_budget(monkeypatch, rows):
    # 1 500 training rows: short of the whole Gram the table holds as many
    # rows as the budget takes, never fewer than the pair's 2, so its bytes
    # stay within the budget at any row count, not only below a threshold.
    n = 1500
    budget = 8 * n * rows
    monkeypatch.setattr(smo_mod, "_TABLE_BYTES", budget)
    kernel = smo_mod._Kernel(np.ones((n, 2)), 2)
    assert kernel.table.nbytes <= max(budget, 2 * 8 * n)
    assert kernel.table.shape == (min(n, max(2, rows)), n)
    assert (kernel.slot >= 0).all() == (rows == n)


def _row_tables(monkeypatch, x, degree, y, widths):
    """Each kernel after one solve of ``y``: the full Gram, then a row
    table of each width, and the solutions."""
    out = []
    for width in (None, *widths):
        if width is not None:
            _table_rows(monkeypatch, x.shape[0], width)
        kernel = smo_mod._Kernel(x, degree)
        out.append((kernel, smo_mod.solve_binary(kernel, y, 1.0, 1e-3,
                                                 200_000)))
        monkeypatch.undo()
    return out


def _quarter_topics():
    return sparse_topics(tuple(max(4, n // 4) for n in MULTISKEW_SIZES),
                         seed=0)


def test_row_tables_solve_canonical_rows_as_the_full_gram(monkeypatch):
    # Rows that store each column once and in order: row i and column i of
    # the Gram are the same bits, so every table width gives one solution.
    ds = _quarter_topics()
    assert ds.x.has_canonical_format
    y = np.where(ds.y == 0, 1.0, -1.0)
    (full, want), *rows = _row_tables(monkeypatch, ds.x, 2, y, (16, 2))
    assert len(full.table) == ds.x.shape[0] and want[3] > 100
    for kernel, got in rows:
        assert len(kernel.table) < ds.x.shape[0]
        _assert_same_solution(got, want)


def test_row_tables_fit_canonical_rows_as_the_full_gram(monkeypatch):
    # The Platt scores read the support vectors' rows of any table laid out
    # as the whole Gram's, so the fitted model is the same document.
    ds = _quarter_topics()
    want = _fingerprint(fit(SmoSpec(), ds, seed=0))
    for width in (16, 2):
        _table_rows(monkeypatch, ds.x.shape[0], width)
        assert _fingerprint(fit(SmoSpec(), ds, seed=0)) == want


@pytest.mark.parametrize("layout", ["duplicates", "unsorted"])
def test_table_rows_are_kernel_rows(monkeypatch, layout):
    # Row i of every table is x_i against every row, summed in x_i's
    # stored order, which on these rows and values that are not integers
    # rounds some entries unlike column i.
    x = duplicate_csr_dataset().x if layout == "duplicates" else \
        _csr(np.random.default_rng(12), 70, 12, layout, np.int32)
    y = np.where(np.arange(x.shape[0]) % 3 == 0, 1.0, -1.0)
    want = [smo_mod._poly_kernel(x[i:i + 1], x, 2).ravel()
            for i in range(x.shape[0])]
    assert any(want[i].tobytes() != smo_mod._poly_kernel(
        x, x[i:i + 1], 2).ravel().tobytes() for i in range(x.shape[0]))
    for kernel, _ in _row_tables(monkeypatch, x, 2, y, (16,)):
        held = np.flatnonzero(kernel.slot >= 0)
        assert held.size == min(x.shape[0], kernel.table.shape[0])
        for i in held:
            assert kernel.table[kernel.slot[i]].tobytes() == \
                want[i].tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_poly_kernel_with_non_finite_rows(layout):
    rng = np.random.default_rng(LAYOUTS.index(layout) + 40)

    def wild(k):
        v = rng.normal(size=k) * 3
        v[rng.random(k) < 0.3] = np.inf
        v[rng.random(k) < 0.3] = -np.inf
        v[rng.random(k) < 0.3] = np.nan
        return v

    a = _csr(rng, 12, 8, layout, np.int32, values=wild)
    b = _csr(rng, 10, 8, layout, np.int32)
    assert not np.isfinite(a.data).all()
    for degree in (1, 2, 3):
        _check_kernel(a, b, degree)
        _check_kernel(a, a, degree)  # NaN on both sides of a product
        for i in range(a.shape[0]):
            _check_kernel(a[i:i + 1], b, degree)


def _sparse_model(layout, degree):
    """A model fitted on 60 sparse rows of small counts, stored as
    ``layout`` says, and the rows it was fitted on."""
    rng = np.random.default_rng([degree, LAYOUTS.index(layout)])
    x = _csr(rng, 60, 10, layout, np.int32,
             values=lambda k: rng.integers(1, 4, size=k).astype(float))
    y = rng.integers(0, 3, size=60)
    y[:3] = [0, 1, 2]
    ds = Dataset(FeatureSchema.numeric(10), x, y, ("a", "b", "c"))
    return fit(SmoSpec(degree=degree), ds, seed=0), x


def _reference_scores(model, x):
    gram = _reference_kernel(x, model.sv_x, model.spec.degree)
    scores = np.empty((x.shape[0], model.n_labels))
    for cls in range(model.n_labels):
        scores[:, cls] = gram[:, model.sv_index[cls]] @ model.sv_coef[cls] \
            + model.bias[cls]
    return scores


def _reference_sigmoid(f):
    out = np.empty_like(f)
    pos = f >= 0
    e = np.exp(-f[pos])
    out[pos] = e / (1.0 + e)
    e = np.exp(f[~pos])
    out[~pos] = 1.0 / (1.0 + e)
    return out


def _reference_proba(model, x):
    """Each label calibrated by its own logistic map, one label at a time,
    then normalized; a row that calibrates to 0 everywhere is uniform."""
    scores = _reference_scores(model, x)
    cal = np.empty_like(scores)
    for cls in range(model.n_labels):
        cal[:, cls] = _reference_sigmoid(model.platt_a[cls] * scores[:, cls]
                                         + model.platt_b[cls])
    totals = cal.sum(axis=1, keepdims=True)
    flat = (totals == 0.0).ravel()
    if flat.any():
        cal[flat] = 1.0
        totals = cal.sum(axis=1, keepdims=True)
    return cal / totals


def _check_model(model, x):
    with np.errstate(over="ignore", invalid="ignore"):
        scores = model.decision_scores(x)
        _assert_bits(scores, _reference_scores(model, x))
        got = model.predict_proba_batch(x)
        _assert_bits(got, _reference_proba(model, x))
    assert scores.flags.c_contiguous and got.flags.c_contiguous


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_trained_smo_predicts_as_scipy_product(layout, degree):
    model, train = _sparse_model(layout, degree)
    assert sp.issparse(model.sv_x) and model.sv_x.shape[0]
    rng = np.random.default_rng(degree + 7)
    for index_dtype in (np.int32, np.int64):
        x = _csr(rng, 25, 10, layout, index_dtype)
        _check_model(model, x)
        for i in range(x.shape[0]):
            _check_model(model, x[i:i + 1])
    _check_model(model, train)
    _check_model(model, _csr(rng, 0, 10, layout, np.int32))


def test_transposed_operands_hold_no_scipy_copy(monkeypatch):
    # A model's transposed support vectors and a row table's transposed
    # training rows are read only by sparse_product: each keeps its intp
    # index and values, and no scipy matrix with int32 indices beside them.
    model, train = _sparse_model("sorted", 2)
    monkeypatch.setattr(smo_mod, "_TABLE_BYTES", 0)
    kernel = smo_mod._Kernel(train, 2)
    for bt, b in ((model._sv_t, model.sv_x), (kernel._xt, train)):
        assert bt.m is None and bt.shape == b.shape[::-1]
        assert bt.index.dtype == np.intp and bt.data.dtype == np.float64


@pytest.mark.parametrize("layout", LAYOUTS)
def test_trained_smo_on_non_finite_rows(layout):
    model, _ = _sparse_model(layout, 2)
    rng = np.random.default_rng(LAYOUTS.index(layout) + 90)

    def wild(k):
        return rng.choice([np.inf, -np.inf, np.nan, 1.5, -2.0, 0.0], size=k)

    x = _csr(rng, 20, 10, layout, np.int64, values=wild)
    assert not np.isfinite(x.data).all()
    _check_model(model, x)
    for i in range(x.shape[0]):
        _check_model(model, x[i:i + 1])


def _many_labels(kind, degree):
    """A model of 17 labels fitted on sparse topic counts, or of 14 on
    dense Gaussian clusters, and rows to predict that it was not fitted
    on (with infinities and NaN in a few)."""
    if kind == "topics":
        ds = sparse_topics(tuple(max(4, n // 5) for n in MULTISKEW_SIZES),
                           n_features=400, n_common=150, signature_size=12,
                           seed=degree)
    else:
        ds = gaussian_blobs((60,) + (15,) * 13, n_features=6,
                            separation=3.0, seed=degree)
    rng = np.random.default_rng(degree)
    held = rng.random(ds.n_instances) < 0.2
    model = fit(SmoSpec(degree=degree), ds.take(np.flatnonzero(~held)),
                seed=0)
    x = ds.x[np.flatnonzero(held)]
    wild = x.copy()
    if kind == "topics":
        wild.data[rng.random(wild.data.size) < 0.05] = np.nan
        wild.data[rng.random(wild.data.size) < 0.05] = np.inf
    else:
        wild[rng.random(wild.shape) < 0.05] = np.nan
        wild[rng.random(wild.shape) < 0.05] = -np.inf
    return model, x, wild


def _with_platt_b(model, platt_b):
    return smo_mod.TrainedSmo(model.spec, model.space, model.sv_x,
                              model.sv_index, model.sv_coef, model.bias,
                              model.platt_a, platt_b, model.kkt_gaps)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kind", ["topics", "blobs"])
def test_calibration_matches_per_label_reference(kind, degree):
    model, x, wild = _many_labels(kind, degree)
    assert model.n_labels >= 14 and x.shape[0] >= 20
    for rows in (x, wild):
        _check_model(model, rows)
        for i in range(rows.shape[0]):
            _check_model(model, rows[i:i + 1])


@pytest.mark.parametrize("kind", ["topics", "blobs"])
def test_calibration_of_flat_rows_matches_per_label_reference(kind):
    # Every label of a flat row calibrates to 0 (exp(-f) underflows), so
    # the row is made uniform.  Shifting each Platt offset so that about
    # half the rows are flat gives a batch of both.
    model, x, _ = _many_labels(kind, 2)
    f = model.platt_a * _reference_scores(model, x) + model.platt_b
    shift = 746.0 - np.median(f.min(axis=1))
    shifted = _with_platt_b(model, model.platt_b + shift)
    flat = (_reference_sigmoid(f + shift) == 0.0).all(axis=1)
    assert 0 < flat.sum() < flat.size
    _check_model(shifted, x)
    for i in range(x.shape[0]):
        _check_model(shifted, x[i:i + 1])
    got = shifted.predict_proba_batch(x)
    assert (got[flat] == 1.0 / model.n_labels).all()
    assert (got[~flat] != 1.0 / model.n_labels).any(axis=1).all()


@pytest.mark.parametrize("breaker", ["index_high", "index_negative",
                                     "indptr_down", "indptr_past_end"])
def test_malformed_csr_is_value_error(breaker):
    # C reads where indptr and indices of a predicted row point, so they
    # are checked first.  (The right operand is a model's or a fit's own
    # matrix, and scipy itself transposes it.)
    rng = np.random.default_rng(8)
    a = _csr(rng, 6, 5, "sorted", np.int64)
    b = _csr(rng, 4, 5, "sorted", np.int64)
    while a.indptr[2] - a.indptr[1] < 1 or a.indptr[-1] < 3:
        a = _csr(rng, 6, 5, "sorted", np.int64)
    if breaker == "index_high":
        a.indices[0] = 5
    elif breaker == "index_negative":
        a.indices[0] = -1
    elif breaker == "indptr_down":
        a.indptr[1] = a.indptr[2] + 1
    else:
        a.indptr[1:] = a.nnz + 1
    with pytest.raises(ValueError, match="malformed CSR"):
        smo_mod._poly_kernel(a, b, 2)


def _broken(x, breaker):
    """A copy of the CSR, CSC or COO matrix ``x``, whose first stored entry
    is its first, broken as in ``test_malformed_csr_is_value_error``.  An
    ``index`` breaker moves that entry's minor index (a CSR column, a CSC
    row, a COO column) out of range, a ``row`` breaker its COO row, and an
    ``indptr`` breaker the pointers of a compressed format; with one major
    line, ``indptr_down`` points below the line's start."""
    x = x.copy()
    if x.format == "coo":
        index, size = ((x.row, x.shape[0]) if breaker.startswith("row")
                       else (x.col, x.shape[1]))
        index[0] = size if breaker.endswith("high") else -1
        return x
    if breaker == "index_high":
        x.indices[0] = x.shape[1] if x.format == "csr" else x.shape[0]
    elif breaker == "index_negative":
        x.indices[0] = -1
    elif breaker == "indptr_down":
        x.indptr[1] = x.indptr[2] + 1 if x.indptr.size > 2 else -1
    else:
        x.indptr[1:] = x.nnz + 1
    return x


@pytest.fixture(scope="module")
def dense_fitted():
    """A forest, an SMO model, a cmc and a cmcm model fitted on dense rows
    of 5 features, so SMO multiplies a sparse batch by scipy's product."""
    single = gaussian_blobs((70, 20, 15, 12), seed=3)
    multi = gaussian_blobs((45, 40, 12, 10, 8), seed=4)
    specs = default_stage_specs(ForestSpec(trees=2))
    return {"forest": fit(ForestSpec(trees=2), multi, 0),
            "smo": fit(SmoSpec(degree=2), multi, 0),
            "cmc": fit_cmc(single, class_stats(single), seed=0, specs=specs),
            "cmcm": fit_cmcm(multi, class_stats(multi), seed=0, specs=specs)}


BREAKERS = ["index_high", "index_negative", "indptr_down", "indptr_past_end"]
# Each breaker in each format it applies to.  scipy converts a CSC or COO
# matrix without checking it, so the check comes before the conversion.
FORMAT_BREAKERS = ([("csr", b) for b in BREAKERS]
                   + [("csc", b) for b in BREAKERS]
                   + [("coo", b) for b in ("index_high", "index_negative",
                                           "row_high", "row_negative")])


def _all_stored(fmt, shape):
    """A matrix of ``shape`` in format ``fmt`` with every entry stored."""
    x = np.random.default_rng(8).normal(size=shape)
    return sp.csr_matrix(x).asformat(fmt)


@pytest.mark.parametrize("model,method", [
    ("forest", "predict_proba_batch"), ("smo", "predict_proba_batch"),
    ("cmc", "predict_batch"), ("cmc", "predict"),
    ("cmcm", "predict_batch"), ("cmcm", "predict")])
@pytest.mark.parametrize("fmt,breaker", FORMAT_BREAKERS)
def test_malformed_csr_is_value_error_from_every_reader(dense_fitted, model,
                                                        method, fmt, breaker):
    # Every stored entry of a 6 x 5 batch, or of its first row for predict.
    # A forest walks the CSR arrays, and scipy multiplies them by a dense
    # SMO model's support vectors: both read where indptr and indices
    # point.
    x = _all_stored(fmt, (1 if method == "predict" else 6, 5))
    with pytest.raises(ValueError, match=f"malformed {fmt.upper()}"):
        getattr(dense_fitted[model], method)(_broken(x, breaker))


MESSAGES = {"csr": "malformed CSR matrix: indptr or indices out of range",
            "csc": "malformed CSC matrix: indptr or indices out of range",
            "coo": "malformed COO matrix: row or col out of range"}


@pytest.mark.parametrize("model", ["cmc", "cmcm"])
@pytest.mark.parametrize("fmt,breaker", FORMAT_BREAKERS)
def test_malformed_row_is_refused_before_a_forest_reads_it(
        dense_fitted, model, fmt, breaker, monkeypatch):
    # A model checks a sparse row where it takes it in, not where a stage
    # reads it.
    entered = []
    monkeypatch.setattr(forest_mod.TrainedForest, "predict_proba_batch",
                        lambda self, x: entered.append(x))
    row = _broken(_all_stored(fmt, (1, 5)), breaker)
    with pytest.raises(ValueError) as info:
        dense_fitted[model].predict(row)
    assert str(info.value) == MESSAGES[fmt] and not entered


@pytest.mark.parametrize("model", ["cmc", "cmcm"])
def test_single_row_predict_checks_its_row_once(dense_fitted, model,
                                                csr_checks):
    # The model hands its checked row down: no layer, no forest or SMO
    # stage and no layer the gate or the quorum passes the row on to checks
    # it again.  The SMO stages multiply it by dense support vectors.
    x = sp.csr_matrix(gaussian_blobs((30, 10, 10, 10, 10), seed=5).x)
    per_row = []
    for i in range(x.shape[0]):
        csr_checks.clear()
        dense_fitted[model].predict(x[i])
        per_row.append(len(csr_checks))
    assert per_row == [1] * x.shape[0]


@pytest.mark.parametrize("fmt,breaker", FORMAT_BREAKERS)
def test_malformed_sparse_dataset_is_data_error(fmt, breaker):
    # A Dataset freezes its arrays checked, so the row subsets, SMOTE, the
    # label views and both fits read checked arrays.
    x = _all_stored(fmt, (6, 6))
    with pytest.raises(DataError, match=f"malformed {fmt.upper()}") as info:
        Dataset(FeatureSchema.numeric(6), _broken(x, breaker),
                np.array([0, 1] * 3), ("a", "b"))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("fmt,breaker", FORMAT_BREAKERS)
def test_malformed_sparse_fit_forest_is_value_error(fmt, breaker):
    # The grower reads a CSC copy that scipy makes from the arrays.
    x = _all_stored(fmt, (6, 6))
    with pytest.raises(ValueError, match=f"malformed {fmt.upper()}"):
        forest_mod.fit_forest(ForestSpec(trees=2), _broken(x, breaker),
                              np.array([0, 1] * 3), ("a", "b"), 0)


@pytest.mark.parametrize("breaker", BREAKERS)
def test_malformed_csr_batch_is_value_error(dense_fitted, breaker):
    # The forest walks a CSR batch's arrays in C, adding each entry into a
    # row of n_features doubles at its index, so the whole batch is checked
    # first, however many rows it has.
    x = sp.csr_matrix(np.random.default_rng(8).normal(size=(40, 5)))
    with pytest.raises(ValueError, match="malformed CSR"):
        dense_fitted["forest"].predict_proba_batch(_broken(x, breaker))


def test_kernel_of_rows_of_other_widths_is_value_error():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="column rows"):
        smo_mod._poly_kernel(_csr(rng, 3, 5, "sorted", np.int32),
                             _csr(rng, 3, 6, "sorted", np.int32), 2)
