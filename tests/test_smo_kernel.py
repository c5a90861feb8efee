"""The SMO kernel, bit for bit against scipy's sparse product.

``_poly_kernel`` and a fitted model's ``decision_scores`` and
``predict_proba_batch`` are compared byte for byte with a reference built
here: ``(a @ b.T).toarray()`` from scipy, then ``+ 1`` and ``** degree`` in
numpy.  The inputs cover what a CSR matrix may legally hold and what
prediction may be given: indices in any order, a column stored twice in a
row, explicitly stored zeros of either sign, empty rows, no rows or no
columns at all, int32 and int64 index arrays, infinities and NaN in the
predicted rows, one-row inputs and the ``(n, 1)`` columns of the SMO column
cache.
"""

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from comulti.classifiers import SmoSpec, fit
from comulti.classifiers import smo as smo_mod
from comulti.dataset import Dataset, FeatureSchema

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
        for order in ("K", "F"):
            got = smo_mod._poly_kernel(a, b, degree, order)
            _assert_bits(got, _reference_kernel(a, b, degree, order))
            if order == "F":
                assert got.flags.f_contiguous


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_poly_kernel_matches_scipy_product(layout, index_dtype, degree):
    rng = np.random.default_rng([LAYOUTS.index(layout), degree,
                                 np.dtype(index_dtype).itemsize])
    a = _csr(rng, 11, 14, layout, index_dtype)
    b = _csr(rng, 9, 14, layout, index_dtype)
    _check_kernel(a, b, degree)  # a prediction block
    _check_kernel(b, b, degree)  # a full Gram
    for i in range(a.shape[0]):
        _check_kernel(a[i:i + 1], b, degree)  # one predicted row
    for i in range(b.shape[0]):
        _check_kernel(b, b[i:i + 1], degree)  # a cached column, (n, 1)
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


def _check_model(monkeypatch, model, x):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_scores(model, x)
        _assert_bits(model.decision_scores(x), want)
        got = model.predict_proba_batch(x)
        with monkeypatch.context() as m:
            m.setattr(model, "decision_scores",
                      functools.partial(_reference_scores, model))
            want = model.predict_proba_batch(x)
    _assert_bits(got, want)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_trained_smo_predicts_as_scipy_product(monkeypatch, layout, degree):
    model, train = _sparse_model(layout, degree)
    assert sp.issparse(model.sv_x) and model.sv_x.shape[0]
    rng = np.random.default_rng(degree + 7)
    for index_dtype in (np.int32, np.int64):
        x = _csr(rng, 25, 10, layout, index_dtype)
        _check_model(monkeypatch, model, x)
        for i in range(x.shape[0]):
            _check_model(monkeypatch, model, x[i:i + 1])
    _check_model(monkeypatch, model, train)
    _check_model(monkeypatch, model, _csr(rng, 0, 10, layout, np.int32))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_trained_smo_on_non_finite_rows(monkeypatch, layout):
    model, _ = _sparse_model(layout, 2)
    rng = np.random.default_rng(LAYOUTS.index(layout) + 90)

    def wild(k):
        return rng.choice([np.inf, -np.inf, np.nan, 1.5, -2.0, 0.0], size=k)

    x = _csr(rng, 20, 10, layout, np.int64, values=wild)
    assert not np.isfinite(x.data).all()
    _check_model(monkeypatch, model, x)
    for i in range(x.shape[0]):
        _check_model(monkeypatch, model, x[i:i + 1])


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


def test_kernel_of_rows_of_other_widths_is_value_error():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="column rows"):
        smo_mod._poly_kernel(_csr(rng, 3, 5, "sorted", np.int32),
                             _csr(rng, 3, 6, "sorted", np.int32), 2)
