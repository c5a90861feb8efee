"""Golden fingerprints of fitted SMO models.

Each case fits a one-vs-rest SMO model and pins the SHA-256 of its
canonical JSON (``TrainedSmo.to_dict()``, sorted keys).  A change to the
solver, the Gram matrix or the Platt fit that moves a multiplier, a bias,
a KKT gap or a calibration parameter by one bit changes a fingerprint, so a
rewrite that keeps them all is bit-identical on these inputs.  The second
half keeps the solver and its kernel as they were first written, in numpy,
as a reference, and compares the compiled solver's raw results with them
on random problems and on edge cases: overflowing gradients, argmax ties,
a row table that evicts between the two rows of a pair, and solves on two
threads at once.  The ``test_solver_matches_reference*`` cases and
the crafted-state tests run under both forms of the solver's row passes
(the ``form`` fixture): the scalar loops, and the 4-row AVX2 loops where
the CPU has AVX2.
"""

import ctypes
import hashlib
import json
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from comulti import _native
from comulti.classifiers import SmoSpec, fit
from comulti.classifiers import smo as smo_mod
from comulti.datagen import gaussian_blobs, rule_grid, sparse_topics
from comulti.dataset import (
    VIEW_KINDS,
    Dataset,
    FeatureSchema,
    apply_view,
    class_stats,
    make_view,
)

from conftest import duplicate_csr_dataset

# The forms of smo_solve's two row passes, by the value solve_binary passes
# it: 0 scalar, 1 four rows at a time under AVX2.
NEEDS_AVX2 = pytest.mark.skipif(
    not _native.SMO_AVX2,
    reason="this CPU has no AVX2, so the 4-row passes cannot run")
FORMS = [pytest.param(0, id="scalar"),
         pytest.param(1, id="avx2", marks=NEEDS_AVX2)]


@pytest.fixture(params=FORMS)
def form(request, monkeypatch):
    """Every solve of the test runs its row passes in this form."""
    monkeypatch.setattr(_native, "SMO_AVX2", request.param)
    return request.param


def _table_rows(monkeypatch, n, rows):
    """Kernels of ``n`` training rows get a table of ``rows`` kernel rows
    (at least 2), filled on demand when that is fewer than ``n``."""
    monkeypatch.setattr(smo_mod, "_TABLE_BYTES", 8 * n * rows)


def _fingerprint(model) -> str:
    text = json.dumps(model.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _small_topics():
    # 10 classes (2 shadow classes), 500 columns, 231 rows.
    return sparse_topics(class_sizes=(60, 48, 40, 22, 16, 13, 11, 9, 7, 5),
                         n_features=500, n_common=200, signature_size=20,
                         n_shadow=2, seed=0)


def _topics_view(kind):
    ds = _small_topics()
    return apply_view(ds, make_view(class_stats(ds), kind))


def _unsorted_csr(x: sp.csr_matrix) -> sp.csr_matrix:
    """The same matrix with each row's entries stored in reverse order."""
    data, indices = x.data.copy(), x.indices.copy()
    for r in range(x.shape[0]):
        lo, hi = x.indptr[r], x.indptr[r + 1]
        data[lo:hi] = data[lo:hi][::-1]
        indices[lo:hi] = indices[lo:hi][::-1]
    out = sp.csr_matrix((data, indices, x.indptr.copy()), shape=x.shape)
    out.has_sorted_indices = False
    return out


def _unsorted_sparse_case():
    """120 rows of small word counts, 3 classes, indices not sorted."""
    rng = np.random.default_rng(5)
    x = sp.random(120, 40, density=0.15, format="csr", random_state=rng,
                  data_rvs=lambda k: rng.integers(1, 4, size=k).astype(float))
    y = rng.integers(0, 3, size=120)
    y[:3] = [0, 1, 2]
    x = _unsorted_csr(x)
    assert not x.has_sorted_indices
    return Dataset(FeatureSchema.numeric(40), x, y, ("a", "b", "c"))


def _blobs():
    return gaussian_blobs((120, 40, 25), n_features=5, seed=0)


GOLDEN = {
    "rule_grid":
        "66efa2d2dac53bb63df7e82ca86c5698056d0b559dbd23727c192e197f535835",
    "gaussian_blobs":
        "a88db66659b261b44bd556ece85b66f1aa5d9dabd158ce2d8706ea266073555e",
    "topics_full":
        "a31046fafa8470f189ac16b950b2c7242b6d38b3770a821be99821f77a23ca09",
    "topics_binary":
        "f451ef0352beb2926ea8c0f1b2e55689e5a5123b936156231417b8881d0756c4",
    "topics_maj_cluster":
        "3c2353c994ac004aa8e4bf28df7fd307ea8dbea67aa7adb58e94a2ff41f51ddb",
    "topics_min_cluster":
        "e31023915f5d89925af4f6b1f11864d9f19bf6bd09cd3563585c04a39c3e63cc",
    "unsorted_csr_degree2":
        "e69b8e30ad9f88799d75e573e790a26a0514b6cf1ed19b04218b019f441bf7bc",
    "unsorted_csr_degree3":
        "2720096b7a56b7c615e73bfad3a6f9abc05fdf31132cfe34e64969ca8a773eb5",
    "column_cache_blobs":
        "42b9748ff4320d80150c5ce82db94f5791c7dc6354d63c2f3e28fde80a788f7b",
    "duplicate_csr":
        "24cde68970e5970658fbf1bc0aa701c1d8fd1fee629cfba17db1140cadb0441a",
    "capped_blobs":
        "a041cf5065363f5fd4f1881df620c4d05435fb8b80fce6ffca7a5a7d5d4a4ffa",
}
# Rows that store each column once and in order sum every kernel entry of a
# row table as the whole Gram does, so the on-demand fit is the same model.
GOLDEN["column_cache_topics"] = GOLDEN["topics_full"]


def _case(name):
    """(dataset, spec) of a fingerprinted case."""
    if name == "rule_grid":
        return rule_grid(), SmoSpec()
    if name in ("gaussian_blobs", "column_cache_blobs"):
        return _blobs(), SmoSpec(degree=2, c=0.5)
    if name == "column_cache_topics":
        return _topics_view("full"), SmoSpec()
    if name.startswith("unsorted_csr_degree"):
        return _unsorted_sparse_case(), SmoSpec(degree=int(name[-1]))
    if name == "duplicate_csr":
        return duplicate_csr_dataset(), SmoSpec(degree=2)
    if name == "capped_blobs":
        return _blobs(), SmoSpec(max_iter=25)
    return _topics_view(name[len("topics_"):]), SmoSpec()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_smo_fingerprint(monkeypatch, name):
    ds, spec = _case(name)
    if name.startswith("column_cache"):
        # Every kernel row is computed on demand, and the small table
        # keeps evicting.
        _table_rows(monkeypatch, ds.x.shape[0], 16)
    if name.startswith("capped"):
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            model = fit(spec, ds, seed=0)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = fit(spec, ds, seed=0)
    assert _fingerprint(model) == GOLDEN[name]


def test_topic_views_cover_every_kind():
    assert {f"topics_{k}" for k in VIEW_KINDS} <= set(GOLDEN)


# ---------------------------------------------------------------------------
# Reference solver: the kernel and SMO loop as first written


class _ReferenceKernel:
    def __init__(self, x, degree, full_rows, cache_size):
        self.x = x
        self.degree = degree
        self.cache_size = cache_size
        if x.shape[0] <= full_rows:
            self.full = smo_mod._poly_kernel(x, x, degree)
            self.diag = np.diag(self.full).copy()
        else:
            self.full = None
            if sp.issparse(x):
                sq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
            else:
                sq = (x * x).sum(axis=1)
            self.diag = (sq + 1.0) ** degree
            self._cache = {}

    def col(self, i):
        if self.full is not None:
            return self.full[:, i]
        got = self._cache.get(i)
        if got is None:
            got = smo_mod._poly_kernel(self.x, self.x[i:i + 1],
                                       self.degree).ravel()
            if len(self._cache) >= self.cache_size:
                self._cache.pop(next(iter(self._cache)))
            self._cache[i] = got
        return got


def _reference_solve(kernel, y, c, tol, max_iter):
    n = y.size
    alpha = np.zeros(n)
    grad = -np.ones(n)
    eps = 1e-12
    pos = y > 0
    gap = np.inf
    it = 0
    while it < max_iter:
        yg = -y * grad
        up = (pos & (alpha < c - eps)) | (~pos & (alpha > eps))
        low = (~pos & (alpha < c - eps)) | (pos & (alpha > eps))
        if not up.any() or not low.any():
            gap = 0.0
            break
        up_vals = np.where(up, yg, -np.inf)
        i = int(np.argmax(up_vals))
        m_val = up_vals[i]
        low_vals = np.where(low, yg, np.inf)
        # The first low row's value, as argmax takes i: NaN first, and of
        # -0 and +0 the earlier row's.
        gap = m_val - low_vals[np.argmin(low_vals)]
        if gap < tol:
            break
        k_i = kernel.col(i)
        viol = low & (yg < m_val)
        quad_all = kernel.diag[i] + kernel.diag - 2.0 * k_i
        quad_all = np.where(quad_all > 0, quad_all, 1e-12)
        b_t = m_val - yg
        score = np.where(viol, -(b_t * b_t) / quad_all, np.inf)
        j = int(np.argmin(score))
        k_j = kernel.col(j)
        yi, yj = y[i], y[j]
        gi, gj = grad[i], grad[j]
        old_ai, old_aj = alpha[i], alpha[j]
        quad = kernel.diag[i] + kernel.diag[j] - 2.0 * k_i[j]
        if quad <= 0:
            quad = 1e-12
        if yi != yj:
            delta = (-gi - gj) / quad
            diff = old_ai - old_aj
            ai = old_ai + delta
            aj = old_aj + delta
            if diff > 0:
                if aj < 0:
                    aj, ai = 0.0, diff
            else:
                if ai < 0:
                    ai, aj = 0.0, -diff
            if diff > 0:
                if ai > c:
                    ai, aj = c, c - diff
            else:
                if aj > c:
                    aj, ai = c, c + diff
        else:
            delta = (gi - gj) / quad
            total = old_ai + old_aj
            ai = old_ai - delta
            aj = old_aj + delta
            if total > c:
                if ai > c:
                    ai, aj = c, total - c
            else:
                if aj < 0:
                    aj, ai = 0.0, total
            if total > c:
                if aj > c:
                    aj, ai = c, total - c
            else:
                if ai < 0:
                    ai, aj = 0.0, total
        alpha[i], alpha[j] = ai, aj
        grad += (y * yi * k_i) * (ai - old_ai) + (y * yj * k_j) * (aj - old_aj)
        it += 1
    else:
        warnings.warn("reference SMO hit the iteration cap", RuntimeWarning)

    free = (alpha > eps) & (alpha < c - eps)
    yg = -y * grad
    if free.any():
        bias = float(yg[free].mean())
    else:
        up = (pos & (alpha < c - eps)) | (~pos & (alpha > eps))
        low = (~pos & (alpha < c - eps)) | (pos & (alpha > eps))
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return alpha, bias, float(max(gap, 0.0)), it


def _random_problem(seed):
    """(x, y, degree, c): dense, integer-valued or unsorted-sparse rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 160))
    width = int(rng.integers(1, 12))
    kind = seed % 3
    if kind == 0:
        x = rng.normal(size=(n, width)) * rng.uniform(0.2, 2.0)
    elif kind == 1:
        # Small integers: kernel values, and often gradients, are exact,
        # so ties and exact zeros are common.
        x = rng.integers(0, 3, size=(n, width)).astype(float)
    else:
        x = _unsorted_csr(sp.random(
            n, width + 10, density=0.3, format="csr", random_state=rng,
            data_rvs=lambda k: rng.integers(1, 5, size=k).astype(float)))
    y = np.where(rng.random(n) < rng.uniform(0.1, 0.5), 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    degree = int(rng.integers(1, 4))
    c = float(rng.choice([0.1, 1.0, 10.0]))
    return x, y, degree, c


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _assert_same_solution(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert _bits(got[1]) == _bits(want[1])
    assert _bits(got[2]) == _bits(want[2])
    assert got[3] == want[3]


@pytest.mark.parametrize("seed", range(24))
def test_solver_matches_reference(form, seed):
    x, y, degree, c = _random_problem(seed)
    want = _reference_solve(_ReferenceKernel(x, degree, 6000, 1024),
                            y, c, 1e-3, 200_000)
    got = smo_mod.solve_binary(smo_mod._Kernel(x, degree), y, c, 1e-3,
                               200_000)
    _assert_same_solution(got, want)


@pytest.mark.parametrize("seed", range(6))
def test_solver_matches_reference_column_cache(monkeypatch, form, seed):
    x, y, degree, c = _random_problem(seed)
    _table_rows(monkeypatch, y.size, 8)
    want = _reference_solve(_ReferenceKernel(x, degree, 0, 8),
                            y, c, 1e-3, 200_000)
    got = smo_mod.solve_binary(smo_mod._Kernel(x, degree), y, c, 1e-3,
                               200_000)
    _assert_same_solution(got, want)


@pytest.mark.parametrize("max_iter", [0, 1, 7])
@pytest.mark.parametrize("full_rows,cache", [(6000, 1024), (0, 1), (0, 8)])
def test_solver_matches_reference_at_the_cap(monkeypatch, form, full_rows,
                                             cache, max_iter):
    # On a row table each absent row ends a call to C and the next call
    # goes on, so a capped solve can end right after such a restart.
    x, y, degree, c = _random_problem(4)
    if not full_rows:
        _table_rows(monkeypatch, y.size, cache)
    with pytest.warns(RuntimeWarning):
        want = _reference_solve(_ReferenceKernel(x, degree, full_rows, cache),
                                y, c, 1e-3, max_iter)
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        got = smo_mod.solve_binary(smo_mod._Kernel(x, degree), y, c, 1e-3,
                                   max_iter)
    _assert_same_solution(got, want)


class _ColumnFailed(Exception):
    pass


@pytest.mark.parametrize("fail_at", [1, 2, 9])
def test_failing_column_leaves_the_kernel_whole(monkeypatch, fail_at):
    # An error computing a column ends the solve with that error, and the
    # kernel's table and slots still hold only the columns they name.
    x, y, degree, c = _random_problem(1)
    _table_rows(monkeypatch, y.size, 2)
    kernel = smo_mod._Kernel(x, degree)
    real, calls = smo_mod._poly_kernel, []
    error = _ColumnFailed("no column")

    def failing(a, b, degree, b_t=None):
        if a.shape[0] == 1:
            calls.append(a)
            if len(calls) == fail_at:
                raise error
        return real(a, b, degree, b_t)

    monkeypatch.setattr(smo_mod, "_poly_kernel", failing)
    with pytest.raises(_ColumnFailed) as raised:
        smo_mod.solve_binary(kernel, y, c, 1e-3, 200_000)
    assert raised.value is error
    held = np.flatnonzero(kernel.slot >= 0)
    assert len(held) == min(fail_at - 1, 2)
    assert len(set(kernel.slot[held])) == len(held)
    for i in held:
        assert kernel.table[kernel.slot[i]].tobytes() == \
            real(x[i:i + 1], x, degree).ravel().tobytes()
    want = _reference_solve(_ReferenceKernel(x, degree, 0, 2),
                            y, c, 1e-3, 200_000)
    got = smo_mod.solve_binary(kernel, y, c, 1e-3, 200_000)
    _assert_same_solution(got, want)


def _huge_problem(seed, degree, value):
    """A few rows with one entry of +/-``value``: the kernel is finite, but
    the solver's sums of it, and the gradient, can reach +/-inf and NaN."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    x = rng.normal(size=(n, 3))
    k = int(rng.integers(1, 5))
    x[rng.choice(n, k, replace=False), 1] = value * rng.choice([-1, 1],
                                                               size=k)
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    return x, y, float(rng.choice([0.1, 1.0, 10.0]))


def _solve_both(x, y, degree, c, max_iter):
    """(compiled, reference) solutions, overflow and cap warnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _reference_solve(_ReferenceKernel(x, degree, 6000, 1024),
                                y, c, 1e-3, max_iter)
        got = smo_mod.solve_binary(smo_mod._Kernel(x, degree), y, c, 1e-3,
                                   max_iter)
    return got, want


# (degree, value): a 1e300 kernel, and one whose diagonal is within a
# factor of 2 of the largest double, so that d_i + d_t overflows.
HUGE = [(1, 1e150), (2, 1e75), (1, 1.2e154), (2, 1.1e77)]


@pytest.mark.parametrize("degree,value", HUGE)
@pytest.mark.parametrize("seed", [3, 17, 21, 27, 31])
@pytest.mark.parametrize("max_iter", [5, 500])
def test_solver_matches_reference_on_huge_kernels(form, seed, degree, value,
                                                  max_iter):
    x, y, c = _huge_problem(seed, degree, value)
    got, want = _solve_both(x, y, degree, c, max_iter)
    _assert_same_solution(got, want)


def test_huge_kernel_cases_reach_nan():
    # The cases above cover a gradient that went NaN, which the index
    # choices must treat as numpy's argmax and min do.
    x, y, c = _huge_problem(21, 1, 1.2e154)
    _, want = _solve_both(x, y, 1, c, 5)
    assert np.isnan(want[0]).any() and np.isnan(want[2])


@pytest.mark.parametrize("seed", range(6))
def test_solver_matches_reference_on_duplicated_rows(form, seed):
    # Every row twice: equal gradients, so argmax ties on every step.
    x, y, degree, c = _random_problem(seed)
    rows = np.arange(y.size).repeat(2)
    got, want = _solve_both(x[rows], y[rows], degree, c, 200_000)
    _assert_same_solution(got, want)


@pytest.mark.parametrize("cache", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_solver_matches_reference_tiny_column_cache(monkeypatch, form, seed,
                                                     cache):
    # With 1 or 2 cached columns, fetching column j evicts column i, which
    # the solver still reads.
    x, y, degree, c = _random_problem(seed)
    _table_rows(monkeypatch, y.size, cache)
    want = _reference_solve(_ReferenceKernel(x, degree, 0, cache),
                            y, c, 1e-3, 200_000)
    got = smo_mod.solve_binary(smo_mod._Kernel(x, degree), y, c, 1e-3,
                               200_000)
    _assert_same_solution(got, want)


@NEEDS_AVX2
@pytest.mark.parametrize("n", range(1, 10))
def test_avx2_passes_match_scalar_on_every_tail(monkeypatch, n):
    # Every n mod 4 rows that the scalar loop takes after the 4-row blocks,
    # and n < 4, where no block runs at all.  Each form is compared with
    # the reference; on a +/-0 tie for lo (n = 2, seed 6) all three keep
    # the first row's zero.
    for seed in range(8):
        rng = np.random.default_rng([n, seed])
        x = rng.normal(size=(n, 2)) if seed % 2 else \
            rng.integers(0, 3, size=(n, 2)).astype(float)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        degree = 1 + seed % 3
        want = _reference_solve(_ReferenceKernel(x, degree, 6000, 1024),
                                y, 1.0, 1e-3, 200_000)
        for form in (0, 1):
            monkeypatch.setattr(_native, "SMO_AVX2", form)
            _assert_same_solution(smo_mod.solve_binary(
                smo_mod._Kernel(x, degree), y, 1.0, 1e-3, 200_000), want)


def _solve_on_zero_kernel(y, alpha, grad, form, max_iter=10, diag=None,
                          slot=None):
    """smo_solve from this state with c = 1, on a kernel table of zeros,
    with a diagonal of ones and every row in the table unless ``diag`` and
    ``slot`` say otherwise: (status, iterations, gap, want)."""
    n, c = y.size, 1.0
    pos, neg_y = y > 0, -y
    diag = np.ones(n) if diag is None else diag
    slot = np.arange(n, dtype=np.intp) if slot is None else slot
    table = np.zeros((n, n))
    up = (pos & (alpha < c - 1e-12)) | (~pos & (alpha > 1e-12))
    low = (~pos & (alpha < c - 1e-12)) | (pos & (alpha > 1e-12))
    yg, want = np.empty(n), np.empty(2, dtype=np.intp)
    gap, it = ctypes.c_double(), ctypes.c_longlong()
    status = _native.LIB.smo_solve(
        n, y.ctypes.data, neg_y.ctypes.data, diag.ctypes.data,
        table.ctypes.data, slot.ctypes.data, c, 1e-3, max_iter,
        alpha.ctypes.data, grad.ctypes.data, up.ctypes.data, low.ctypes.data,
        yg.ctypes.data, ctypes.byref(gap), ctypes.byref(it),
        want.ctypes.data, form)
    return status, it.value, gap.value, want.tolist()


def test_signed_zero_ties_keep_the_earlier_row(form):
    # The first step, on the pair (0, 1), sets both multipliers to c and
    # leaves every gradient as it was, +0 for rows 2-5 and 7, so yg is -0
    # where y = +1 and +0 where y = -1.  The first up row at 0 (row 2, -0)
    # and the first low row at 0 (row 3, +0) each sit in a lane above a
    # later tied row of the other sign (rows 5 and 4), and only these two
    # picks make the gap (-0) - (+0) = -0.
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
    alpha = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.5])
    grad = np.array([-1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    status, it, gap, _ = _solve_on_zero_kernel(y, alpha, grad, form)
    assert (status, it) == (0, 1)
    assert alpha.tolist() == [1.0, 1.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.5]
    assert _bits(gap) == _bits(-0.0)


def test_nan_in_a_low_row_keeps_the_gap_nan(form):
    # Row 2 is only in low and its gradient is NaN, so lo, and the gap, are
    # NaN on every pick, while every up row is finite: the solve runs to
    # the cap.  A lo that never took the NaN, or let row 6, 4 rows later in
    # the same lane, replace it, would converge after the first step.
    y = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    grad = np.array([-1.0, -1.0, np.nan, 1.0, 1.0, 1.0, -1.0, 1.0])
    status, it, gap, _ = _solve_on_zero_kernel(y, np.zeros(8), grad, form,
                                               max_iter=3)
    assert (status, it) == (2, 3) and np.isnan(gap)


def test_nan_scores_choose_the_first_nan_row(form):
    # Row 0 is i, at yg = 1e200, so (m_val - yg)^2 overflows for every
    # violator; rows 1 and 6 score inf / finite = inf, and rows 2 and 5,
    # whose quad d_i + d_t overflows too, inf / inf = NaN.  j is row 2, the
    # first NaN: not row 5, the NaN of a lower lane, nor row 6, which comes
    # after the NaN in its lane.  Every row but i is absent, so the solve
    # stops at j.
    y = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    grad = np.array([-1e200, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    diag = np.array([1.7e308, 1.0, 1.7e308, 1.0, 1.0, 1.7e308, 1.0, 1.0])
    slot = np.array([0, -1, -1, -1, -1, -1, -1, -1], dtype=np.intp)
    assert _solve_on_zero_kernel(y, np.zeros(8), grad, form, diag=diag,
                                 slot=slot)[::3] == (3, [2, 0])


@NEEDS_AVX2
def test_row_table_of_width_2_under_avx2_solves_as_the_full_gram(monkeypatch):
    # With 2 table rows nearly every iteration stops at an absent row and a
    # later call resumes it; under the 4-row passes, rows that store each
    # column once and in order give the scalar full-Gram solution.
    x = _small_topics().x
    assert x.has_canonical_format
    y = np.where(np.arange(x.shape[0]) % 5 == 0, 1.0, -1.0)
    monkeypatch.setattr(_native, "SMO_AVX2", 0)
    want = smo_mod.solve_binary(smo_mod._Kernel(x, 2), y, 1.0, 1e-3, 200_000)
    monkeypatch.setattr(_native, "SMO_AVX2", 1)
    _table_rows(monkeypatch, x.shape[0], 2)
    kernel = smo_mod._Kernel(x, 2)
    got = smo_mod.solve_binary(kernel, y, 1.0, 1e-3, 200_000)
    assert kernel.table.shape[0] == 2 and x.shape[0] % 4 and want[3] > 100
    _assert_same_solution(got, want)


def test_solver_on_two_threads_matches_serial(monkeypatch):
    # One problem on a full Gram, one on a row table that solve_binary
    # fills between calls to C, solved at the same time.
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 6))
    y = np.where(rng.random(400) < 0.3, 1.0, -1.0)
    _table_rows(monkeypatch, 300, 300)
    problems = [(smo_mod._Kernel(x[:300], 2), y[:300], 1.0),
                (smo_mod._Kernel(x, 1), -y, 10.0)]
    assert [len(k.table) for k, _, _ in problems] == [300, 225]
    serial = [smo_mod.solve_binary(k, yy, c, 1e-3, 200_000)
              for k, yy, c in problems]
    start = threading.Barrier(2)
    threaded = [None, None]

    def solve(slot):
        kernel, yy, c = problems[slot]
        start.wait(timeout=60)
        threaded[slot] = smo_mod.solve_binary(kernel, yy, c, 1e-3, 200_000)

    threads = [threading.Thread(target=solve, args=(s,)) for s in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for got, want in zip(threaded, serial):
        _assert_same_solution(got, want)


def test_solver_rejects_labels_of_another_length():
    # The C loop reads n entries of every kernel array.
    x, y, degree, c = _random_problem(0)
    with pytest.raises(ValueError, match="labels for a kernel of"):
        smo_mod.solve_binary(smo_mod._Kernel(x, degree), y[:-1], c, 1e-3, 10)
