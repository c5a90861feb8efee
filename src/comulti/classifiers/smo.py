"""Margin classifier trained by sequential minimal optimization.

One binary soft-margin problem is solved per class (one-vs-rest) with a
polynomial kernel ``(x . y + 1)^degree``.  The dual is optimized by
maximal-violating-pair SMO with second-order working-set selection (Fan,
Chen & Lin, JMLR 2005); at convergence every multiplier satisfies
``0 <= alpha_i <= C`` and the largest KKT violation is below the tolerance.
Decision scores are mapped to probabilities by a per-class logistic (Platt)
fit on the training scores, then normalized across classes.

Every kernel value a fit reads is a kernel row, K(x_i, .), and the
solver uses row i as column i.  The training kernel lives behind
:mod:`.._native`, bound once per ``_Kernel``: the training rows as CSR (a
dense matrix is read through its CSR form) and their transpose, and a
C-order table of ``min(n, _TABLE_BYTES // (8 n))`` rows, at least 2.  The
solver computes each row it lacks itself, x_i times the transposed rows
by ``sparse_product`` (it reads the training entries of the columns x_i
stores, not every entry), then ``+ 1`` and the power; when the table is
full it takes the place of the row that went in first.  One C routine
computes the diagonal as those rows hold it.  The Platt scores are the
solver's own: its gradient holds every training row's score, so no row is
read after the solve.  Each entry is summed in a fixed order, so a fit
does not depend on the BLAS thread count or on the table's size.  Fits of
several label views of one training matrix share one ``_Kernel``, which
keeps every binary problem solved on it (the ``shared`` argument of
:func:`fit_smo`): the first view's fit builds it, it lives until the
caller drops ``shared``, and a one-vs-rest problem that two views pose is
solved and calibrated once, its iteration-cap warning, if any, raised
once.

The solver's iterations run in C, and so does every training kernel row
and the kernel product of two sparse matrices: the loop of
:func:`solve_binary`, the kernel and ``sparse_product`` are compiled at
import, with the forest's tree grower and walk, by :mod:`.._native`, and
run without the GIL.  An iteration makes two passes over the rows: the
second-order choice of the pair's second index, which skips rows that are
not violators, and one pass that updates the gradient and takes the next
iteration's first index and gap.  On a CPU with AVX2
(``_native.SMO_AVX2``, read once at import) both passes take 4 rows at a
time, rounding each row as the scalar loop does and making the same picks,
so a fit has the same bits on any x86-64 CPU.  The product is scipy's own
loop, so a sparse kernel has the bits of ``(a @ b.T).toarray()``; the
power is repeated multiplication, which rounds the same on every CPU
(``kernel_entries``, also for predictions).  A fitted model transposes
sparse support vectors once, not on every prediction.  Every sparse left
operand, also one multiplied by scipy against dense support vectors, is
read as a ``Csr``, converted to CSR and checked in C once, so a malformed
CSR, CSC or COO batch is a ``ValueError``; a model hands its ``Csr`` down,
so a batch it took in is not checked again.  A dense batch is multiplied
by BLAS, whose sums, and so the last bits of a dense model's scores,
depend on its thread count.

How a model predicts, for one row as for a batch.  The kernel of the rows
against every support vector is computed once.  Each label's scores are
then one numpy product with its own support vectors' columns, written into
one (labels, rows) buffer: numpy sums a one-row product as a dot product
and a batch as a matrix-vector product, and one product over every label
would sum in another order.  The biases are added at once, and every
label's logistic map is applied in one element-wise pass over the
row-major (rows, labels) scores, each element rounded as a map of its
label alone would round it.
"""

from __future__ import annotations

import ctypes
import warnings
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..dataset import freeze
from ..errors import DataError, TrainingError
from .. import _native
from .._native import LIB, Csr, address, csr_rows
from .base import Classifier, SmoSpec

_CAP = 2  # smo_solve's status when it ran max_iter iterations


# The kernel table's size in bytes: every training row up to 6 000 rows,
# and above as many rows of n doubles as fit, at least 2 (360 rows at
# 100 000 training rows).  Rows are computed as the solver reads them, so
# the budget moves how often a row is computed, not its bits.
_TABLE_BYTES = 8 * 6000**2


def _poly_kernel(a, b, degree: int, b_t: Optional[Csr] = None) -> np.ndarray:
    """(a . b + 1)^degree as a dense array of its own, for prediction;
    absent sparse entries are 0.

    A sparse ``a`` is read as a ``Csr`` whatever ``b`` is, since C and
    scipy both read where its arrays point; the caller may hand one in,
    made once.  Two sparse operands multiply in C, in float64, bit for bit
    as scipy's ``(a @ b.T).toarray()`` of the CSR form of ``a`` (scipy
    multiplies a CSC ``a`` in another order); ``b_t`` is ``b.T`` as a
    ``Csr``, or None.  Dense and mixed operands multiply as ``a @ b.T``,
    with a sparse ``a`` in CSR.  ``kernel_entries`` then applies the ``+
    1`` and the power in place on the fresh product, as to a training row.
    """
    a = csr_rows(a)
    if isinstance(a, Csr) and sp.issparse(b):
        bt = Csr.transposed(b) if b_t is None else b_t
        if a.shape[1] != bt.shape[0]:
            raise ValueError(f"kernel of {a.shape[1]}-column rows with "
                             f"{bt.shape[0]}-column rows")
        # sparse_product in _native.c, summed as scipy sums.
        prod = np.zeros((a.shape[0], bt.shape[1]))
        LIB.sparse_product(a.shape[0], bt.shape[1], *a.at, *bt.at,
                           address(prod))
    else:
        prod = np.ascontiguousarray(
            (a.m if isinstance(a, Csr) else a) @ b.T, dtype=np.float64)
    LIB.kernel_entries(prod.size, degree, address(prod))
    return prod


class _Kernel:
    """The training kernel over one matrix, in C, and the binary problems
    solved on it: ``solved`` maps ``(c, tol, max_iter, y_bin.tobytes())``
    to ``(alpha, bias, gap, platt)``.  It holds the matrix itself, so the
    matrix's id, its key in a ``shared`` dict, cannot be reused while it
    lives.

    ``state`` is the ``_native.SmoKernel`` bound to the training rows in
    CSR, their transpose, ``table``, ``slot`` and ``diag``.  Row i is
    ``table[slot[i]]``, K(x_i, .), or absent if ``slot[i] < 0``; the
    solver reads it as column i.  The table holds ``min(n, _TABLE_BYTES //
    (8 n))`` rows, at least 2, empty until :func:`solve_binary` computes
    the rows it reads.  It changes during a solve, so a kernel serves one
    solve at a time.  ``diag`` is computed here, each entry as its row
    holds it.

    Every entry of row i sums x_i's products in x_i's stored order.  A CSR
    row that stores each column once and in order (as a dense row's CSR
    form does) sums K(x_i, x_t) as it sums K(x_t, x_i), so the kernel is
    symmetric to the bit; one that stores a column twice, or out of order,
    may round the two differently, and the solver reads row i's.
    """

    def __init__(self, x, degree: int):
        self.x = x
        self.solved: dict = {}
        self.degree = degree
        self.n = n = x.shape[0]
        self._x = Csr(x if sp.issparse(x) else sp.csr_matrix(x))
        self._xt = Csr.transposed(self._x.m)
        width = min(n, max(2, _TABLE_BYTES // (8 * n))) if n else 0
        self.table = np.empty((width, n))
        self.slot = np.full(n, -1, dtype=np.intp)
        self.diag = np.empty(n)
        self.state = _native.SmoKernel(
            n, degree, width, 0, *self._x.at, *self._xt.at,
            *map(address, (self.table, self.diag, self.slot)))
        LIB.kernel_diag(self.state)
        # |x_i . x_j| <= max(|x_i|^2, |x_j|^2) (Cauchy-Schwarz), so a finite
        # diagonal bounds every kernel entry.
        if not np.isfinite(self.diag).all():
            raise TrainingError(
                f"SMO stage: the degree-{degree} kernel overflows on the "
                "training rows (feature values too large)")


def solve_binary(kernel: _Kernel, y: np.ndarray, c: float, tol: float,
                 max_iter: int):
    """SMO on one binary problem; ``y`` holds +/-1.

    Returns (alpha, bias, kkt_gap, iterations, scores).  The working pair
    is the maximal violating pair with a second-order choice of the second
    index; convergence means the violation gap dropped below ``tol``.
    ``scores`` is every training row's decision score, ``(y - yg) + bias``:
    the solver leaves ``yg = -y * grad`` for the last gradient, and
    ``y_t - yg_t`` is ``sum_i alpha_i y_i K(x_i, x_t)``.

    The iterations run in C (``_native.c``, see :mod:`.._native`), which
    computes each kernel row it lacks into the kernel's table; this
    function sets up the buffers, computes the bias and raises the
    iteration-cap warning.  Every element goes through the same rounded
    operations as in the plain numpy form (``yg = -y * grad``, masks of
    the index sets, argmax and argmin by numpy's rules, NaN included), so
    alphas, bias, gap and iteration count are the same to the bit.  A tie
    keeps the first row's value, sign of zero included: the gap subtracts
    the value of the first low row at the minimum, so of -0 and +0 the
    earlier row's.
    """
    n = y.size
    y = np.ascontiguousarray(y, dtype=np.float64)
    # C reads n entries of each array, and n of each kernel row.
    if y.shape != (kernel.n,):
        raise ValueError(f"SMO: {n} labels for a kernel of {kernel.n} rows")
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    eps = 1e-12
    top = c - eps
    pos = y > 0
    # Row t is in ``up`` when y_t alpha_t can still grow and in ``low`` when
    # it can shrink; the C loop re-tests both at the two rows it updates.
    up = (pos & (alpha < top)) | (~pos & (alpha > eps))
    low = (~pos & (alpha < top)) | (pos & (alpha > eps))
    neg_y = -y
    yg = np.empty(n)
    gap, it = ctypes.c_double(), ctypes.c_longlong()
    # The arrays stay bound to names until the call returns.
    status = LIB.smo_solve(
        kernel.state, y.ctypes.data, neg_y.ctypes.data, c, tol, max_iter,
        alpha.ctypes.data, grad.ctypes.data, up.ctypes.data, low.ctypes.data,
        yg.ctypes.data, ctypes.byref(gap), ctypes.byref(it),
        _native.SMO_AVX2)
    gap, it = gap.value, it.value
    if status == _CAP:
        warnings.warn(
            f"SMO hit the iteration cap ({max_iter}) with KKT gap {gap:.3g}",
            RuntimeWarning,
        )

    free = (alpha > eps) & (alpha < top)
    if free.any():
        bias = float(yg[free].mean())
    else:
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return alpha, bias, float(max(gap, 0.0)), it, (y - yg) + bias


_PLATT_ITERATIONS = 100  # Newton iterations of platt_fit, at most


def platt_fit(scores: np.ndarray, positive: np.ndarray) -> tuple[float, float]:
    """Fit the logistic map ``P(y=1|s) = 1 / (1 + exp(A s + B))``.

    Newton iterations with backtracking on the regularized targets
    ``(n+ + 1)/(n+ + 2)`` and ``1/(n- + 2)``; numerically stable for
    arbitrarily large margins.
    """
    prior1 = float(positive.sum())
    prior0 = float(positive.size - prior1)
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(positive, hi, lo)
    a, b = 0.0, float(np.log((prior0 + 1.0) / (prior1 + 1.0)))
    sigma = 1e-12
    min_step = 1e-10

    def objective(a_, b_):
        f = a_ * scores + b_
        out = np.empty_like(f)
        m = f >= 0
        out[m] = t[m] * f[m] + np.log1p(np.exp(-f[m]))
        out[~m] = (t[~m] - 1.0) * f[~m] + np.log1p(np.exp(f[~m]))
        return float(out.sum())

    fval = objective(a, b)
    for _ in range(_PLATT_ITERATIONS):
        f = a * scores + b
        p = _sigmoid(f)
        q = 1.0 - p
        d1 = t - p
        d2 = p * q
        g1 = float(np.sum(scores * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        h11 = float(np.sum(scores * scores * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.sum(scores * d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= min_step:
            new_a, new_b = a + step * da, b + step * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * step * gd:
                a, b, fval = new_a, new_b, new_f
                break
            step /= 2.0
        else:
            break  # line search failed; keep current point
    return a, b


def _sigmoid(f: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(f)) without overflow on either tail."""
    out = np.empty_like(f)
    pos = f >= 0
    e = np.exp(-f[pos])
    out[pos] = e / (1.0 + e)
    e = np.exp(f[~pos])
    out[~pos] = 1.0 / (1.0 + e)
    return out


class TrainedSmo(Classifier):
    """One-vs-rest SMO model: shared support-vector matrix plus per-class
    dual coefficients, bias and Platt parameters."""

    def __init__(self, spec: SmoSpec, space: tuple[str, ...], sv_x,
                 sv_index: list[np.ndarray], sv_coef: list[np.ndarray],
                 bias: np.ndarray, platt_a: np.ndarray, platt_b: np.ndarray,
                 kkt_gaps: np.ndarray):
        self.spec = spec
        self.space = space
        self.sv_x = sv_x
        self.sv_index = sv_index
        self.sv_coef = sv_coef
        self.bias = bias
        self.platt_a = platt_a
        self.platt_b = platt_b
        self.kkt_gaps = kkt_gaps
        self.n_features = sv_x.shape[1]
        # Read-only, so what predicts is what to_dict writes.
        for a in (sv_x, *sv_index, *sv_coef, bias, platt_a, platt_b, kkt_gaps):
            freeze(a)
        # Sparse support vectors are transposed once per model, here, for
        # every later prediction: a fit, from_dict and a copy alike.
        self._sv_t = Csr.transposed(sv_x) if sp.issparse(sv_x) else None

    def __reduce__(self):
        # A copy prepares its own transpose.
        return TrainedSmo, (self.spec, self.space, self.sv_x, self.sv_index,
                            self.sv_coef, self.bias, self.platt_a,
                            self.platt_b, self.kkt_gaps)

    def decision_scores(self, x) -> np.ndarray:
        self._check_width(x)
        gram = _poly_kernel(x, self.sv_x, self.spec.degree, b_t=self._sv_t)
        # One product per label, which numpy sums as a dot product for one
        # row and a matrix-vector product for more; a product over every
        # label at once would sum in another order.
        scores = np.empty((self.n_labels, x.shape[0]))
        for cls, (index, coef) in enumerate(zip(self.sv_index, self.sv_coef)):
            np.matmul(gram[:, index], coef, out=scores[cls])
        scores += self.bias[:, None]
        # Row-major: predict_proba_batch sums across labels, and numpy sums
        # an axis of another layout in another order.
        return np.ascontiguousarray(scores.T)

    def predict_proba_batch(self, x) -> np.ndarray:
        cal = _sigmoid(self.platt_a * self.decision_scores(x) + self.platt_b)
        totals = cal.sum(axis=1, keepdims=True)
        flat = (totals == 0.0).ravel()
        if flat.any():
            cal[flat] = 1.0
            totals = cal.sum(axis=1, keepdims=True)
        return cal / totals

    def to_dict(self) -> dict:
        sv = self.sv_x
        if sp.issparse(sv):
            coo = sv.tocoo()
            sv_doc = {
                "sparse": True,
                "shape": list(coo.shape),
                "row": coo.row.tolist(),
                "col": coo.col.tolist(),
                "data": coo.data.tolist(),
            }
        else:
            sv_doc = {"sparse": False, "values": sv.tolist()}
            if not sv.shape[0]:  # [] alone does not say how many columns
                sv_doc["shape"] = list(sv.shape)
        return {
            "kind": "smo_margin",
            "degree": self.spec.degree,
            "c": self.spec.c,
            "tol": self.spec.tol,
            "max_iter": self.spec.max_iter,
            "space": list(self.space),
            "sv_x": sv_doc,
            "sv_index": [v.tolist() for v in self.sv_index],
            "sv_coef": [v.tolist() for v in self.sv_coef],
            "bias": self.bias.tolist(),
            "platt_a": self.platt_a.tolist(),
            "platt_b": self.platt_b.tolist(),
            "kkt_gaps": self.kkt_gaps.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "TrainedSmo":
        sv_doc = doc["sv_x"]
        if sv_doc["sparse"]:
            coo = sp.coo_matrix(  # checks each entry's row and column
                (np.asarray(sv_doc["data"], dtype=np.float64),
                 (sv_doc["row"], sv_doc["col"])),
                shape=tuple(sv_doc["shape"]),
            )
            # Rows in order and each row's entries as stored, none summed:
            # COO -> CSR would sum a column stored twice in a row (see
            # load_sparse), and kernels would not sum as fitted.
            order = np.argsort(coo.row, kind="stable")
            indptr = np.searchsorted(coo.row[order],
                                     np.arange(coo.shape[0] + 1))
            sv = sp.csr_matrix((coo.data[order], coo.col[order], indptr),
                               shape=coo.shape)
        else:
            sv = np.asarray(sv_doc["values"], dtype=np.float64)
            if "shape" in sv_doc:
                sv = sv.reshape(sv_doc["shape"])
        space = tuple(doc["space"])
        sv_index = [np.asarray(v, dtype=np.int64) for v in doc["sv_index"]]
        sv_coef = [np.asarray(v, dtype=np.float64) for v in doc["sv_coef"]]
        per_label = [np.asarray(doc[key], dtype=np.float64)
                     for key in ("bias", "platt_a", "platt_b", "kkt_gaps")]
        # Prediction indexes with these unchecked.
        if sv.ndim != 2:
            raise DataError("smo_margin model document: sv_x is not a matrix")
        if len(sv_index) != len(space) or len(sv_coef) != len(space) \
                or any(a.shape != (len(space),) for a in per_label):
            raise DataError("smo_margin model document: sv_index, sv_coef, "
                            "bias, platt_a, platt_b and kkt_gaps need one "
                            f"entry per label ({len(space)})")
        for label, (index, coef) in enumerate(zip(sv_index, sv_coef)):
            if index.ndim != 1 or coef.shape != index.shape or (index.size and (
                    index.min() < 0 or index.max() >= sv.shape[0])):
                raise DataError(f"smo_margin model document: label {label} "
                                "needs one sv_coef per sv_index, each index "
                                f"a row of sv_x (0..{sv.shape[0] - 1})")
        return TrainedSmo(
            SmoSpec(degree=doc["degree"], c=doc["c"], tol=doc["tol"],
                    max_iter=doc["max_iter"]),
            space, sv, sv_index, sv_coef, *per_label)


def fit_smo(spec: SmoSpec, x, y: np.ndarray, space: tuple[str, ...],
            seed: int, shared: Optional[dict] = None) -> TrainedSmo:
    """Train one-vs-rest SMO problems plus Platt calibration.

    Deterministic regardless of ``seed`` (the solver draws no randomness);
    the argument is accepted for interface parity with other classifiers.

    ``shared`` is a dict owned by a caller that fits several label views of
    one training matrix.  It keeps one ``_Kernel`` per (matrix, degree),
    built by the first view's fit, with every binary problem solved on it,
    so a kernel row the table holds is computed once for every view and a
    one-vs-rest problem that recurs in another view is solved (and
    calibrated) once.  The kernel lives as long as the dict: a two-layer
    fit drops it when it returns, so the fitted model holds no kernel
    table.  Without ``shared`` the kernel lives for this fit only.
    """
    del seed
    n_classes = len(space)
    if n_classes < 2:
        raise TrainingError("margin classifier needs at least 2 labels")
    kernel = None if shared is None else shared.get((id(x), spec.degree))
    if kernel is None:
        kernel = _Kernel(x, spec.degree)
        if shared is not None:
            shared[id(x), spec.degree] = kernel
    n = x.shape[0]
    alphas = np.zeros((n_classes, n))
    bias = np.zeros(n_classes)
    platt_a = np.zeros(n_classes)
    platt_b = np.zeros(n_classes)
    gaps = np.zeros(n_classes)
    for cls in range(n_classes):
        y_bin = np.where(y == cls, 1.0, -1.0)
        key = (spec.c, spec.tol, spec.max_iter, y_bin.tobytes())
        solved = kernel.solved.get(key)
        if solved is None:
            alpha, b, gap, _, scores = solve_binary(
                kernel, y_bin, spec.c, spec.tol, spec.max_iter)
            platt = platt_fit(scores, y == cls)
            if not np.isfinite([b, gap, *platt]).all():
                raise TrainingError(
                    f"SMO stage: the problem for label {space[cls]!r} has a "
                    "non-finite bias, KKT gap or Platt fit")
            solved = kernel.solved[key] = (alpha, b, gap, platt)
        alphas[cls], bias[cls], gaps[cls], platt = solved
        platt_a[cls], platt_b[cls] = platt

    sv_mask = (alphas > 1e-12).any(axis=0)
    sv_rows = np.nonzero(sv_mask)[0]
    remap = -np.ones(n, dtype=np.int64)
    remap[sv_rows] = np.arange(sv_rows.size)
    sv_x = x[sv_rows]
    sv_index, sv_coef = [], []
    for cls in range(n_classes):
        keep = np.nonzero(alphas[cls] > 1e-12)[0]
        sv_index.append(remap[keep])
        sv_coef.append(alphas[cls][keep] * np.where(y[keep] == cls, 1.0, -1.0))
    return TrainedSmo(spec, space, sv_x, sv_index, sv_coef, bias,
                      platt_a, platt_b, gaps)
