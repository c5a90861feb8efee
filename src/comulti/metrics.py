"""Evaluation metrics for imbalanced multiclass runs.

Beyond the usual confusion matrix / Macro-F1, this module carries the two
recall-product metrics: the multiclass geometric mean of per-class recalls
(zero as soon as one class is never recalled) and its smoothed variant,
which adds a small ``delta`` to the recall product before taking the k-th
root so that a single silent class no longer collapses the score to zero.
The smoothed variant can exceed 1.0 by construction; it is reported as
computed, never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

DEFAULT_DELTA = 1e-3


@dataclass(frozen=True)
class ConfusionMatrix:
    """Count matrix, cell (i, j) = instances of true class i predicted as j."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.int64)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError("confusion matrix must be square")
        if m.shape[0] != len(self.labels):
            raise DataError("label list does not match matrix size")
        if (m < 0).any():
            raise DataError("negative count in confusion matrix")
        m.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())


def confusion(
    true: Sequence[int],
    pred: Sequence[int],
    k: int,
    labels: Optional[Sequence[str]] = None,
) -> ConfusionMatrix:
    """Tally a k x k confusion matrix from aligned label vectors."""
    t = np.asarray(true, dtype=np.int64)
    p = np.asarray(pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise DataError(f"length mismatch: {t.shape} true vs {p.shape} predicted")
    if t.size and (t.min() < 0 or t.max() >= k or p.min() < 0 or p.max() >= k):
        raise DataError(f"label out of range 0..{k - 1}")
    m = np.zeros((k, k), dtype=np.int64)
    np.add.at(m, (t, p), 1)
    if labels is None:
        labels = tuple(str(i) for i in range(k))
    return ConfusionMatrix(m, tuple(labels))


def per_class_recall(cm: ConfusionMatrix) -> np.ndarray:
    """Recall per class; requires every class to have at least one true instance."""
    support = cm.matrix.sum(axis=1)
    if (support == 0).any():
        missing = [cm.labels[i] for i in np.nonzero(support == 0)[0]]
        raise DataError(f"recall undefined: no true instances for {missing}")
    return np.diag(cm.matrix) / support


def per_class_f1(cm: ConfusionMatrix) -> np.ndarray:
    """F1 per class with the 0/0 convention: no true positives and nothing
    predicted or true for a class scores 0."""
    tp = np.diag(cm.matrix).astype(np.float64)
    fp = cm.matrix.sum(axis=0) - tp
    fn = cm.matrix.sum(axis=1) - tp
    denom = 2.0 * tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(denom > 0, 2.0 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    return f1


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 scores."""
    if cm.n_classes == 0:
        raise DataError("empty confusion matrix")
    return float(per_class_f1(cm).mean())


def g_mean(cm: ConfusionMatrix) -> float:
    """Geometric mean of per-class recalls over all classes; exactly 0.0 when
    any class has zero recall."""
    recalls = per_class_recall(cm)
    if (recalls == 0.0).any():
        return 0.0
    return float(np.prod(recalls) ** (1.0 / cm.n_classes))


def sg_mean(cm: ConfusionMatrix, delta: float = DEFAULT_DELTA,
            per_factor_delta: bool = False) -> float:
    """Smoothed geometric mean of recalls.

    The default adds ``delta`` to the recall product once, as the formula is
    printed: ``(prod(R_i) + delta) ** (1/k)``.  ``per_factor_delta`` switches
    to smoothing each factor instead: ``prod(R_i + delta) ** (1/k)``.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    recalls = per_class_recall(cm)
    k = cm.n_classes
    if per_factor_delta:
        return float(np.prod(recalls + delta) ** (1.0 / k))
    return float((np.prod(recalls) + delta) ** (1.0 / k))


# The measures every report, grid and multi-seed summary shows, in order:
# (display name, MetricsReport attribute).  The last is a class count, the
# others are scores.
REPORTED = (("Macro-F1", "macro_f1"), ("G-Mean", "g_mean"),
            ("SG-Mean", "sg_mean"), ("# R_i=0", "zero_recall_count"))


@dataclass(frozen=True)
class MetricsReport:
    """All run metrics in one record.

    Every field except ``sg_mean`` lies in [0, 1]; the smoothed mean may
    exceed 1 when all recalls are perfect, by construction of the formula.
    """

    cm: ConfusionMatrix
    per_class_recall: tuple[float, ...]
    per_class_f1: tuple[float, ...]
    macro_f1: float
    g_mean: float
    sg_mean: float
    delta: float
    zero_recall_count: int

    def to_dict(self) -> dict:
        return {
            "labels": list(self.cm.labels),
            "confusion": self.cm.matrix.tolist(),
            "per_class_recall": list(self.per_class_recall),
            "per_class_f1": list(self.per_class_f1),
            "macro_f1": self.macro_f1,
            "g_mean": self.g_mean,
            "sg_mean": self.sg_mean,
            "delta": self.delta,
            "zero_recall_count": self.zero_recall_count,
        }

    def cells(self) -> dict:
        """Display name -> shown value of each ``REPORTED`` measure."""
        out = {}
        for name, attr in REPORTED:
            value = getattr(self, attr)
            out[name] = str(value) if isinstance(value, int) else f"{value:.3f}"
        return out

    def to_text(self) -> str:
        return cells_text(self.cells())


def cells_text(cells: dict) -> str:
    """One line per measure: its display name, right-aligned, and value."""
    width = max(len(name) for name in cells)
    return "\n".join(f"{name:>{width}}  {val}" for name, val in cells.items())


def evaluate(cm: ConfusionMatrix, delta: float = DEFAULT_DELTA,
             per_factor_delta: bool = False) -> MetricsReport:
    """Bundle every metric for one confusion matrix."""
    recalls = per_class_recall(cm)
    return MetricsReport(
        cm=cm,
        per_class_recall=tuple(float(r) for r in recalls),
        per_class_f1=tuple(float(v) for v in per_class_f1(cm)),
        macro_f1=macro_f1(cm),
        g_mean=g_mean(cm),
        sg_mean=sg_mean(cm, delta, per_factor_delta),
        delta=delta,
        zero_recall_count=int((recalls == 0.0).sum()),
    )
