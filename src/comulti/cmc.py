"""Two-layer co-multistage model for datasets with one skewed class.

The first layer is a binary multistage ensemble over the majority class
versus the cluster of all minority classes; it is a confidence gate.  When
it puts strictly more probability on the majority side, the answer is the
majority class and the second layer is never evaluated.  Otherwise a full
multiclass multistage ensemble makes the call.  The model requires exactly
one majority class; datasets with several skewed classes belong to the
multi-skew variant instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classifiers import ClassifierSpec, default_stage_specs
from .dataset import BINARY, FULL, ClassStats, Dataset, LabelView, apply_view, make_view
from .errors import DataError
from .multistage import (
    MultistageModel,
    StageThresholds,
    fit_multistage,
    single_row,
    take_rows,
)

LAYERS = ("binary", "multi")


@dataclass(frozen=True)
class CmcRouting:
    """Per-row result of :meth:`CmcModel.route`.

    ``layer`` indexes ``LAYERS``; ``stage_used`` is the stage of the layer
    that decided; ``layer_stages`` maps each layer to its per-row stages,
    0 where the layer was not evaluated.
    """

    labels: np.ndarray
    layer: np.ndarray
    stage_used: np.ndarray
    p_majority: np.ndarray
    p_minority: np.ndarray
    layer_stages: dict[str, np.ndarray]


@dataclass(frozen=True)
class CmcExplanation:
    """Which layer and stage decided, with the gate probabilities."""

    layer: str  # "binary" or "multi"
    stage_used: int
    p_majority: float
    p_minority: float


class CmcModel:
    def __init__(self, binary: MultistageModel, multi: MultistageModel,
                 binary_view: LabelView, full_view: LabelView,
                 stats: ClassStats):
        if len(binary.space) != 2:
            raise DataError("binary layer must have exactly 2 view labels")
        if len(stats.majority) != 1:
            raise DataError("this model requires exactly one majority class")
        if multi.space != stats.labels:
            raise DataError("multiclass layer must cover the original labels")
        self.binary = binary
        self.multi = multi
        self.binary_view = binary_view
        self.full_view = full_view
        self.stats = stats
        self.majority_class = stats.majority[0]

    def route(self, x) -> CmcRouting:
        """Route every row of a batch through the gate and, for the rows
        it does not settle, the multiclass layer (evaluated lazily)."""
        b_dists, b_stages = self.binary.predict_batch(x)
        gated = b_dists[:, 0] > b_dists[:, 1]  # strict: ties fall through
        labels = np.full(x.shape[0], self.majority_class, dtype=np.int64)
        m_stages = np.zeros_like(b_stages)
        rows = np.nonzero(~gated)[0]
        if rows.size:
            m_dists, used = self.multi.predict_batch(take_rows(x, rows))
            labels[rows] = np.argmax(m_dists, axis=1)
            m_stages[rows] = used
        return CmcRouting(labels, (~gated).astype(np.int64),
                          np.where(gated, b_stages, m_stages),
                          b_dists[:, 0], b_dists[:, 1],
                          {"binary": b_stages, "multi": m_stages})

    def predict_batch(self, x) -> tuple[np.ndarray, dict]:
        """Labels for a batch plus layer counts and per-layer stage
        histograms."""
        r = self.route(x)
        counts = np.bincount(r.layer, minlength=len(LAYERS)).tolist()
        info = {"layer_counts": dict(zip(LAYERS, counts))}
        for name, stages in r.layer_stages.items():
            info[f"{name}_stage_histogram"] = getattr(
                self, name).stage_histogram(stages)
        return r.labels, info

    def predict(self, x) -> tuple[int, CmcExplanation]:
        """Single-instance prediction with an explanation record."""
        r = self.route(single_row(x))
        return int(r.labels[0]), CmcExplanation(
            LAYERS[r.layer[0]], int(r.stage_used[0]),
            float(r.p_majority[0]), float(r.p_minority[0]))

    def to_dict(self) -> dict:
        return {
            "kind": "cmc",
            "binary": self.binary.to_dict(),
            "multi": self.multi.to_dict(),
            "binary_view": self.binary_view.to_dict(),
            "full_view": self.full_view.to_dict(),
            "stats": self.stats.to_dict(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "CmcModel":
        return CmcModel(
            MultistageModel.from_dict(doc["binary"]),
            MultistageModel.from_dict(doc["multi"]),
            LabelView.from_dict(doc["binary_view"]),
            LabelView.from_dict(doc["full_view"]),
            ClassStats.from_dict(doc["stats"]),
        )


def fit_cmc(ds_train: Dataset, stats: ClassStats,
            binary_thresholds: Optional[StageThresholds] = None,
            multi_thresholds: Optional[StageThresholds] = None,
            seed: int = 0,
            specs: Optional[Sequence[ClassifierSpec]] = None) -> CmcModel:
    """Train the binary gate and the full multiclass layer.

    Both layers use the default 3-stage recipe unless ``specs`` overrides it.
    The layers share the training matrix, so a one-vs-rest SMO problem both
    layers pose (majority versus the rest) is solved once.
    """
    if len(stats.majority) != 1:
        raise DataError(
            f"{len(stats.majority)} majority classes; this model handles "
            "exactly one (use the multi-skew variant for several)"
        )
    specs = list(specs) if specs is not None else default_stage_specs()
    if binary_thresholds is None:
        binary_thresholds = StageThresholds.ones(len(specs))
    if multi_thresholds is None:
        multi_thresholds = StageThresholds.ones(len(specs))
    binary_view = make_view(stats, BINARY)
    full_view = make_view(stats, FULL)
    seeds = np.random.SeedSequence(seed).spawn(2)
    shared: dict = {}  # one solve per distinct SMO problem
    binary = fit_multistage(specs, binary_thresholds,
                            apply_view(ds_train, binary_view),
                            int(seeds[0].generate_state(1)[0]), shared)
    multi = fit_multistage(specs, multi_thresholds,
                           apply_view(ds_train, full_view),
                           int(seeds[1].generate_state(1)[0]), shared)
    return CmcModel(binary, multi, binary_view, full_view, stats)
