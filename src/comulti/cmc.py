"""Two-layer co-multistage model for datasets with one skewed class.

The first layer is a binary multistage ensemble over the majority class
versus the cluster of all minority classes; it is a confidence gate.  When
it puts strictly more probability on the majority side, the answer is the
majority class and the second layer is never evaluated.  Otherwise a full
multiclass multistage ensemble makes the call.  The model requires exactly
one majority class; datasets with several skewed classes belong to the
multi-skew variant instead.

``CmcModel.LAYERS`` pairs each layer with its label view; the rest is
:class:`~comulti.multistage.TwoLayerModel`, except the fit loop, kept here
so that its ``fit_multistage`` and ``apply_view`` can be wrapped per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .classifiers import ClassifierSpec
from .dataset import BINARY, FULL, ClassStats, Dataset, apply_view
from .errors import DataError
from .multistage import (
    StageThresholds,
    TwoLayerModel,
    csr_rows,
    fit_multistage,
    single_row,
    take_rows,
)


@dataclass(frozen=True)
class CmcRouting:
    """Per-row result of :meth:`CmcModel.route`.

    ``layer`` indexes ``CmcModel.LAYERS``; ``stage_used`` is the stage of
    the layer that decided; ``layer_stages`` maps each layer to its per-row
    stages, 0 where the layer was not evaluated.
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


class CmcModel(TwoLayerModel):
    KIND = "cmc"
    LAYERS = (("binary", BINARY), ("multi", FULL))

    @staticmethod
    def check_stats(stats: ClassStats) -> None:
        if len(stats.majority) != 1:
            raise DataError(f"{len(stats.majority)} majority classes; this "
                            "model handles exactly one (use the multi-skew "
                            "variant for several)")

    def route(self, x) -> CmcRouting:
        """Route every row of a batch through the gate and, for the rows
        it does not settle, the multiclass layer (evaluated lazily)."""
        x = csr_rows(x)
        b_dists, b_stages = self.binary.predict_batch(x)
        gated = b_dists[:, 0] > b_dists[:, 1]  # strict: ties fall through
        labels = np.full(x.shape[0], self.stats.majority[0], dtype=np.int64)
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

    def route_counts(self, r: CmcRouting) -> dict:
        counts = np.bincount(r.layer, minlength=len(self.LAYERS)).tolist()
        return {"layer_counts": dict(zip((n for n, _ in self.LAYERS), counts))}

    def predict(self, x) -> tuple[int, CmcExplanation]:
        """Single-instance prediction with an explanation record."""
        r = self.route(single_row(x))
        return int(r.labels[0]), CmcExplanation(
            self.LAYERS[r.layer[0]][0], int(r.stage_used[0]),
            float(r.p_majority[0]), float(r.p_minority[0]))


def fit_cmc(ds_train: Dataset, stats: ClassStats,
            thresholds: Optional[Mapping[str, StageThresholds]] = None,
            seed: int = 0,
            specs: Optional[Sequence[ClassifierSpec]] = None) -> CmcModel:
    """Train the binary gate and the full multiclass layer; the arguments
    are those of :meth:`TwoLayerModel.fit_plan`."""
    plan = CmcModel.fit_plan(stats, thresholds, seed, specs)
    # Looked up here, not in the base: perfbench wraps them per module.
    return CmcModel([fit_multistage(ds=apply_view(ds_train, view), **args)
                     for view, args in plan], stats)
