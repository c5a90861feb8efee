"""Co-multistage model for datasets with several skewed majority classes.

Four multistage ensembles over four label spaces: a binary gate ``b``
(majority cluster vs minority cluster), ``m1`` over the majority cluster
plus each minority class, ``m2`` over the minority cluster plus each
majority class, and a full-space fallback ``m3``.  The top layer forms a
quorum: when the gate and the two reduced-space models agree that the mass
belongs to the majority side, ``m1`` answers; when both agree on the
minority side, ``m2`` answers; any disagreement (ties included, both
comparisons are strict) falls back to ``m3``.

A selected distribution can put its argmax on a cluster pseudo-label, which
is not a dataset class.  The pseudo-label is resolved by the complementary
top-layer model, the only one that discriminates inside that cluster: the
majority cluster picked by ``m1`` is resolved by ``m2``'s distribution
restricted to the majority classes, and the minority cluster picked by
``m2`` by ``m1``'s restricted to the minority classes.  The final answer is
therefore always an original label.

``CmcmModel.LAYERS`` pairs each layer with its label view; the rest is
:class:`~comulti.multistage.TwoLayerModel`, except the fit loop, kept here
so that its ``fit_multistage`` and ``apply_view`` can be wrapped per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .classifiers import ClassifierSpec
from .dataset import (
    BINARY,
    FULL,
    MAJ_CLUSTER,
    MIN_CLUSTER,
    ClassStats,
    Dataset,
    apply_view,
)
from .multistage import (
    StageThresholds,
    TwoLayerModel,
    csr_rows,
    fit_multistage,
    single_row,
    take_rows,
)

BRANCH_MAJORITY = "majority_consensus"   # m1 answers
BRANCH_MINORITY = "minority_consensus"   # m2 answers
BRANCH_FALLBACK = "quorum_disagreement"  # m3 answers
BRANCHES = (BRANCH_MAJORITY, BRANCH_MINORITY, BRANCH_FALLBACK)


@dataclass(frozen=True)
class CmcmRouting:
    """Per-row result of :meth:`CmcmModel.route`.

    ``branch`` indexes ``BRANCHES``; ``stage_used`` is the stage of the
    model that answered; ``layer_stages`` maps each of b, m1, m2 and m3 to
    its per-row stages, 0 where the model was not evaluated.
    """

    labels: np.ndarray
    branch: np.ndarray
    stage_used: np.ndarray
    pseudo_resolved: np.ndarray
    p_binary_majority: np.ndarray
    p_binary_minority: np.ndarray
    p_m1_cluster: np.ndarray
    p_m2_cluster: np.ndarray
    layer_stages: dict[str, np.ndarray]


@dataclass(frozen=True)
class CmcmExplanation:
    """Routing record for one instance."""

    branch: str
    stage_used: int
    pseudo_resolved: bool
    p_binary_majority: float
    p_binary_minority: float
    p_m1_cluster: float
    p_m2_cluster: float


class CmcmModel(TwoLayerModel):
    KIND = "cmcm"
    LAYERS = (("b", BINARY), ("m1", MAJ_CLUSTER), ("m2", MIN_CLUSTER),
              ("m3", FULL))

    def __init__(self, layers, stats: ClassStats):
        super().__init__(layers, stats)
        # Slot 1.. of each cluster view lists member classes in original order.
        self._m1_slot_to_orig = np.array(stats.minority, dtype=np.int64)
        self._m2_slot_to_orig = np.array(stats.majority, dtype=np.int64)

    def route(self, x) -> CmcmRouting:
        """Route every row of a batch through the quorum; ``m3`` is
        evaluated only on the rows the quorum sends to it."""
        x = csr_rows(x)
        db, sb = self.b.predict_batch(x)
        d1, s1 = self.m1.predict_batch(x)
        d2, s2 = self.m2.predict_batch(x)
        p_b_maj, p_b_min = db[:, 0], db[:, 1]
        p1, p2 = d1[:, 0], d2[:, 0]
        majority = (p_b_maj > p_b_min) & (p1 > p2)
        minority = (p_b_maj < p_b_min) & (p1 < p2)
        # The BRANCHES index: majority and minority exclude each other.
        branch = 2 - 2 * majority - minority
        stage_used = np.where(majority, s1, s2)

        labels = np.empty(x.shape[0], dtype=np.int64)
        pseudo = np.zeros(x.shape[0], dtype=bool)
        # A pick of the cluster (slot 0) is resolved by the other model's
        # argmax over its member slots.
        for rows, picked, members, other, other_members in (
                (majority, d1, self._m1_slot_to_orig,
                 d2, self._m2_slot_to_orig),
                (minority, d2, self._m2_slot_to_orig,
                 d1, self._m1_slot_to_orig)):
            if rows.any():
                top = np.argmax(picked[rows], axis=1)
                inside = np.argmax(other[rows, 1:], axis=1)
                pseudo[rows] = top == 0
                labels[rows] = np.where(top == 0, other_members[inside],
                                        members[top - 1])
        s3 = np.zeros_like(sb)
        rows = np.nonzero(branch == 2)[0]
        if rows.size:
            d3, used = self.m3.predict_batch(take_rows(x, rows))
            labels[rows] = np.argmax(d3, axis=1)
            s3[rows] = stage_used[rows] = used
        return CmcmRouting(labels, branch, stage_used, pseudo, p_b_maj,
                           p_b_min, p1, p2,
                           {"b": sb, "m1": s1, "m2": s2, "m3": s3})

    def route_counts(self, r: CmcmRouting) -> dict:
        counts = np.bincount(r.branch, minlength=len(BRANCHES)).tolist()
        return {"branch_counts": dict(zip(BRANCHES, counts)),
                "pseudo_label_resolutions": int(r.pseudo_resolved.sum())}

    def predict(self, x) -> tuple[int, CmcmExplanation]:
        """Single-instance prediction with a routing explanation."""
        r = self.route(single_row(x))
        return int(r.labels[0]), CmcmExplanation(
            BRANCHES[r.branch[0]], int(r.stage_used[0]),
            bool(r.pseudo_resolved[0]), float(r.p_binary_majority[0]),
            float(r.p_binary_minority[0]), float(r.p_m1_cluster[0]),
            float(r.p_m2_cluster[0]))


def fit_cmcm(ds_train: Dataset, stats: ClassStats,
             thresholds: Optional[Mapping[str, StageThresholds]] = None,
             seed: int = 0,
             specs: Optional[Sequence[ClassifierSpec]] = None) -> CmcmModel:
    """Train the four multistage models on the four views of one dataset;
    the arguments are those of :meth:`TwoLayerModel.fit_plan`."""
    plan = CmcmModel.fit_plan(stats, thresholds, seed, specs)
    # Looked up here, not in the base: perfbench wraps them per module.
    return CmcmModel([fit_multistage(ds=apply_view(ds_train, view), **args)
                      for view, args in plan], stats)
