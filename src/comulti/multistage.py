"""Multistage ensembles: ordered classifiers with activation thresholds.

Stages are evaluated in order; an instance stops at the first stage whose
top-class probability meets that stage's threshold.  With the default
threshold of 1.0 per stage almost nothing passes early, so the last stage is
unconditionally terminal: whatever distribution it produces is the answer.
The returned distribution is always some stage's raw output, never a blend.

A stage is a trained classifier or a :class:`CombinerSpec`, which has
nothing fitted: it is the max-confidence rule over two earlier stages.

:class:`TwoLayerModel` is the skeleton of both co-multistage models: named
multistage layers, each trained on one label view of the same training set.
Each model's routing rule (the gate or the quorum) stays in its module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from . import classifiers
from .classifiers import (
    Classifier,
    ClassifierSpec,
    CombinerSpec,
    combine_rows,
    default_stage_specs,
)
from ._native import csr_rows
from .dataset import ClassStats, Dataset, child_seeds, make_view
from .errors import ConfigError, DataError, reading

Stage = Union[Classifier, CombinerSpec]  # a stage of a multistage model


@dataclass(frozen=True)
class StageThresholds:
    """Per-stage activation thresholds, each in (0, 1]; default is 1.0."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ConfigError("at least one stage threshold is required")
        for v in self.values:
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"threshold {v} outside (0, 1]")

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def ones(n: int) -> "StageThresholds":
        return StageThresholds((1.0,) * n)


class MultistageModel:
    """Ordered stages sharing one label space: trained classifiers, and
    combiners (``CombinerSpec``) over the outputs of earlier stages."""

    def __init__(self, stages: Sequence[Stage], thresholds: StageThresholds):
        stages = list(stages)
        if not stages:
            raise ConfigError("a multistage model needs at least one stage")
        if len(thresholds) != len(stages):
            raise ConfigError(
                f"{len(stages)} stages but {len(thresholds)} thresholds"
            )
        for s, stage in enumerate(stages):
            if isinstance(stage, CombinerSpec):
                _check_references(stage, s)
            elif stage.space != stages[0].space:
                raise ConfigError("all stages must share one label space")
        self.stages = stages
        self.thresholds = thresholds
        self.space = stages[0].space

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def predict_batch(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(distributions, stage_used) for a batch.

        Each stage predicts only the rows no earlier stage settled, and the
        loop ends at the stage that settles the last of them; when that is
        the first stage, its distributions are returned as they are.
        Every stage's output on the open rows is kept, so a combiner stage
        combines the raw distributions of the stages it references instead
        of predicting them again.
        """
        x = csr_rows(x)
        n = x.shape[0]
        stage_used = np.zeros(n, dtype=np.int64)
        if not n:
            return np.zeros((0, len(self.space))), stage_used
        out = None  # made when a stage settles some rows and not all
        rows = np.arange(n)  # not settled yet
        outputs: list[np.ndarray] = []  # each stage's output on ``rows``
        last = self.n_stages - 1
        for s, (stage, thr) in enumerate(zip(self.stages,
                                             self.thresholds.values)):
            if isinstance(stage, CombinerSpec):
                dists = combine_rows(outputs[stage.left], outputs[stage.right])
            else:
                dists = stage.predict_proba_batch(take_rows(x, rows))
            if s == last:
                break  # the last stage is unconditionally terminal
            hit = dists.max(axis=1) >= thr
            if hit.all():
                break
            if out is None:
                out = np.zeros((n, len(self.space)))
            out[rows[hit]] = dists[hit]
            stage_used[rows[hit]] = s + 1
            rows = rows[~hit]
            outputs = [o[~hit] for o in outputs + [dists]]
        # Stage s settles every row still open.
        stage_used[rows] = s + 1
        if out is None:
            return dists, stage_used
        out[rows] = dists
        return out, stage_used

    def stage_histogram(self, stage_used: np.ndarray) -> list[int]:
        """Instance counts per stage from a ``predict_batch`` result."""
        return np.bincount(stage_used, minlength=self.n_stages + 1)[1:].tolist()

    def to_dict(self) -> dict:
        docs = []
        for stage in self.stages:
            if isinstance(stage, CombinerSpec):
                docs.append({"kind": "combiner_ref", "left": stage.left,
                             "right": stage.right})
            else:
                docs.append(classifiers.model_to_dict(stage))
        return {"stages": docs, "thresholds": list(self.thresholds.values)}

    @staticmethod
    def from_dict(doc: dict) -> "MultistageModel":
        with reading("multistage model"):
            return MultistageModel._read(doc)

    @staticmethod
    def _read(doc: dict) -> "MultistageModel":
        """``from_dict`` for a reader that names the document itself."""
        stages: list[Stage] = []
        for item in doc["stages"]:
            if item.get("kind") == "combiner_ref":
                stages.append(CombinerSpec(left=item.get("left"),
                                           right=item.get("right")))
            else:
                stages.append(classifiers.model_from_dict(item))
        return MultistageModel(stages, StageThresholds(tuple(doc["thresholds"])))


def _check_references(spec: CombinerSpec, s: int) -> None:
    """A combiner at 0-based stage ``s`` references two earlier stages."""
    if not all(isinstance(i, int) and 0 <= i < s
               for i in (spec.left, spec.right)):
        raise ConfigError(f"combiner at stage {s + 1} must reference earlier "
                          f"stages, got {spec.left} and {spec.right}")


def take_rows(x, rows: np.ndarray):
    """``x[rows]`` for increasing row ids; ``x`` itself when they are all
    of its rows, so a step that passes every row on copies nothing."""
    return x if rows.size == x.shape[0] else x[rows]


def single_row(x):
    """One feature vector as a one-row batch: a sparse one-row matrix as
    it is, any other array-like as float64, a 1-D vector (sparse or not)
    as one row."""
    if not sp.issparse(x):
        x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape((1, -1))
    if x.ndim != 2 or x.shape[0] != 1:
        raise DataError("expected a single feature vector")
    return x


def fit_multistage(specs: Sequence[ClassifierSpec], thresholds: StageThresholds,
                   ds: Dataset, seed: int,
                   shared: Optional[dict] = None) -> MultistageModel:
    """Train every stage on the same dataset.

    A combiner stage is its spec, whose references to earlier stages are
    checked before any later stage is fitted.  Stage seeds are spawned from
    ``seed`` so results do not depend on training order.  ``shared`` is
    passed on to :func:`classifiers.fit`.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("at least one stage spec is required")
    if len(thresholds) != len(specs):
        raise ConfigError(f"{len(specs)} specs but {len(thresholds)} thresholds")
    seeds = child_seeds(seed, len(specs))
    stages: list[Stage] = []
    for s, spec in enumerate(specs):
        if isinstance(spec, CombinerSpec):
            _check_references(spec, s)
            stages.append(spec)
        else:
            stages.append(classifiers.fit(spec, ds, seeds[s], shared))
    return MultistageModel(stages, thresholds)


class TwoLayerModel:
    """Named multistage layers trained on label views of one training set.

    A subclass declares ``KIND`` (its documents' ``kind``) and ``LAYERS``
    (pairs of attribute name and view kind, in fit order), and may declare
    ``check_stats``, which raises a DataError for a skew profile its rule
    cannot route beyond what its views need (see ``make_view``).  Its
    ``route(x)`` returns per-row ``labels`` and ``layer_stages``, and
    ``route_counts(routing)`` the counts ``predict_batch`` reports.  Each
    layer's labels are those of ``make_view(stats, kind)``, so a document
    holds the layers and the class statistics, not the views.
    """

    def __init__(self, layers: Sequence[MultistageModel], stats: ClassStats):
        self.check_stats(stats)
        for (name, kind), layer in zip(self.LAYERS, layers, strict=True):
            if layer.space != make_view(stats, kind).view_labels:
                raise DataError(f"layer {name} must cover the {kind} view")
            setattr(self, name, layer)
        self.stats = stats

    @staticmethod
    def check_stats(stats: ClassStats) -> None:
        """Every profile the views accept can be routed."""

    def predict_batch(self, x) -> tuple[np.ndarray, dict]:
        """Labels plus routing counts and per-layer stage histograms."""
        r = self.route(x)
        info = self.route_counts(r)
        for name, _ in self.LAYERS:
            info[f"{name}_stage_histogram"] = getattr(
                self, name).stage_histogram(r.layer_stages[name])
        return r.labels, info

    def to_dict(self) -> dict:
        return {"kind": self.KIND,
                **{name: getattr(self, name).to_dict()
                   for name, _ in self.LAYERS},
                "stats": self.stats.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict):
        """Other keys, such as the views older versions wrote, are ignored."""
        keys = [name for name, _ in cls.LAYERS] + ["stats"]
        if not (isinstance(doc, dict) and doc.get("kind") == cls.KIND
                and all(k in doc for k in keys)):
            raise DataError(f"not a {cls.KIND} model document: expected kind "
                            f"{cls.KIND!r} with {', '.join(keys)}")
        with reading(f"{cls.KIND} model"):
            return cls([MultistageModel._read(doc[k]) for k in keys[:-1]],
                       ClassStats.from_dict(doc["stats"]))

    @classmethod
    def fit_plan(cls, stats: ClassStats,
                 thresholds: Optional[Mapping[str, StageThresholds]] = None,
                 seed: int = 0,
                 specs: Optional[Sequence[ClassifierSpec]] = None) -> list:
        """Per layer in ``LAYERS`` order, its view and the other arguments of
        its :func:`fit_multistage` call: the 3-stage recipe by default,
        thresholds by layer name (1.0 if absent), a seed spawned from
        ``seed``, and one ``shared`` dict, so the layers' SMO stages build
        one kernel per degree and solve each problem on it once.  The dict
        lives as long as the plan: a caller that drops the plan when its
        fit returns frees the Gram matrices with it."""
        cls.check_stats(stats)
        specs = list(specs) if specs is not None else default_stage_specs()
        thresholds = dict(thresholds or {})
        unknown = set(thresholds) - {name for name, _ in cls.LAYERS}
        if unknown:
            raise ConfigError(f"a {cls.KIND} model has no layer {min(unknown)!r}")
        ones, shared = StageThresholds.ones(len(specs)), {}
        return [(make_view(stats, kind),
                 dict(specs=specs, thresholds=thresholds.get(name, ones),
                      seed=child, shared=shared))
                for (name, kind), child in zip(
                    cls.LAYERS, child_seeds(seed, len(cls.LAYERS)))]
