"""Multistage ensembles: ordered classifiers with activation thresholds.

Stages are evaluated in order; an instance stops at the first stage whose
top-class probability meets that stage's threshold.  With the default
threshold of 1.0 per stage almost nothing passes early, so the last stage is
unconditionally terminal: whatever distribution it produces is the answer.
The returned distribution is always some stage's raw output, never a blend.

:class:`TwoLayerModel` is the skeleton of both co-multistage models: named
multistage layers, each trained on one label view of the same training set.
Each model's routing rule (the gate or the quorum) stays in its module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import classifiers
from .classifiers import (
    Classifier,
    ClassifierSpec,
    CombinerSpec,
    TrainedCombiner,
    combine_rows,
    default_stage_specs,
)
from .dataset import ClassStats, Dataset, make_view
from .errors import ConfigError, DataError


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
    """Ordered trained stages sharing one label space."""

    def __init__(self, stages: Sequence[Classifier], thresholds: StageThresholds):
        stages = list(stages)
        if not stages:
            raise ConfigError("a multistage model needs at least one stage")
        if len(thresholds) != len(stages):
            raise ConfigError(
                f"{len(stages)} stages but {len(thresholds)} thresholds"
            )
        space = stages[0].space
        for s in stages[1:]:
            if s.space != space:
                raise ConfigError("all stages must share one label space")
        self.stages = stages
        self.thresholds = thresholds
        self.space = space

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def predict_batch(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(distributions, stage_used) for a batch.

        Stage outputs are cached so a combiner stage reuses the raw
        distributions of the stages it wraps instead of re-predicting.
        """
        n = x.shape[0]
        k = len(self.space)
        out = np.zeros((n, k))
        stage_used = np.zeros(n, dtype=np.int64)
        cache: list[np.ndarray] = []
        remaining = np.arange(n)
        for s, (clf, thr) in enumerate(zip(self.stages, self.thresholds.values)):
            stage_out = np.full((n, k), np.nan)
            if remaining.size:
                spec = getattr(clf, "spec", None)
                if isinstance(spec, CombinerSpec):
                    dists = combine_rows(cache[spec.left][remaining],
                                         cache[spec.right][remaining])
                else:
                    dists = clf.predict_proba_batch(take_rows(x, remaining))
                stage_out[remaining] = dists
            cache.append(stage_out)
            if remaining.size == 0:
                continue
            last = s == self.n_stages - 1
            conf = stage_out[remaining].max(axis=1)
            hit = np.ones(remaining.size, dtype=bool) if last else conf >= thr
            done = remaining[hit]
            out[done] = stage_out[done]
            stage_used[done] = s + 1
            remaining = remaining[~hit]
        return out, stage_used

    def stage_histogram(self, stage_used: np.ndarray) -> list[int]:
        """Instance counts per stage from a ``predict_batch`` result."""
        return np.bincount(stage_used, minlength=self.n_stages + 1)[1:].tolist()

    def to_dict(self) -> dict:
        docs = []
        for clf in self.stages:
            spec = getattr(clf, "spec", None)
            if isinstance(spec, CombinerSpec):
                docs.append({"kind": "combiner_ref", "left": spec.left,
                             "right": spec.right})
            else:
                docs.append(classifiers.model_to_dict(clf))
        return {"stages": docs, "thresholds": list(self.thresholds.values)}

    @staticmethod
    def from_dict(doc: dict) -> "MultistageModel":
        stages: list[Classifier] = []
        for item in doc["stages"]:
            if item.get("kind") == "combiner_ref":
                spec = CombinerSpec(left=item.get("left"),
                                    right=item.get("right"))
                stages.append(_bind_combiner(spec, stages, DataError))
            else:
                stages.append(classifiers.model_from_dict(item))
        return MultistageModel(stages, StageThresholds(tuple(doc["thresholds"])))


def _bind_combiner(spec: CombinerSpec, stages: Sequence[Classifier],
                  error: type) -> TrainedCombiner:
    """The combiner that follows ``stages``, bound to the two of them it
    references; any other reference raises ``error``."""
    s = len(stages)
    if not all(isinstance(i, int) and 0 <= i < s
               for i in (spec.left, spec.right)):
        raise error(f"combiner at stage {s + 1} must reference earlier "
                    f"stages, got {spec.left} and {spec.right}")
    return TrainedCombiner(spec, stages[spec.left], stages[spec.right])


def take_rows(x, rows: np.ndarray):
    """``x[rows]`` for increasing row ids; ``x`` itself when they are all
    of its rows, so a step that passes every row on copies nothing."""
    return x if rows.size == x.shape[0] else x[rows]


def single_row(x):
    """One feature vector as a one-row batch: a sparse one-row matrix as
    it is, any other array-like as float64, a 1-D vector as one row."""
    if not sp.issparse(x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
    if x.ndim != 2 or x.shape[0] != 1:
        raise DataError("expected a single feature vector")
    return x


def fit_multistage(specs: Sequence[ClassifierSpec], thresholds: StageThresholds,
                   ds: Dataset, seed: int,
                   shared: Optional[dict] = None) -> MultistageModel:
    """Train every stage on the same dataset.

    Combiner stages are wired to the already-trained stages they reference
    (which must come earlier in the sequence).  Stage seeds are spawned from
    ``seed`` so results do not depend on training order.  ``shared`` is
    passed on to :func:`classifiers.fit`.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("at least one stage spec is required")
    if len(thresholds) != len(specs):
        raise ConfigError(f"{len(specs)} specs but {len(thresholds)} thresholds")
    children = np.random.SeedSequence(seed).spawn(len(specs))
    stages: list[Classifier] = []
    for s, spec in enumerate(specs):
        if isinstance(spec, CombinerSpec):
            stages.append(_bind_combiner(spec, stages, ConfigError))
        else:
            child_seed = int(children[s].generate_state(1)[0])
            stages.append(classifiers.fit(spec, ds, child_seed, shared))
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
        try:
            return cls([MultistageModel.from_dict(doc[k]) for k in keys[:-1]],
                       ClassStats.from_dict(doc["stats"]))
        except KeyError as exc:
            raise DataError(f"{cls.KIND} model document: missing key "
                            f"{exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"{cls.KIND} model document: {exc}") from None

    @classmethod
    def fit_plan(cls, stats: ClassStats,
                 thresholds: Optional[Mapping[str, StageThresholds]] = None,
                 seed: int = 0,
                 specs: Optional[Sequence[ClassifierSpec]] = None) -> list:
        """Per layer in ``LAYERS`` order, its view and the other arguments of
        its :func:`fit_multistage` call: the 3-stage recipe by default,
        thresholds by layer name (1.0 if absent), a seed spawned from
        ``seed``, and one ``shared`` dict, so an SMO problem is solved once."""
        cls.check_stats(stats)
        specs = list(specs) if specs is not None else default_stage_specs()
        thresholds = dict(thresholds or {})
        unknown = set(thresholds) - {name for name, _ in cls.LAYERS}
        if unknown:
            raise ConfigError(f"a {cls.KIND} model has no layer {min(unknown)!r}")
        seeds = np.random.SeedSequence(seed).spawn(len(cls.LAYERS))
        ones, shared = StageThresholds.ones(len(specs)), {}
        return [(make_view(stats, kind),
                 dict(specs=specs, thresholds=thresholds.get(name, ones),
                      seed=int(child.generate_state(1)[0]), shared=shared))
                for (name, kind), child in zip(cls.LAYERS, seeds)]
