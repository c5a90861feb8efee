"""Probabilistic base classifiers used as multistage stages."""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from ..dataset import Dataset, read_lines
from ..errors import DataError, TrainingError, reading
from .base import (
    ClassifierSpec,
    Classifier,
    CombinerSpec,
    ForestSpec,
    SmoSpec,
    combine_rows,
)
from .forest import TrainedForest, fit_forest
from .smo import TrainedSmo, fit_smo

__all__ = [
    "ClassifierSpec",
    "Classifier",
    "CombinerSpec",
    "ForestSpec",
    "SmoSpec",
    "TrainedForest",
    "TrainedSmo",
    "combine_rows",
    "default_stage_specs",
    "fit",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
]

MODEL_FORMAT_VERSION = 1


def default_stage_specs(forest: ForestSpec = ForestSpec(),
                        smo: SmoSpec = SmoSpec()) -> list[ClassifierSpec]:
    """The 3-stage recipe: forest, margin classifier, then the
    max-confidence combiner over the first two stages."""
    return [forest, smo, CombinerSpec(left=0, right=1)]


def fit(spec: ClassifierSpec, ds: Dataset, seed: int,
        shared: Optional[dict] = None) -> Classifier:
    """Train one classifier on a dataset; deterministic per (spec, ds, seed).

    ``shared`` carries work between fits on the same training matrix (see
    :func:`fit_smo`); it never changes what is fitted.
    """
    if ds.n_classes < 2:
        raise TrainingError("training needs at least 2 labels")
    counts = ds.class_counts()
    if (counts == 0).any():
        empty = [ds.labels[i] for i in np.nonzero(counts == 0)[0]]
        raise TrainingError(f"labels with zero training instances: {empty}")
    if isinstance(spec, ForestSpec):
        return fit_forest(spec, ds.x, ds.y, ds.labels, seed)
    if isinstance(spec, SmoSpec):
        return fit_smo(spec, ds.x, ds.y, ds.labels, seed, shared)
    if isinstance(spec, CombinerSpec):
        raise TrainingError(
            "the pair combiner reuses already-trained stages and can only be "
            "fitted inside a multistage ensemble"
        )
    raise TrainingError(f"unknown classifier spec {spec!r}")


def model_to_dict(model: Classifier) -> dict:
    """A forest or margin classifier as JSON.  A combiner has no form of
    its own: its multistage model saves it as a reference to two stages."""
    name = type(model).__name__
    if not isinstance(model, (TrainedForest, TrainedSmo)):
        raise DataError(f"model_to_dict saves a forest or a margin "
                        f"classifier, not a {name}"
                        + ("; use its to_dict()" if hasattr(model, "to_dict")
                           else ""))
    doc = model.to_dict()
    doc["format_version"] = MODEL_FORMAT_VERSION
    return doc


def model_from_dict(doc: dict) -> Classifier:
    """The model a document describes; a malformed one is a DataError that
    names its kind."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    with reading(f"{kind} model" if kind else "model"):
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {version!r}")
        if kind == "random_forest":
            return TrainedForest.from_dict(doc)
        if kind == "smo_margin":
            return TrainedSmo.from_dict(doc)
    raise DataError(f"unknown model kind {kind!r}")


def save_model(model: Classifier, path) -> None:
    """Dump a trained model as self-describing JSON; reloading reproduces
    predictions bit-exactly (floats round-trip through repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> Classifier:
    with reading(f"{path}: model"):
        return model_from_dict(json.loads("".join(read_lines(path))))
