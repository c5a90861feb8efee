"""Shared classifier plumbing: specs, the batch classifier base and
:func:`combine_rows`, the rule of a combiner stage.  A combiner has nothing
fitted, so a multistage model keeps its ``CombinerSpec`` as the stage.

Every trained model predicts over a fixed label space (the tuple of view
label names it was fitted on) and must be deterministic after training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class ForestSpec:
    """Bagged forest of CART-style trees grown to purity, Gini splits,
    ``floor(sqrt(n_features))`` random candidate features per split."""

    trees: int = 100

    def __post_init__(self):
        if not 1 <= self.trees < 2**63:  # numpy spawns no more tree seeds
            raise DataError(f"trees must be in [1, 2^63), got {self.trees}")


@dataclass(frozen=True)
class SmoSpec:
    """One-vs-rest margin classifier trained by sequential minimal
    optimization with a polynomial kernel ``(x . y + 1)^degree`` and
    per-class logistic (Platt) calibration of the decision scores."""

    degree: int = 1
    c: float = 1.0
    tol: float = 1e-3
    max_iter: int = 200_000

    def __post_init__(self):
        if self.degree < 1:
            raise DataError(f"degree must be >= 1, got {self.degree}")
        if self.c <= 0:
            raise DataError(f"c must be > 0, got {self.c}")
        if self.tol <= 0:
            raise DataError(f"tol must be > 0, got {self.tol}")
        if not 1 <= self.max_iter < 2**63:  # C's int64, which ctypes wraps
            raise DataError(f"max_iter must be in [1, 2^63), got "
                            f"{self.max_iter}")


@dataclass(frozen=True)
class CombinerSpec:
    """Max-confidence pair combiner over two earlier multistage stages
    (0-based stage indices); a stage of a multistage model, never fitted
    on its own."""

    left: int = 0
    right: int = 1

    def __post_init__(self):
        if self.left == self.right:
            raise DataError("combiner needs two distinct stages")


ClassifierSpec = Union[ForestSpec, SmoSpec, CombinerSpec]


class Classifier:
    """Base for trained models: a fixed label space plus batch prediction."""

    spec: ClassifierSpec
    space: tuple[str, ...]
    n_features: int

    @property
    def n_labels(self) -> int:
        return len(self.space)

    def _check_width(self, x) -> None:
        """A batch ``x`` must have the columns the model was fitted on."""
        if x.shape[1] != self.n_features:
            raise DataError(f"input has {x.shape[1]} features, model expects "
                            f"{self.n_features}")

    def predict_proba_batch(self, x) -> np.ndarray:
        raise NotImplementedError

    def predict_batch(self, x) -> np.ndarray:
        """Argmax labels for a batch; ties break toward the lowest id."""
        return np.argmax(self.predict_proba_batch(x), axis=1)


def combine_rows(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Row-wise max-confidence combination of two (n, k) probability
    arrays: each row keeps the more confident side, the first on ties."""
    keep_a = pa.max(axis=1) >= pb.max(axis=1)
    return np.where(keep_a[:, None], pa, pb)
