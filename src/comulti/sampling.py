"""Preprocessing samplers: minority oversampling and biased undersampling.

The oversampler appends synthetic minority instances interpolated between a
minority instance and one of its nearest same-class neighbors; existing rows
are never touched.  The undersampler resamples the whole dataset with
replacement to a target size, weighting instances by the inverse of their
class count so the expected output distribution is balanced.  Both are pure
functions of (input, seed).  When both are used, oversampling runs first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import ORDINAL, ClassStats, Dataset, round_half_up
from .errors import DataError


@dataclass(frozen=True)
class SmoteConfig:
    """Nearest-neighbor oversampling parameters.

    ``rate`` is the number of synthetic instances per minority instance;
    fractional parts are rounded stochastically per instance.  Neighbors
    are the ``k_neighbors`` nearest same-class rows by unnormalized
    Euclidean distance on the raw encoded features.
    """

    k_neighbors: int = 5
    rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise DataError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.rate <= 0:
            raise DataError(f"rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class UndersampleConfig:
    """Resample-with-replacement parameters; fraction of |D| kept."""

    target_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_fraction <= 1.0:
            raise DataError(
                f"target_fraction must be in (0,1], got {self.target_fraction}"
            )


def _pairwise_sq_dists(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all row pairs of a dense array."""
    gram = a @ a.T
    sq = np.diag(gram).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return d2


def _dense_rows(x, rows: np.ndarray) -> np.ndarray:
    sub = x[rows]
    return sub.toarray() if sp.issparse(sub) else np.asarray(sub, dtype=np.float64)


def smote(ds: Dataset, stats: ClassStats, cfg: SmoteConfig) -> Dataset:
    """Append interpolated synthetic instances for every minority class.

    Each synthetic point is ``x + u * (n - x)`` for a uniform ``u`` in [0,1)
    and ``n`` drawn uniformly from the ``min(k_neighbors, class_size - 1)``
    nearest same-class neighbors of ``x`` (Euclidean distance on the raw
    encoded features).  Ordinal-coded features are rounded back to the
    nearest valid category code, which stays inside the seed pair's box.
    """
    if len(stats.labels) != ds.n_classes:
        raise DataError("stats do not describe this dataset's label space")
    if not stats.minority:
        raise DataError("no minority classes to oversample")
    rng = np.random.default_rng(cfg.seed)
    ordinal_cols = np.array(
        [j for j, f in enumerate(ds.schema.features) if f.kind == ORDINAL],
        dtype=np.intp,
    )

    synth_rows: list[np.ndarray] = []
    synth_y: list[int] = []
    for c in stats.minority:
        rows = np.nonzero(ds.y == c)[0]
        if rows.size < 2:
            raise DataError(
                f"minority class {ds.labels[c]!r} has {rows.size} instance(s); "
                "oversampling needs at least 2"
            )
        xc = _dense_rows(ds.x, rows)
        d2 = _pairwise_sq_dists(xc)
        np.fill_diagonal(d2, np.inf)
        k = min(cfg.k_neighbors, rows.size - 1)
        # Stable sort keeps neighbor ranking deterministic under distance ties.
        neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]

        base = int(np.floor(cfg.rate))
        frac = cfg.rate - base
        for i in range(rows.size):
            n_new = base + (1 if frac > 0 and rng.random() < frac else 0)
            for _ in range(n_new):
                j = neighbors[i, rng.integers(k)]
                u = rng.random()
                point = xc[i] + u * (xc[j] - xc[i])
                if ordinal_cols.size:
                    point[ordinal_cols] = np.rint(point[ordinal_cols])
                synth_rows.append(point)
                synth_y.append(c)

    if not synth_rows:
        return ds
    new_x = np.asarray(synth_rows, dtype=np.float64)
    if ds.is_sparse:
        x = sp.vstack([ds.x, sp.csr_matrix(new_x)], format="csr")
    else:
        x = np.vstack([ds.x, new_x])
    y = np.concatenate([ds.y, np.asarray(synth_y, dtype=np.int64)])
    return Dataset(ds.schema, x, y, ds.labels)


def undersample(ds: Dataset, stats: ClassStats, cfg: UndersampleConfig) -> Dataset:
    """Resample with replacement to ``round(target_fraction * |D|)`` rows,
    biased toward a balanced class distribution.

    An instance is drawn with probability proportional to the inverse of its
    class count: classes are picked uniformly, instances uniformly within a
    class, so small classes are retained (and repeated) while large ones are
    thinned.  Classes can in principle disappear at small fractions; that is
    inherent to sampling with replacement and is reported downstream.
    """
    if len(stats.labels) != ds.n_classes:
        raise DataError("stats do not describe this dataset's label space")
    if ds.n_instances == 0:
        raise DataError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    n_out = round_half_up(cfg.target_fraction * ds.n_instances)
    counts = ds.class_counts()
    present = counts > 0
    weights = 1.0 / (present.sum() * counts[ds.y])
    weights /= weights.sum()  # exact normalization against float drift
    picks = rng.choice(ds.n_instances, size=n_out, replace=True, p=weights)
    return ds.take(picks)
