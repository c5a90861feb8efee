"""Dataset loading, encoding, stratified splitting and label-space views.

A :class:`Dataset` couples a feature matrix (dense ndarray or scipy CSR),
integer-coded labels and a feature schema.  Class skew is profiled by
:func:`class_stats`, which partitions labels into majority classes
(count strictly above ``total / n_classes``) and minority classes
(everything else, ties included).  :func:`make_view` / :func:`apply_view`
produce the relabeled views the co-multistage models train on.  ``full`` is
the identity; the other three follow one rule.  The cluster side (the
majority classes, or the minority for ``min_cluster``) maps to slot 0; the
other side maps to slot 1 for ``binary`` (majority vs minority), or to
slots 1.. in original order for ``maj_cluster`` and ``min_cluster``.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
import scipy.sparse as sp

from ._native import LIB, Csr, address
from .errors import DataError

# View kinds.
FULL = "full"
BINARY = "binary"
MAJ_CLUSTER = "maj_cluster"
MIN_CLUSTER = "min_cluster"
VIEW_KINDS = (FULL, BINARY, MAJ_CLUSTER, MIN_CLUSTER)

MAJORITY_CLUSTER_LABEL = "(majority)"
MINORITY_CLUSTER_LABEL = "(minority)"

NUMERIC = "numeric"
ORDINAL = "ordinal"


def round_half_up(x: float) -> int:
    """Round with .5 going up, independent of banker's rounding."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class FeatureSpec:
    """One feature: numeric, or ordinal-nominal with an ordered category list."""

    name: str
    kind: str = NUMERIC
    categories: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in (NUMERIC, ORDINAL):
            raise DataError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.kind == ORDINAL:
            if self.categories is None or len(self.categories) < 2:
                raise DataError(f"ordinal feature {self.name!r} needs >= 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"duplicate categories in feature {self.name!r}")
        elif self.categories is not None:
            raise DataError(f"numeric feature {self.name!r} must not list categories")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptions; names must be unique."""

    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def __len__(self) -> int:
        return len(self.features)

    @staticmethod
    def numeric(n: int) -> "FeatureSchema":
        """All-numeric schema with generated names ``f0``, ``f1``, ...,
        for matrix-only sources.  It is frozen, so one is built per ``n``
        and shared (the last 32 are kept)."""
        return _numeric_schema(n)


@functools.lru_cache(maxsize=32)
def _numeric_schema(n: int) -> FeatureSchema:
    return FeatureSchema(tuple(FeatureSpec(f"f{i}") for i in range(n)))


Matrix = Union[np.ndarray, sp.csr_matrix]


def freeze(x: Matrix) -> Matrix:
    """``x``, its arrays made read-only in place."""
    if sp.issparse(x):
        for buf in (x.data, x.indices, x.indptr):
            buf.setflags(write=False)
    else:
        x.setflags(write=False)
    return x


@dataclass(frozen=True)
class Dataset:
    """Instance-major feature matrix plus 0-based integer labels.

    ``x`` may be dense (float64) or sparse, kept as CSR whatever format it
    is given in; sparse stores explicit nonzeros only.  ``labels[y[i]]`` is the class name of instance ``i``.
    Instances are immutable after construction and safe to share.
    """

    schema: FeatureSchema
    x: Matrix
    y: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        if not sp.issparse(self.x):
            object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
        if self.x.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        if sp.issparse(self.x):
            # Checked once here, so every reader of the frozen arrays (row
            # subsets, SMOTE, the views and the fits) reads checked ones.
            try:
                object.__setattr__(self, "x", Csr(self.x).m)
            except ValueError as exc:
                raise DataError(str(exc)) from None
        x, y = self.x, self.y
        if x.shape[1] != len(self.schema):
            raise DataError(
                f"matrix has {x.shape[1]} columns, schema describes {len(self.schema)}"
            )
        if x.shape[0] != y.shape[0]:
            raise DataError(f"{x.shape[0]} rows vs {y.shape[0]} labels")
        if len(self.labels) != len(set(self.labels)):
            raise DataError("label names must be unique")
        if y.size and (y.min() < 0 or y.max() >= len(self.labels)):
            raise DataError("label id out of range")
        values = x.data if sp.issparse(x) else x
        if values.size and not np.isfinite(values).all():
            raise DataError("feature matrix contains NaN or infinity")
        freeze(x)
        y.setflags(write=False)

    @property
    def n_instances(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.x)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset (or resample, indices may repeat) preserving metadata."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.schema, self.x[idx], self.y[idx].copy(), self.labels)

    def equals(self, other: "Dataset") -> bool:
        """Instance-wise equality: same rows, labels and schema."""
        if self.labels != other.labels or self.schema != other.schema:
            return False
        if self.x.shape != other.x.shape or not np.array_equal(self.y, other.y):
            return False
        a, b = self.x, other.x
        if sp.issparse(a) != sp.issparse(b):
            return False
        if sp.issparse(a):
            diff = (a - b).tocsr()
            diff.eliminate_zeros()
            return diff.nnz == 0
        return np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Loading


def read_lines(path, newline=None):
    """Lines of a UTF-8 text file, read as they are consumed; an unreadable
    or undecodable file is a data error."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield from fh
    except OSError as exc:
        raise DataError(str(exc)) from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not valid UTF-8") from None


def csv_rows(path):
    """``(line, row)`` for each record of a UTF-8 CSV file, ``line`` the
    file line the record starts on: a quoted field may span lines, so it is
    the line after the previous record's last."""
    reader = csv.reader(read_lines(path, newline=""))
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def load_csv(path, label_column: str,
             schema: Optional[FeatureSchema] = None) -> Dataset:
    """Load a header-first CSV, encoding features per ``schema``.

    Without a schema, the feature columns are the header's other columns,
    in order: a column is numeric when every value parses as a number,
    otherwise ordinal-nominal with its categories in first-appearance order
    (a single category is an error).  Ordinal-nominal features are encoded
    as their category index; labels are collected in first-appearance
    order.  Blank lines are skipped.
    """
    reader = csv_rows(path)
    _, header = next(reader, (None, None))
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    wanted = {label_column} | set(header if schema is None else schema.names)
    missing = wanted - set(header)
    if missing:
        raise DataError(f"{path}: missing column(s) {sorted(missing)}")
    extra = set(header) - wanted
    if extra:
        raise DataError(f"{path}: unexpected column(s) {sorted(extra)}")
    rows: list[tuple[int, list[str]]] = []
    for lineno, row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
        rows.append((lineno, [v.strip() for v in row]))
    if not rows:
        raise DataError(f"{path}: no data rows")
    label_col = header.index(label_column)
    if schema is None:
        # Every cell is encoded as its column is inferred.
        inferred = [
            _infer_feature(path, header[j], [row[j] for _, row in rows])
            for j in range(len(header)) if j != label_col]
        schema = FeatureSchema(tuple(spec for spec, _ in inferred))
        x = np.empty((len(rows), len(schema)))
        for j, (_, values) in enumerate(inferred):
            x[:, j] = values
    else:
        feat_cols = [header.index(f.name) for f in schema.features]
        x = np.empty((len(rows), len(schema)))
        for i, (lineno, row) in enumerate(rows):
            for j, (spec, col) in enumerate(zip(schema.features, feat_cols)):
                raw = row[col]
                try:
                    x[i, j] = (spec.categories.index(raw)
                               if spec.kind == ORDINAL else float(raw))
                except ValueError:
                    what = ("unknown category" if spec.kind == ORDINAL
                            else "non-numeric value")
                    raise DataError(f"{path}:{lineno}: {what} {raw!r} "
                                    f"for feature {spec.name!r}") from None
    labels, y = first_appearance([row[label_col] for _, row in rows])
    return Dataset(schema, x, y, labels)


def first_appearance(values: list) -> tuple[tuple, np.ndarray]:
    """The distinct ``values`` in the order they first appear, and the
    index of each value among them (int64)."""
    ids: dict = {}
    codes = [ids.setdefault(v, len(ids)) for v in values]
    return tuple(ids), np.array(codes, dtype=np.int64)


def _infer_feature(path, name: str,
                   values: list[str]) -> tuple[FeatureSpec, np.ndarray]:
    """The feature a schema-less CSV column holds (see :func:`load_csv`),
    and the column's values encoded as that feature: each number, or each
    category's first-appearance index."""
    try:
        return FeatureSpec(name), np.array([float(v) for v in values])
    except ValueError:
        categories, codes = first_appearance(values)
        if len(categories) < 2:
            raise DataError(
                f"{path}: column {name!r} has a single category") from None
        return FeatureSpec(name, ORDINAL, categories), codes


def read_bytes(path) -> bytes:
    """A UTF-8 text file's bytes, read at once; an unreadable or undecodable
    file is the data error :func:`read_lines` gives."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(str(exc)) from None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: not valid UTF-8") from None
    return raw


# A line break of Python's universal newlines, as ``bytes.splitlines`` and
# the compiled row pass split lines.
_EOL = re.compile(rb"\r\n|\r|\n")
# The most columns a sparse file may declare: its column indices are int32.
_MAX_COLUMNS = np.iinfo(np.int32).max


def load_sparse(matrix_path, labels_path) -> Dataset:
    """Load the sparse text format: ``nrows ncols nnz`` header, then one line
    per row of whitespace-separated 1-based ``col value`` pairs (a blank
    line is a row with no nonzeros), with a companion labels file holding
    one label string per row.  Blank lines before the header and after the
    last row are ignored.  Columns and values are read as ``int()`` and
    ``float()`` read them."""
    raw = read_bytes(matrix_path)
    pos, (nrows, ncols, nnz) = _sparse_header(matrix_path, raw)
    data, indices, indptr = _sparse_rows(matrix_path, raw, pos, nrows, ncols,
                                         nnz)

    names = [ln.strip() for ln in read_lines(labels_path) if ln.strip() != ""]
    if len(names) != nrows:
        raise DataError(
            f"{labels_path}: {len(names)} labels for {nrows} matrix rows"
        )
    labels, y = first_appearance(names)
    x = sp.csr_matrix((data, indices, indptr), shape=(nrows, ncols))
    return Dataset(FeatureSchema.numeric(ncols), x, y, labels)


def _sparse_header(path, raw: bytes) -> tuple[int, tuple[int, int, int]]:
    """Where the rows of a sparse file start, after its first non-blank
    line, and the ``nrows ncols nnz`` that line holds."""
    pos, head = 0, []
    while not head and pos < len(raw):
        eol = _EOL.search(raw, pos)
        stop = eol.end() if eol else len(raw)
        head = raw[pos:stop].decode("utf-8").split()
        pos = stop
    if not head:
        raise DataError(f"{path}: empty file")
    if len(head) != 3:
        raise DataError(f"{path}: header must be 'nrows ncols nnz'")
    try:
        nrows, ncols, nnz = (int(v) for v in head)
    except ValueError:
        raise DataError(f"{path}: non-integer header field") from None
    if min(nrows, ncols, nnz) < 0:
        raise DataError(f"{path}: negative header field in "
                        f"'{nrows} {ncols} {nnz}'")
    if ncols > _MAX_COLUMNS:
        raise DataError(f"{path}: {ncols} columns in the header, above the "
                        f"{_MAX_COLUMNS} that int32 column indices hold")
    return pos, (nrows, ncols, nnz)


def _sparse_rows(path, raw: bytes, pos: int, nrows: int, ncols: int,
                 nnz: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR ``data``, ``indices`` and ``indptr`` of the rows from
    ``raw[pos:]``.  One compiled pass reads every row of plain ASCII pairs;
    :func:`_sparse_row` reads the rows it declines, and gives every error a
    row can have."""
    # Every line and every pair takes at least one byte, which bounds the
    # arrays whatever the header declares.
    body = len(raw) - pos
    lines = np.empty(min(nrows, body) + 1, dtype=np.intp)
    indptr = np.empty(lines.size, dtype=np.int64)
    indices = np.empty(min(nnz, body), dtype=np.int32)
    data = np.empty(indices.size)
    found = LIB.parse_sparse(
        raw, pos, len(raw), lines.size - 1, ncols, indices.size,
        *(address(a) for a in (lines, indptr, indices, data)))
    if found > nrows:  # blank lines after the last row are not rows
        tail = raw[lines[nrows]:].splitlines()
        while tail and not tail[-1].decode("utf-8").strip():
            tail.pop()
        found = nrows + len(tail)
    if found != nrows:
        raise DataError(f"{path}: header declares {nrows} rows, found {found}")

    # The pass negates the line start of each row it declines.
    declined = np.flatnonzero(lines[:-1] < 0)
    starts = np.where(lines < 0, ~lines, lines)
    parsed = [_sparse_row(path, r, ncols,
                          raw[starts[r]:starts[r + 1]].decode("utf-8"))
              for r in declined.tolist()]
    counts = [len(cols) for cols, _ in parsed]
    stored = int(indptr[-1])
    if stored + sum(counts) != nnz:
        raise DataError(f"{path}: header declares {nnz} nonzeros, "
                        f"found {stored + sum(counts)}")
    data, indices = data[:stored], indices[:stored]
    if parsed:
        at = np.repeat(indptr[declined], counts)
        indices = np.insert(indices, at, [c for cols, _ in parsed for c in cols])
        data = np.insert(data, at, [v for _, vals in parsed for v in vals])
        grown = np.zeros_like(indptr)
        grown[declined + 1] = counts
        indptr += np.cumsum(grown)
    return data, indices, indptr


def _sparse_row(path, r: int, ncols: int, line: str) -> tuple[list, list]:
    """The 0-based columns and the values of row ``r``, from its ``line``
    of the sparse text format; a malformed row is a data error."""
    parts = line.split()
    if len(parts) % 2 != 0:
        raise DataError(f"{path}: row {r + 1} has an odd token count")
    cols: list[int] = []
    vals: list[float] = []
    for c_tok, v_tok in zip(parts[::2], parts[1::2]):
        try:
            col = int(c_tok)
            val = float(v_tok)
        except ValueError:
            raise DataError(f"{path}: row {r + 1}: bad pair "
                            f"{c_tok!r} {v_tok!r}") from None
        if not 1 <= col <= ncols:
            raise DataError(
                f"{path}: row {r + 1}: column {col} out of range 1..{ncols}"
            )
        cols.append(col - 1)
        vals.append(val)
    return cols, vals


def write_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset back out as CSV (ordinal codes decoded to categories).
    A sparse dataset is densified one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.schema.names) + [label_column])
        for i in range(ds.n_instances):
            x = ds.x[i:i + 1].toarray()[0] if ds.is_sparse else ds.x[i]
            row = []
            for j, spec in enumerate(ds.schema.features):
                v = x[j]
                if spec.kind == ORDINAL:
                    row.append(spec.categories[int(round(v))])
                else:
                    row.append(repr(float(v)))
            row.append(ds.labels[ds.y[i]])
            writer.writerow(row)


def write_sparse(ds: Dataset, matrix_path, labels_path) -> None:
    """Write a dataset in the sparse text format (1-based column indices);
    a label that would not read back is a ``DataError``."""
    for label in ds.labels:
        if label != label.strip() or not label or set(label) & {"\n", "\r"}:
            raise DataError(f"{labels_path}: label {label!r} cannot be "
                            "written one per line and read back")
    csr = ds.x.tocsr() if ds.is_sparse else sp.csr_matrix(ds.x)
    with open(matrix_path, "w", encoding="utf-8") as fh:
        fh.write(f"{csr.shape[0]} {csr.shape[1]} {csr.nnz}\n")
        for i in range(csr.shape[0]):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            pairs = (
                f"{col + 1} {repr(float(val))}"
                for col, val in zip(csr.indices[lo:hi], csr.data[lo:hi])
            )
            fh.write(" ".join(pairs) + "\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for yi in ds.y:
            fh.write(ds.labels[yi] + "\n")


# ---------------------------------------------------------------------------
# Splitting and class statistics


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds spawned from ``seed``, so what each
    one seeds does not depend on the order the others are used in."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


def split_indices(
    ds: Dataset, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test row indices (sorted ascending, deterministic).

    Per class, ``round(train_fraction * count)`` rows go to train and the
    remainder to test, with at least one test row forced per class.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0,1), got {train_fraction}")
    counts = ds.class_counts()
    thin = [ds.labels[c] for c in np.nonzero(counts < 2)[0]]
    if thin:
        raise DataError(f"cannot stratify: class(es) with < 2 instances: {thin}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for c in range(ds.n_classes):
        rows = np.nonzero(ds.y == c)[0]
        rows = rows[rng.permutation(rows.size)]
        n_train = round_half_up(train_fraction * rows.size)
        if n_train >= rows.size:  # every class keeps >= 1 test instance
            n_train = rows.size - 1
        train_parts.append(rows[:n_train])
        test_parts.append(rows[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split into (train, test) datasets; see :func:`split_indices`."""
    train_idx, test_idx = split_indices(ds, train_fraction, seed)
    return ds.take(train_idx), ds.take(test_idx)


@dataclass(frozen=True)
class ClassStats:
    """Per-class counts and the majority classes; every other class is
    minority.  :func:`class_stats` makes a class majority iff its count
    strictly exceeds the balance point ``total / n_classes`` (ties are
    minority), unless an override names the majority classes."""

    labels: tuple[str, ...]
    counts: tuple[int, ...]
    majority: tuple[int, ...]

    def __post_init__(self):
        if not self.labels or len(self.counts) != len(self.labels):
            raise DataError(f"class statistics need labels and one count "
                            f"per label: {len(self.counts)} for "
                            f"{len(self.labels)}")
        bounds = (*self.majority[1:], self.n_classes)
        if not all(isinstance(a, int) and 0 <= a < b
                   for a, b in zip(self.majority, bounds)):
            raise DataError(f"majority {list(self.majority)} must be "
                            f"increasing ids of the {self.n_classes} labels")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @property
    def balance_point(self) -> float:
        return self.total / self.n_classes

    @property
    def minority(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.n_classes)
                     if c not in self.majority)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "counts": list(self.counts),
            "total": self.total,
            "n_classes": self.n_classes,
            "balance_point": self.balance_point,
            "majority": list(self.majority),
            "minority": list(self.minority),
        }

    @staticmethod
    def from_dict(doc: dict) -> "ClassStats":
        """``doc``'s labels, counts and majority; what else it stores must
        be what :meth:`to_dict` derives from them."""
        stats = ClassStats(tuple(doc["labels"]), tuple(doc["counts"]),
                           tuple(doc["majority"]))
        wrong = [key for key, value in stats.to_dict().items()
                 if doc[key] != value]
        if wrong:
            raise DataError(f"class statistics: stored {', '.join(wrong)} "
                            "disagree with the labels, counts and majority")
        return stats

    def describe(self) -> str:
        lines = [
            f"instances: {self.total}   classes: {self.n_classes}   "
            f"balance point: {self.balance_point:.2f}"
        ]
        for c in range(self.n_classes):
            side = "majority" if c in self.majority else "minority"
            share = 100.0 * self.counts[c] / self.total if self.total else 0.0
            lines.append(
                f"  [{c}] {self.labels[c]}: {self.counts[c]} ({share:.2f}%) {side}"
            )
        return "\n".join(lines)


def class_stats(
    ds: Dataset, override_majority: Optional[Iterable[Union[int, str]]] = None
) -> ClassStats:
    """Profile class skew; ``override_majority`` replaces the threshold rule."""
    if ds.n_instances == 0:
        raise DataError("empty dataset")
    counts = tuple(int(v) for v in ds.class_counts())
    if override_majority is not None:
        majority = set()
        for item in override_majority:
            if isinstance(item, str):
                if item not in ds.labels:
                    raise DataError(f"override references unknown label {item!r}")
                majority.add(ds.labels.index(item))
            else:
                if not 0 <= int(item) < ds.n_classes:
                    raise DataError(f"override references unknown label id {item}")
                majority.add(int(item))
    else:
        point = ClassStats(ds.labels, counts, ()).balance_point
        majority = {c for c, n in enumerate(counts) if n > point}
    return ClassStats(ds.labels, counts, tuple(sorted(majority)))


# ---------------------------------------------------------------------------
# Label-space views


@dataclass(frozen=True)
class LabelView:
    """A transformation of the label space: ``mapping[orig_id]`` is the
    view label id and ``view_labels`` names the view labels, cluster
    pseudo-label first (see :func:`make_view`)."""

    kind: str
    view_labels: tuple[str, ...]
    mapping: np.ndarray

    def __post_init__(self):
        self.mapping.setflags(write=False)


def make_view(stats: ClassStats, kind: str) -> LabelView:
    """Build a label view from class statistics.

    ``full`` is the identity.  Every other view needs at least one majority
    and one minority class, and follows one rule: the cluster side (the
    majority classes, or the minority for ``min_cluster``) maps to slot 0,
    and the other side to slot 1 for ``binary``, or to slots 1.. in original
    order for the cluster views.  The fixed slot order fixes argmax
    tie-breaking.
    """
    if kind not in VIEW_KINDS:
        raise DataError(f"unknown view kind {kind!r} (expected one of {VIEW_KINDS})")
    if kind == FULL:
        return LabelView(FULL, stats.labels,
                         np.arange(stats.n_classes, dtype=np.int64))
    if not (stats.majority and stats.minority):
        raise DataError(f"{kind} view needs at least one majority and one "
                        "minority class")
    if kind == MIN_CLUSTER:
        cluster, name, rest = stats.minority, MINORITY_CLUSTER_LABEL, stats.majority
    else:
        cluster, name, rest = stats.majority, MAJORITY_CLUSTER_LABEL, stats.minority
    mapping = np.empty(stats.n_classes, dtype=np.int64)
    mapping[list(cluster)] = 0
    if kind == BINARY:
        mapping[list(rest)] = 1
        return LabelView(kind, (name, MINORITY_CLUSTER_LABEL), mapping)
    mapping[list(rest)] = np.arange(1, len(rest) + 1)
    return LabelView(kind, (name, *(stats.labels[c] for c in rest)), mapping)


def apply_view(ds: Dataset, view: LabelView) -> Dataset:
    """Relabel a dataset through a view; features are shared, not copied."""
    if len(view.mapping) != ds.n_classes:
        raise DataError(
            f"view maps {len(view.mapping)} labels, dataset has {ds.n_classes}"
        )
    if view.kind == FULL:
        return ds
    return Dataset(ds.schema, ds.x, view.mapping[ds.y], view.view_labels)
