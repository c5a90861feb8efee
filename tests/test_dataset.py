import csv
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from comulti.dataset import (
    BINARY,
    FULL,
    MAJ_CLUSTER,
    MIN_CLUSTER,
    NUMERIC,
    ORDINAL,
    ClassStats,
    Dataset,
    FeatureSchema,
    FeatureSpec,
    apply_view,
    child_seeds,
    class_stats,
    first_appearance,
    load_csv,
    load_sparse,
    make_view,
    round_half_up,
    split,
    split_indices,
    write_csv,
    write_sparse,
)
from comulti.errors import DataError

from conftest import make_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CSV loading


def test_load_csv_single_numeric_row(tmp_path):
    p = write(tmp_path / "one.csv", "f,label\n3.5,a\n")
    schema = FeatureSchema((FeatureSpec("f"),))
    ds = load_csv(p, "label", schema)
    assert ds.x.shape == (1, 1)
    assert ds.x[0, 0] == 3.5
    assert ds.y.tolist() == [0]
    assert ds.labels == ("a",)


def test_load_csv_ordinal_encoding_and_label_order(tmp_path):
    p = write(tmp_path / "o.csv",
              "size,label\nbig,yes\nsmall,no\nmedium,yes\nsmall,maybe\n")
    schema = FeatureSchema(
        (FeatureSpec("size", "ordinal", ("small", "medium", "big")),))
    ds = load_csv(p, "label", schema)
    assert ds.x[:, 0].tolist() == [2.0, 0.0, 1.0, 0.0]
    # labels in first-appearance order
    assert ds.labels == ("yes", "no", "maybe")
    assert ds.y.tolist() == [0, 1, 0, 2]


def test_load_csv_column_order_independent(tmp_path):
    p = write(tmp_path / "r.csv", "label,f\nx,1.0\ny,2.0\n")
    ds = load_csv(p, "label", FeatureSchema((FeatureSpec("f"),)))
    assert ds.x[:, 0].tolist() == [1.0, 2.0]


@pytest.mark.parametrize("text,err", [
    ("", "empty"),
    ("f,label\n", "no data rows"),
    ("g,label\n1,a\n", "missing column"),
    ("f,label\nfoo,a\n", "non-numeric"),
])
def test_load_csv_errors(tmp_path, text, err):
    p = write(tmp_path / "bad.csv", text)
    with pytest.raises(DataError, match=err):
        load_csv(p, "label", FeatureSchema((FeatureSpec("f"),)))


def test_load_csv_unknown_category(tmp_path):
    p = write(tmp_path / "bad.csv", "size,label\nhuge,a\n")
    schema = FeatureSchema((FeatureSpec("size", "ordinal", ("small", "big")),))
    with pytest.raises(DataError, match="unknown category"):
        load_csv(p, "label", schema)


@pytest.mark.parametrize("last,err", [
    ("3,zz,p", "5: unknown category 'zz' for feature 'b'"),
    ("3,x", "5: expected 3 fields"),
])
def test_load_csv_errors_name_the_line_after_a_two_line_field(tmp_path,
                                                              last, err):
    # The quoted field of line 3 ends on line 4, so the last record starts
    # on line 5 of the file, not at record 4.
    p = write(tmp_path / "q.csv", f'a,b,label\n1,"x\ny",p\n2,x,q\n{last}\n')
    schema = FeatureSchema((FeatureSpec("a"),
                            FeatureSpec("b", ORDINAL, ("x\ny", "x"))))
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}:{err}')}$"):
        load_csv(p, "label", schema)


def test_csv_round_trip(tmp_path):
    schema = FeatureSchema((
        FeatureSpec("size", "ordinal", ("small", "big")),
        FeatureSpec("w"),
    ))
    ds = Dataset(schema, np.array([[0.0, 1.5], [1.0, -2.0]]),
                 np.array([0, 1]), ("a", "b"))
    p = tmp_path / "rt.csv"
    write_csv(ds, p, label_column="label")
    again = load_csv(p, "label", schema)
    assert again.equals(ds)


def test_sparse_csv_is_written_a_row_at_a_time(tmp_path):
    # The file is the one the dense rows give, duplicate entries summed,
    # and no dense copy of the whole matrix is made.
    rng = np.random.default_rng(3)
    n, width = 75, 2000
    x = sp.random(n, width, density=5 / width, format="csr",
                  random_state=rng)
    x.indices[1::5] = x.indices[::5]  # a column stored twice in a row
    y = rng.integers(0, 2, n)
    ds = Dataset(FeatureSchema.numeric(width), x, y, ("a", "b"))
    tracemalloc.start()
    try:
        write_csv(ds, tmp_path / "sparse.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * width * 8 / 2
    write_csv(Dataset(ds.schema, x.toarray(), y, ds.labels),
              tmp_path / "dense.csv")
    assert (tmp_path / "sparse.csv").read_bytes() \
        == (tmp_path / "dense.csv").read_bytes()


# ---------------------------------------------------------------------------
# Sparse loading


def test_load_sparse_trivial(tmp_path):
    m = write(tmp_path / "m.txt", "1 3 1\n2 5.0\n")
    l = write(tmp_path / "m.labels", "x\n")
    ds = load_sparse(m, l)
    assert ds.is_sparse
    assert ds.x.shape == (1, 3)
    assert ds.x[0, 1] == 5.0
    assert ds.x.nnz == 1
    assert ds.labels == ("x",)


def test_load_sparse_errors(tmp_path):
    l2 = write(tmp_path / "two.labels", "x\ny\n")
    l1 = write(tmp_path / "one.labels", "x\n")
    m = write(tmp_path / "m1.txt", "2 3 2\n1 1.0\n2 2.0\n")
    with pytest.raises(DataError, match="rows"):
        load_sparse(write(tmp_path / "short.txt", "2 3 1\n1 1.0\n"), l2)
    with pytest.raises(DataError, match="out of range"):
        load_sparse(write(tmp_path / "col.txt", "1 3 1\n4 1.0\n"), l1)
    with pytest.raises(DataError, match="labels for"):
        load_sparse(m, l1)
    with pytest.raises(DataError, match="nonzeros"):
        load_sparse(write(tmp_path / "nnz.txt", "1 3 2\n1 1.0\n"), l1)


@pytest.mark.parametrize("header,rows", [
    ("0 -5 0", ""), ("2 -1 0", "\n\n"), ("60 -5 240", ""),
    ("-1 20 240", ""), ("1 3 -1", "\n")])
def test_load_sparse_negative_header_field(tmp_path, header, rows):
    labels = write(tmp_path / "m.labels", "x\ny\n")
    matrix = write(tmp_path / "m.txt", f"{header}\n{rows}")
    with pytest.raises(DataError, match="negative header field"):
        load_sparse(matrix, labels)


def test_sparse_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    import scipy.sparse as sp
    x = sp.random(7, 5, density=0.4, random_state=1, format="csr")
    ds = Dataset(FeatureSchema.numeric(5), x.astype(np.float64),
                 rng.integers(0, 2, 7), ("a", "b"))
    write_sparse(ds, tmp_path / "m.txt", tmp_path / "m.labels")
    again = load_sparse(tmp_path / "m.txt", tmp_path / "m.labels")
    # values round-trip exactly; label ids are renumbered by first appearance
    diff = (again.x - ds.x).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0
    assert [again.labels[v] for v in again.y] == [ds.labels[v] for v in ds.y]


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "bsr", "dia", "lil",
                                 "dok"])
def test_sparse_dataset_is_kept_as_csr(fmt):
    x = sp.random(6, 5, density=0.5, random_state=2, format="csr")
    y, labels = np.array([0, 1] * 3), ("a", "b")
    ds = Dataset(FeatureSchema.numeric(5), x.asformat(fmt), y, labels)
    assert ds.x.format == "csr" and not ds.x.data.flags.writeable
    assert ds.equals(Dataset(FeatureSchema.numeric(5), x, y, labels))


def test_numeric_schema_is_built_once():
    assert FeatureSchema.numeric(7) is FeatureSchema.numeric(7)
    assert FeatureSchema.numeric(7).names == tuple(f"f{i}" for i in range(7))


# ---------------------------------------------------------------------------
# Round-trip properties: load -> write -> load keeps every row


# Label names survive both formats when they have no surrounding spaces and
# no line breaks; commas and quotes are quoted by the CSV writer.
LABEL_NAMES = st.text(alphabet="ab ,\"'_-", min_size=1, max_size=4) \
    .filter(lambda s: s == s.strip())
CATEGORIES = ("lo", "mid", "hi")


@st.composite
def datasets(draw, sparse: bool):
    """A small dataset of finite values (zeros common, so sparse rows may be
    empty); CSV datasets may lead with an ordinal feature."""
    n, width = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cells = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(allow_nan=False,
                                          allow_infinity=False)),
        min_size=n * width, max_size=n * width))
    x = np.array(cells, dtype=np.float64).reshape(n, width)
    features = [FeatureSpec(f"f{j}") for j in range(width)]
    if not sparse and draw(st.booleans()):
        codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        x = np.column_stack([np.array(codes, dtype=np.float64), x])
        features.insert(0, FeatureSpec("size", "ordinal", CATEGORIES))
    names = draw(st.lists(LABEL_NAMES, min_size=1, max_size=3, unique=True))
    y = draw(st.lists(st.integers(0, len(names) - 1), min_size=n,
                      max_size=n))
    return Dataset(FeatureSchema(tuple(features)),
                   sp.csr_matrix(x) if sparse else x, y, tuple(names))


def _row_labels(ds):
    return [ds.labels[v] for v in ds.y]


def _same_rows(a, b):
    """Same schema, bit-identical values and the same label on every row
    (label ids may be renumbered by first appearance)."""
    xa = a.x.toarray() if a.is_sparse else a.x
    xb = b.x.toarray() if b.is_sparse else b.x
    return (a.schema == b.schema and xa.tobytes() == xb.tobytes()
            and _row_labels(a) == _row_labels(b))


@settings(max_examples=40, deadline=None)
@given(ds=datasets(sparse=False))
def test_csv_round_trip_property(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_csv(ds, first)
        loaded = load_csv(first, "label", ds.schema)
        write_csv(loaded, second)
        again = load_csv(second, "label", ds.schema)
    assert _same_rows(loaded, ds)
    assert again.equals(loaded)


@settings(max_examples=40, deadline=None)
@given(ds=datasets(sparse=True))
def test_sparse_round_trip_property(ds):
    # Rows with no nonzeros are written as blank lines; the loader used to
    # drop them and reject the file's row count.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_sparse(ds, tmp / "a.txt", tmp / "a.labels")
        loaded = load_sparse(tmp / "a.txt", tmp / "a.labels")
        write_sparse(loaded, tmp / "b.txt", tmp / "b.labels")
        again = load_sparse(tmp / "b.txt", tmp / "b.labels")
    assert _same_rows(loaded, ds)
    assert again.equals(loaded)


def test_load_sparse_blank_lines_are_empty_rows(tmp_path):
    m = write(tmp_path / "m.txt", "\n3 2 1\n\n2 1.5\n\n\n\n")
    ds = load_sparse(m, write(tmp_path / "m.labels", "a\nb\na\n"))
    assert ds.x.toarray().tolist() == [[0.0, 0.0], [0.0, 1.5], [0.0, 0.0]]
    with pytest.raises(DataError, match="declares 2 rows, found 3"):
        load_sparse(write(tmp_path / "gap.txt", "2 2 2\n1 1.0\n\n2 1.0\n"),
                    write(tmp_path / "two.labels", "a\nb\n"))


# ---------------------------------------------------------------------------
# Splitting


def test_split_balanced_two_classes():
    ds = make_dataset(np.arange(10)[:, None], [0] * 5 + [1] * 5)
    tr, te = split(ds, 0.8, seed=0)
    assert tr.n_instances == 8 and te.n_instances == 2
    assert te.class_counts().tolist() == [1, 1]


def test_split_per_class_rounding_matches_oracle():
    # Class sizes shaped like a skewed 4-class benchmark; the oracle is the
    # stated rule: per class, round-half-up(fraction * count) to train.
    counts = (1210, 384, 69, 65)
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    ds = make_dataset(np.arange(y.size)[:, None], y)
    expected_train = sum(round_half_up(0.8 * c) for c in counts)
    assert expected_train == 1382
    tr, te = split(ds, 0.8, seed=3)
    assert tr.n_instances == expected_train
    assert te.n_instances == y.size - expected_train


def test_split_deterministic_and_partition():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.normal(size=(40, 3)), rng.integers(0, 3, 40))
    a = split_indices(ds, 0.7, seed=11)
    b = split_indices(ds, 0.7, seed=11)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    joined = np.sort(np.concatenate(a))
    assert np.array_equal(joined, np.arange(40))
    # different seed gives a different partition
    c = split_indices(ds, 0.7, seed=12)
    assert not np.array_equal(a[0], c[0])


def test_split_multiset_preserved():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng.integers(0, 4, size=(30, 2)), rng.integers(0, 2, 30))
    tr, te = split(ds, 0.5, seed=2)
    both = np.vstack([np.column_stack([tr.x, tr.y]),
                      np.column_stack([te.x, te.y])])
    orig = np.column_stack([ds.x, ds.y])
    assert np.array_equal(np.sort(both.view(), axis=0), np.sort(orig, axis=0))


def test_split_guarantees_test_instance_per_class():
    # round(0.8 * 2) == 2 would leave class 1 with no test row without the
    # adjustment
    ds = make_dataset(np.arange(12)[:, None], [0] * 10 + [1] * 2)
    tr, te = split(ds, 0.8, seed=0)
    assert (te.y == 1).sum() >= 1


def test_split_rejects_singleton_class():
    ds = make_dataset(np.arange(4)[:, None], [0, 0, 0, 1])
    with pytest.raises(DataError, match="< 2 instances"):
        split(ds, 0.8, seed=0)


# ---------------------------------------------------------------------------
# Class statistics


def test_class_stats_strict_majority_rule():
    ds = make_dataset(np.zeros((215, 1)), [0] * 150 + [1] * 35 + [2] * 30,
                      labels=("normal", "hypo", "hyper"))
    st = class_stats(ds)
    assert st.majority == (0,)
    assert st.minority == (1, 2)
    assert st.balance_point == pytest.approx(215 / 3)


def test_class_stats_exact_balance_is_all_minority():
    ds = make_dataset(np.zeros((15, 1)), [0] * 5 + [1] * 5 + [2] * 5)
    st = class_stats(ds)
    assert st.majority == ()
    assert st.minority == (0, 1, 2)


def test_class_stats_override():
    ds = make_dataset(np.zeros((6, 1)), [0, 0, 0, 1, 1, 2],
                      labels=("a", "b", "c"))
    st = class_stats(ds, override_majority=("b", "c"))
    assert st.majority == (1, 2)
    st2 = class_stats(ds, override_majority=[2])
    assert st2.majority == (2,)
    with pytest.raises(DataError, match="unknown label"):
        class_stats(ds, override_majority=("nope",))


def test_class_stats_permutation_invariant():
    rng = np.random.default_rng(0)
    y = np.array([0] * 9 + [1] * 2 + [2] * 1)
    ds1 = make_dataset(np.zeros((12, 1)), y)
    ds2 = make_dataset(np.zeros((12, 1)), y[rng.permutation(12)])
    assert class_stats(ds1).majority == class_stats(ds2).majority


# ---------------------------------------------------------------------------
# Views


def _stats(counts, labels=None):
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    ds = make_dataset(np.zeros((y.size, 1)), y, labels=labels)
    return ds, class_stats(ds)


def test_make_view_sizes_for_multi_skew():
    # 4 majority + 13 minority classes
    counts = [500, 390, 360, 190] + [40] * 13
    _, st = _stats(counts)
    assert len(st.majority) == 4 and len(st.minority) == 13
    maj = make_view(st, MAJ_CLUSTER)
    assert len(maj.view_labels) == 1 + 13
    assert (maj.mapping[list(st.majority)] == 0).all()
    mini = make_view(st, MIN_CLUSTER)
    assert len(mini.view_labels) == 1 + 4
    assert (mini.mapping[list(st.minority)] == 0).all()
    binv = make_view(st, BINARY)
    assert len(binv.view_labels) == 2


def test_full_view_is_identity():
    ds, st = _stats([6, 2, 2])
    view = make_view(st, FULL)
    assert view.view_labels == st.labels
    assert np.array_equal(view.mapping, np.arange(3))
    assert apply_view(ds, view).equals(ds)


def test_binary_view_mapping_and_order():
    ds, st = _stats([8, 2, 2], labels=("big", "s1", "s2"))
    view = make_view(st, BINARY)
    assert view.view_labels == ("(majority)", "(minority)")
    out = apply_view(ds, view)
    assert out.labels == view.view_labels
    assert (out.y == 0).sum() == 8 and (out.y == 1).sum() == 4
    assert out.x is ds.x  # features shared, not copied


def test_cluster_view_counts_add_up():
    ds, st = _stats([9, 5, 5, 2, 1])
    for kind in (BINARY, MAJ_CLUSTER, MIN_CLUSTER, FULL):
        view = make_view(st, kind)
        out = apply_view(ds, view)
        for v in range(len(view.view_labels)):
            members = np.nonzero(view.mapping == v)[0]
            expect = sum(st.counts[c] for c in members)
            assert (out.y == v).sum() == expect


def test_maj_cluster_groups_all_majorities():
    counts = [300, 280, 30, 20, 10]
    ds, st = _stats(counts)
    assert st.majority == (0, 1)
    out = apply_view(ds, make_view(st, MAJ_CLUSTER))
    assert (out.y == 0).sum() == 580


def test_make_view_preconditions():
    _, st = _stats([5, 5, 5])  # no majority
    for kind in (BINARY, MAJ_CLUSTER, MIN_CLUSTER):
        with pytest.raises(DataError):
            make_view(st, kind)
    with pytest.raises(DataError, match="unknown view kind"):
        make_view(st, "sideways")
    ds, _ = _stats([9, 1, 8])
    no_minority = class_stats(ds, override_majority=[0, 1, 2])
    for kind in (BINARY, MAJ_CLUSTER, MIN_CLUSTER):
        with pytest.raises(DataError):
            make_view(no_minority, kind)
    assert make_view(no_minority, FULL).view_labels == ("c0", "c1", "c2")


def test_views_golden_on_interleaved_sides():
    # Majority classes 0, 2 and 4 alternate with minority classes 1, 3, 5.
    _, st = _stats([9, 1, 8, 1, 7, 1])
    assert st.majority == (0, 2, 4) and st.minority == (1, 3, 5)
    golden = {
        FULL: (("c0", "c1", "c2", "c3", "c4", "c5"), [0, 1, 2, 3, 4, 5]),
        BINARY: (("(majority)", "(minority)"), [0, 1, 0, 1, 0, 1]),
        MAJ_CLUSTER: (("(majority)", "c1", "c3", "c5"), [0, 1, 0, 2, 0, 3]),
        MIN_CLUSTER: (("(minority)", "c0", "c2", "c4"), [1, 0, 2, 0, 3, 0]),
    }
    for kind, (labels, mapping) in golden.items():
        view = make_view(st, kind)
        assert view.kind == kind
        assert view.view_labels == labels
        assert view.mapping.dtype == np.int64
        assert view.mapping.tolist() == mapping


def test_dataset_rejects_nan_and_shape_mismatch():
    with pytest.raises(DataError, match="NaN"):
        make_dataset([[np.nan]], [0])
    with pytest.raises(DataError, match="rows"):
        Dataset(FeatureSchema.numeric(1), np.zeros((2, 1)), np.array([0]),
                ("a",))


def test_dataset_equals_tells_each_difference():
    x = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    ds = make_dataset(x, [0, 1, 0])
    csr = Dataset(ds.schema, sp.csr_matrix(x), ds.y, ds.labels)
    assert ds.equals(make_dataset(x.copy(), [0, 1, 0]))
    assert csr.equals(Dataset(ds.schema, sp.csr_matrix(x), ds.y, ds.labels))
    renamed = FeatureSchema((FeatureSpec("p"), FeatureSpec("q")))
    moved = sp.csr_matrix(x)
    moved.data = moved.data + 1.0  # the same pattern, other values
    others = {
        "labels": make_dataset(x, [0, 1, 0], labels=("a", "b")),
        "schema": make_dataset(x, [0, 1, 0], schema=renamed),
        "shape": make_dataset(x[:2], [0, 1]),
        "y": make_dataset(x, [1, 0, 0]),
        "sparse against dense": csr,
    }
    for what, other in others.items():
        assert not ds.equals(other), what
        assert not other.equals(ds), what
    assert not csr.equals(Dataset(ds.schema, moved, ds.y, ds.labels))


def test_child_seeds_are_spawned_children():
    # The seeds of a run's sampling and fit, and of each layer and stage.
    spawned = [int(c.generate_state(1)[0])
               for c in np.random.SeedSequence(7).spawn(4)]
    assert child_seeds(7, 4) == spawned
    assert child_seeds(7, 2) == spawned[:2] and child_seeds(7, 0) == []


def test_first_appearance_orders_and_codes():
    values, codes = first_appearance(["b", "a", "b", "c", "a"])
    assert values == ("b", "a", "c")
    assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 0, 2, 1]
    values, codes = first_appearance([])
    assert values == () and codes.dtype == np.int64 and codes.size == 0


def test_class_stats_derives_its_partition():
    ds = make_dataset(np.zeros((7, 1)), [0, 0, 0, 1, 2, 2, 1])
    st = class_stats(ds)
    assert (st.counts, st.majority) == ((3, 2, 2), (0,))
    assert (st.total, st.n_classes, st.minority) == (7, 3, (1, 2))
    assert st.balance_point == 7 / 3
    doc = st.to_dict()
    assert list(doc) == ["labels", "counts", "total", "n_classes",
                         "balance_point", "majority", "minority"]
    assert ClassStats.from_dict(doc) == st
    assert class_stats(ds, ["c2", 1]).to_dict() == {
        **doc, "majority": [1, 2], "minority": [0]}


def _stats_doc(**edits):
    doc = class_stats(make_dataset(np.zeros((6, 1)), [0, 0, 0, 1, 1, 2])
                      ).to_dict()
    return {**doc, **edits}


def _field_over_the_limit(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("a,label\n" + "1" * (csv.field_size_limit() + 1)
                    + ",x\n")
    return load_csv(path, "label")


def _unexpected_column(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("a,b,label\n1,2,x\n3,4,y\n")
    return load_csv(path, "label", FeatureSchema((FeatureSpec("a"),)))


def _three_class_view_on_two_classes(tmp_path):
    three = make_dataset(np.zeros((4, 1)), [0, 0, 1, 2])
    two = make_dataset(np.zeros((2, 1)), [0, 1])
    return apply_view(two, make_view(class_stats(three), BINARY))


_ONE_COLUMN = FeatureSchema.numeric(1)

# Every refusal of the data layer: what is refused, and the message.
DATA_REFUSALS = {
    "unknown-kind": (lambda t: FeatureSpec("f", "text"),
                     "unknown feature kind 'text' for 'f'"),
    "one-category": (lambda t: FeatureSpec("f", ORDINAL, ("x",)),
                     "ordinal feature 'f' needs >= 2 categories"),
    "no-categories": (lambda t: FeatureSpec("f", ORDINAL),
                      "ordinal feature 'f' needs >= 2 categories"),
    "duplicate-categories": (
        lambda t: FeatureSpec("f", ORDINAL, ("x", "y", "x")),
        "duplicate categories in feature 'f'"),
    "numeric-categories": (lambda t: FeatureSpec("f", NUMERIC, ("x", "y")),
                           "numeric feature 'f' must not list categories"),
    "duplicate-features": (
        lambda t: FeatureSchema((FeatureSpec("f"), FeatureSpec("f"))),
        "feature names must be unique"),
    "not-2d": (lambda t: Dataset(_ONE_COLUMN, np.zeros(3), [0, 0, 0], ("a",)),
               "feature matrix must be 2-D"),
    "schema-width": (
        lambda t: Dataset(FeatureSchema.numeric(3), np.zeros((2, 2)), [0, 0],
                          ("a",)),
        "matrix has 2 columns, schema describes 3"),
    "duplicate-labels": (
        lambda t: Dataset(_ONE_COLUMN, np.zeros((2, 1)), [0, 1], ("a", "a")),
        "label names must be unique"),
    "label-id": (
        lambda t: Dataset(_ONE_COLUMN, np.zeros((2, 1)), [0, 2], ("a", "b")),
        "label id out of range"),
    "csv-field-limit": (_field_over_the_limit, "wide.csv: field larger than "
                                               "field limit"),
    "csv-extra-column": (_unexpected_column,
                         r"extra.csv: unexpected column\(s\) \['b'\]"),
    "split-fraction": (
        lambda t: split_indices(make_dataset(np.zeros((4, 1)), [0, 0, 1, 1]),
                                1.0, 0),
        r"train_fraction must be in \(0,1\), got 1.0"),
    "stats-empty": (
        lambda t: class_stats(Dataset(_ONE_COLUMN, np.zeros((0, 1)), [],
                                      ("a",))),
        "empty dataset"),
    "stats-unknown-id": (
        lambda t: class_stats(make_dataset(np.zeros((2, 1)), [0, 1]), [2]),
        "override references unknown label id 2"),
    "view-size": (_three_class_view_on_two_classes,
                  "view maps 3 labels, dataset has 2"),
    "stats-count-per-label": (
        lambda t: ClassStats(("a", "b"), (1,), ()),
        "need labels and one count per label: 1 for 2"),
    "stats-no-label": (lambda t: ClassStats((), (), ()),
                       "need labels and one count per label: 0 for 0"),
    "stats-majority-order": (lambda t: ClassStats(("a", "b"), (2, 1), (1, 0)),
                             r"majority \[1, 0\] must be increasing ids of "
                             "the 2 labels"),
    "stats-majority-twice": (lambda t: ClassStats(("a", "b"), (2, 1), (0, 0)),
                             "must be increasing ids of the 2 labels"),
    "stats-majority-range": (lambda t: ClassStats(("a", "b"), (2, 1), (2,)),
                             "must be increasing ids of the 2 labels"),
    "stats-majority-float": (lambda t: ClassStats(("a", "b"), (2, 1), (0.0,)),
                             "must be increasing ids of the 2 labels"),
    "stored-total": (lambda t: ClassStats.from_dict(_stats_doc(total=7)),
                     "^class statistics: stored total disagree"),
    "stored-sides": (
        lambda t: ClassStats.from_dict(_stats_doc(n_classes=2,
                                                  minority=[2])),
        "^class statistics: stored n_classes, minority disagree"),
    "stored-balance-point": (
        lambda t: ClassStats.from_dict(_stats_doc(balance_point=2.5)),
        "stored balance_point disagree"),
}


@pytest.mark.parametrize("case", sorted(DATA_REFUSALS))
def test_data_layer_refusals(case, tmp_path):
    make, message = DATA_REFUSALS[case]
    with pytest.raises(DataError, match=message):
        make(tmp_path)
