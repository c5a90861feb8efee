"""The sparse text loader against the pure-Python loader it replaced.

``load_sparse`` reads plain ASCII rows in one compiled pass and hands every
other row to its Python row parser.  ``reference_load_sparse`` below is the
earlier loader, which read every token with ``str.split``, ``int()`` and
``float()``.  On any file, the two must give bit-identical arrays and
labels, or the same error text.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from comulti.dataset import (
    Dataset,
    FeatureSchema,
    load_sparse,
    read_lines,
    write_sparse,
)
from comulti.datagen import gaussian_blobs
from comulti.errors import DataError

from test_bench_cli import SMALL_SIZES, mutated


def reference_load_sparse(matrix_path, labels_path) -> Dataset:
    """The loader as it was before the compiled row pass."""
    lines = [ln.strip() for ln in read_lines(matrix_path)]
    first = next((i for i, ln in enumerate(lines) if ln != ""), None)
    if first is None:
        raise DataError(f"{matrix_path}: empty file")
    lines = lines[first:]
    head = lines[0].split()
    if len(head) != 3:
        raise DataError(f"{matrix_path}: header must be 'nrows ncols nnz'")
    try:
        nrows, ncols, nnz = (int(v) for v in head)
    except ValueError:
        raise DataError(f"{matrix_path}: non-integer header field") from None
    if min(nrows, ncols, nnz) < 0:
        raise DataError(f"{matrix_path}: negative header field in "
                        f"'{nrows} {ncols} {nnz}'")
    while len(lines) - 1 > nrows and lines[-1] == "":
        lines.pop()
    if len(lines) - 1 != nrows:
        raise DataError(
            f"{matrix_path}: header declares {nrows} rows, found {len(lines) - 1}"
        )

    indptr = np.zeros(nrows + 1, dtype=np.int64)
    indices: list[int] = []
    data: list[float] = []
    for r, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) % 2 != 0:
            raise DataError(f"{matrix_path}: row {r + 1} has an odd token count")
        for c_tok, v_tok in zip(parts[::2], parts[1::2]):
            try:
                col = int(c_tok)
                val = float(v_tok)
            except ValueError:
                raise DataError(f"{matrix_path}: row {r + 1}: bad pair "
                                f"{c_tok!r} {v_tok!r}") from None
            if not 1 <= col <= ncols:
                raise DataError(
                    f"{matrix_path}: row {r + 1}: column {col} out of range 1..{ncols}"
                )
            indices.append(col - 1)
            data.append(val)
        indptr[r + 1] = len(indices)
    if len(data) != nnz:
        raise DataError(f"{matrix_path}: header declares {nnz} nonzeros, "
                        f"found {len(data)}")

    names = [ln.strip() for ln in read_lines(labels_path) if ln.strip() != ""]
    if len(names) != nrows:
        raise DataError(
            f"{labels_path}: {len(names)} labels for {nrows} matrix rows"
        )
    labels: list[str] = []
    label_ids: dict[str, int] = {}
    y = np.empty(nrows, dtype=np.int64)
    for i, name in enumerate(names):
        if name not in label_ids:
            label_ids[name] = len(labels)
            labels.append(name)
        y[i] = label_ids[name]

    x = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int32), indptr),
        shape=(nrows, ncols),
    )
    return Dataset(FeatureSchema.numeric(ncols), x, y, tuple(labels))


def outcome(load, matrix_path, labels_path):
    """What ``load`` makes of the files: every array's dtype and bytes, the
    shape, labels and schema, or the error it raises."""
    try:
        ds = load(matrix_path, labels_path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    arrays = (ds.x.data, ds.x.indices, ds.x.indptr, ds.y)
    return (type(ds.x).__name__, ds.x.shape, ds.labels, ds.schema,
            *((a.dtype.str, a.tobytes()) for a in arrays))


def same_outcome(matrix: bytes, labels: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        m, l = Path(tmp) / "m.sparse", Path(tmp) / "m.labels"
        m.write_bytes(matrix)
        l.write_bytes(labels)
        got = outcome(load_sparse, m, l)
        assert got == outcome(reference_load_sparse, m, l)
    return got


# Column and value tokens: spellings int() and float() read (underscores,
# signs, leading zeros, exponents, inf and nan, non-ASCII digits) and,
# rarely, ones they do not.  Hypothesis draws small integers most often, so
# a rare choice is one middle value of a range.
DIGITS = ["0123456789", "".join(chr(0xFF10 + d) for d in range(10)),
          "".join(chr(0x0660 + d) for d in range(10))]
GOOD_VALUES = ["1_0", "+3", "007", "1E0", ".5", "5.", "-0.0", "inf",
               "-Infinity", "nan", "１", "١", "1e400", "1e-400", "4.9e-324",
               "2.5e-320", "1" * 70, "0." + "3" * 68]
BAD_VALUES = ["1e", ".", "-", "0x10", "1,5", "1.0.0", "e5", "+-1", "1__0"]
SEPARATORS = [" ", "  ", "\t", " \t", "\x0c", "\u3000", "\xa0"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def rarely(draw) -> bool:
    return draw(st.integers(0, 9)) == 5


@st.composite
def column_tokens(draw, ncols: int) -> str:
    if rarely(draw):
        return draw(st.sampled_from(
            ["0", str(ncols + 1), "99999999999999999999", "1.0", "x"]))
    digits = draw(st.sampled_from(DIGITS))
    text = "".join(digits[int(d)] for d in str(draw(st.integers(1, ncols))))
    return draw(st.sampled_from([
        text, "0" * draw(st.integers(1, 3)) + text, "+" + text,
        text[:1] + "_" + text[1:] if len(text) > 1 else text]))


@st.composite
def value_tokens(draw) -> str:
    if rarely(draw):
        return draw(st.sampled_from(BAD_VALUES))
    return draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(
            lambda v: f"{v:.17e}"),
        st.sampled_from(GOOD_VALUES)))


@st.composite
def sparse_files(draw) -> tuple[bytes, bytes]:
    """A small sparse file and its labels, in mixed spellings, separators,
    line ends, blank lines and a BOM; the header usually tells the truth."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 12))
    sep = lambda: draw(st.sampled_from(SEPARATORS))  # noqa: E731
    rows, nnz = [], 0
    for _ in range(nrows):
        # A plain row is what write_sparse writes, for the compiled pass.
        plain = draw(st.booleans())
        pairs = []
        for _ in range(draw(st.integers(0, 3))):
            if plain:
                value = draw(st.floats(allow_nan=False, allow_infinity=False))
                pairs.append(f"{draw(st.integers(1, ncols))} {value!r}")
            else:
                pairs.append(draw(column_tokens(ncols)) + sep()
                             + draw(value_tokens()))
        nnz += len(pairs)
        text = (" " if plain else sep()).join(pairs)
        if draw(st.booleans()):
            text = sep() + text + sep()
        if pairs and rarely(draw):
            text += sep() + "3"  # an odd token count
        rows.append(text)
    header = [nrows, ncols, nnz]
    if rarely(draw):
        header[draw(st.integers(0, 2))] += draw(st.sampled_from([-1, 1]))
    lines = [""] * draw(st.integers(0, 2)) + [" ".join(map(str, header))] \
        + rows + [draw(st.sampled_from(["", " ", "\x0c", "\u3000"]))
                  for _ in range(draw(st.integers(0, 2)))]
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final line break
    text = "".join(ln + end for ln, end in zip(lines, ends))
    bom = "\ufeff" if rarely(draw) else ""
    n_labels = nrows + rarely(draw)
    labels = "".join(draw(st.sampled_from(["a", "b", " c "])) + "\n"
                     for _ in range(n_labels))
    return (bom + text).encode("utf-8"), labels.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(files=sparse_files())
def test_load_sparse_matches_reference_on_mixed_spellings(files):
    same_outcome(*files)


@pytest.fixture(scope="module")
def sparse_base():
    """A valid sparse file and its labels, as ``write_sparse`` writes them."""
    ds = gaussian_blobs(SMALL_SIZES, separation=4.0, seed=3)
    x = ds.x.copy()
    x[np.abs(x) < 1.0] = 0.0  # blank rows and short ones
    ds = Dataset(ds.schema, sp.csr_matrix(x), ds.y, ds.labels)
    with tempfile.TemporaryDirectory() as tmp:
        m, l = Path(tmp) / "d.sparse", Path(tmp) / "d.labels"
        write_sparse(ds, m, l)
        return m.read_bytes(), l.read_bytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_sparse_matches_reference_on_mutated_bytes(sparse_base, data):
    matrix, labels = sparse_base
    same_outcome(data.draw(mutated(matrix), label="matrix"), labels)


def test_load_sparse_reads_the_written_file_as_before(sparse_base):
    kind, shape, *_ = same_outcome(*sparse_base)
    assert kind == "csr_matrix" and shape[1] == 5


@pytest.mark.parametrize("row,error", [
    ("0 1.5", "row 1: column 0 out of range 1..3"),
    ("99999999999999999999 1.5",
     "row 1: column 99999999999999999999 out of range 1..3"),
    ("2 " + "1" * 70, None),
    ("2 0." + "7" * 68, None),
    ("2 1e400", "feature matrix contains NaN or infinity"),
    ("2 1e-400", None),
    ("2 4.9e-324 3 -2.5e-320", None),
    ("1 1e", "row 1: bad pair '1' '1e'"),
    ("2 0x10", "row 1: bad pair '2' '0x10'"),
    ("2\t1.5\x0c3 2", None),
    ("２ 1.5", None),
    ("2 1.5 3", "row 1 has an odd token count"),
])
def test_load_sparse_fixed_tokens(row, error):
    body = f"\n1 3 {len(row.split()) // 2}\r\n{row}\r\n\n".encode("utf-8")
    got = same_outcome(body, b"a\n")
    if error is None:
        assert got[0] == "csr_matrix"
    else:
        assert got[0] == "DataError" and got[1].endswith(error)


def test_load_sparse_declared_shape_bounds_nothing_it_allocates():
    # The header is trusted for the error text, never for the array sizes.
    got = same_outcome(b"1000000000000 3 1000000000000\n1 1.0\n", b"a\n")
    assert got[0] == "DataError"
    assert got[1].endswith("header declares 1000000000000 rows, found 1")


def test_load_sparse_errors_keep_their_order():
    # The row count before any row, the first bad row before a later one,
    # every row before the nonzero count, the matrix before the labels.
    cases = [(b"2 3 9\n1 x\n", "declares 2 rows, found 1"),
             (b"2 3 9\n1 1 0\n\xc2\xa01 x\n", "row 1 has an odd token count"),
             (b"2 3 9\n1 1\n4 1\n", "row 2: column 4 out of range 1..3"),
             (b"2 3 9\n1 1\n\x0c1 1\n", "declares 9 nonzeros, found 2")]
    for matrix, error in cases:
        got = same_outcome(matrix, b"only one label\n")
        assert got[0] == "DataError" and got[1].endswith(error)
    assert same_outcome(b"1 3 1\n1 1\n", b"")[1].endswith(
        "0 labels for 1 matrix rows")


def test_load_sparse_file_errors_match_read_lines(tmp_path):
    missing = tmp_path / "missing.sparse"
    assert outcome(load_sparse, missing, missing) \
        == outcome(reference_load_sparse, missing, missing)
    assert outcome(load_sparse, tmp_path, tmp_path) \
        == outcome(reference_load_sparse, tmp_path, tmp_path)
    got = same_outcome(b"1 3 1\n1 \xff\n", b"a\n")
    assert got[0] == "DataError" and got[1].endswith("not valid UTF-8")
