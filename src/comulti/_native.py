"""The package's compiled loops, built at import.

``_native.c``, next to this module, holds the loops that run in C and
nothing else (no Python API); its header lists them.  This module imports
nothing from the package, so the data layer and the classifiers alike
call the loops through it, along with :class:`Csr`, the checked form in
which they read a sparse matrix.  At import the file is compiled with
``cc`` and :data:`CFLAGS` into :data:`LIBRARY`, in the package's
``__pycache__/``, under a file name that carries the SHA-256 of the
source and the flags: later imports load that file without compiling, and
an edited source gets a file of its own.  The library is loaded with
``ctypes.CDLL``, which releases the GIL for each call, so grid threads
solve, multiply, grow and predict at the same time.  A missing or failing
compiler is an ``ImportError``; there is no Python copy of any loop.  The
flags keep the bits of the numpy and scipy forms:
``-ffp-contract=off`` stops the compiler from fusing a multiply and an add
into one FMA instruction, which rounds once where numpy and scipy round
twice (the default contracts wherever the target has FMA, as on aarch64),
and without ``-ffast-math`` or ``-march=native`` the compiler may neither
reassociate operations nor choose instructions per machine.  The one
choice per machine is made at run time: the SMO solver's AVX2 passes,
built for that target alone, run where :data:`SMO_AVX2` says the CPU has
it, and give the bits of the scalar passes.
``-falign-functions=64`` starts each function on its own cache line, so an
edit to one function does not shift where the others start.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse as sp

SOURCE = Path(__file__).with_name("_native.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off",
          "-falign-functions=64")
_TAG = hashlib.sha256(SOURCE.read_bytes() + " ".join(CFLAGS).encode())
LIBRARY = SOURCE.parent / "__pycache__" / f"_native-{_TAG.hexdigest()}.so"


class ForestTable(ctypes.Structure):
    """``struct forest_table``: a forest's sizes, the first record of each
    tree (``intp``) and the address of its records (``forest.NODE``).  It
    holds raw pointers, so its owner keeps the arrays alive and is never
    copied with it."""

    _fields_ = [("n_trees", ctypes.c_ssize_t),
                ("n_features", ctypes.c_ssize_t),
                ("n_labels", ctypes.c_ssize_t),
                ("roots", ctypes.c_void_p),
                ("nodes", ctypes.c_void_p)]


_NO_BYTES = ctypes.c_char * 0


def address(a: np.ndarray) -> int:
    """The address of ``a``'s first element.  A writable C-contiguous
    array's is read through the buffer protocol, in half the time of
    ``a.ctypes.data`` (1.3-2.2 us), which counts on the paths of a one-row
    prediction; any other array's through ``a.ctypes``."""
    flags = a.flags
    if flags.writeable and flags.c_contiguous:
        return ctypes.addressof(_NO_BYTES.from_buffer(a))
    return a.ctypes.data


class Csr:
    """A sparse matrix of any scipy format, ``m`` in CSR, and its arrays as
    the compiled loops read them: one intp ``index`` holding the n_rows + 1
    row pointers and then the column indices, and float64 ``data``; ``at``
    is the addresses of the row pointers, the indices and the values.  C
    and scipy's conversions trust the arrays, so they are checked first (a
    ``ValueError``): a CSC matrix's as the CSR arrays of its transpose, a
    COO matrix's row and column indices against its shape (other formats
    convert unchecked), then the CSR arrays by ``csr_check``: the row
    pointers start at 0, never decrease and end within the stored entries,
    and every index is a column.  ``csr[rows]`` is a ``Csr``, checked alike."""

    __slots__ = ("m", "shape", "index", "data", "at")

    def __init__(self, m):
        if m.format == "csc":
            try:
                Csr(m.T)
            except ValueError:
                raise ValueError("malformed CSC matrix: indptr or indices "
                                 "out of range") from None
        elif m.format == "coo":
            for index, size in zip((m.row, m.col), m.shape):
                if index.size and not 0 <= index.min() <= index.max() < size:
                    raise ValueError("malformed COO matrix: row or col out "
                                     "of range")
        self.m = m = m.tocsr()
        n_rows, n_cols = self.shape = m.shape
        ptr = m.indptr
        self.index = np.concatenate((ptr, m.indices), dtype=np.intp)
        self.data = np.asarray(m.data, dtype=np.float64)
        start = address(self.index)
        self.at = (start, start + ptr.size * self.index.itemsize,
                   address(self.data))
        nnz = min(self.index.size - ptr.size, self.data.size)
        if ptr.shape != (n_rows + 1,) \
                or LIB.csr_check(n_rows, n_cols, nnz, *self.at[:2]):
            raise ValueError("malformed CSR matrix: indptr or indices out "
                             "of range")

    def __getitem__(self, rows) -> "Csr":
        return Csr(self.m[rows])

    @classmethod
    def transposed(cls, b) -> "Csr":
        """``b.T`` as the right operand of ``sparse_product``: its checked
        ``index`` and ``data`` alone, with ``m`` None, so that scipy's int32
        index arrays of the conversion are not kept beside ``index``."""
        bt = cls(b.T)
        bt.m = None
        return bt


def csr_rows(x):
    """A batch as the layers read it: a scipy matrix as its ``Csr``,
    converted and checked once, where a model takes the batch in; anything
    else (a ``Csr``, a dense array) as it is."""
    return Csr(x) if sp.issparse(x) else x


def _compile(cmd: list) -> Optional[str]:
    """Run the compiler; the first line of what went wrong, or None."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:  # no compiler
        return str(exc)
    if done.returncode == 0:
        return None
    lines = done.stderr.strip().splitlines()
    return lines[0] if lines else f"exit status {done.returncode}"


def _load_library() -> ctypes.CDLL:
    """Compile ``_native.c`` once per source and flags, then load it."""
    if not LIBRARY.is_file():
        LIBRARY.parent.mkdir(exist_ok=True)
        # Built under a name of its own, then renamed: a process that
        # imports at the same time sees no library or a whole one.
        fd, tmp = tempfile.mkstemp(prefix="_native-", suffix=".tmp",
                                   dir=LIBRARY.parent)
        os.close(fd)
        cmd = ["cc", *CFLAGS, "-o", tmp, str(SOURCE)]
        try:
            error = _compile(cmd)
            if error is not None:
                raise ImportError(f"{' '.join(cmd)}: {error}")
            os.replace(tmp, LIBRARY)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(LIBRARY))
    ptr, f64, i64, size = (ctypes.c_void_p, ctypes.c_double,
                            ctypes.c_longlong, ctypes.c_ssize_t)
    lib.smo_solve.restype = ctypes.c_int
    lib.smo_solve.argtypes = [
        size, ptr, ptr, ptr, ptr,  # n, y, neg_y, diag, table
        ptr, f64, f64, i64,  # slot, c, tol, max_iter
        ptr, ptr, ptr, ptr, ptr,  # alpha, grad, up, low, yg
        ctypes.POINTER(f64), ctypes.POINTER(i64), ptr,  # gap, iterations, want
        ctypes.c_int]  # avx2
    lib.smo_avx2.restype = ctypes.c_int
    lib.smo_avx2.argtypes = []
    lib.sparse_product.restype = None
    lib.sparse_product.argtypes = [  # n_rows, n_out, A, bt, out
        size, size, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.grow_tree.restype = size
    lib.grow_tree.argtypes = [  # 4 sizes, values .. y, rng, n, boot, nodes
        size, size, size, size, ptr, ptr, ptr, ptr, ptr, size, ptr, ptr]
    lib.forest_counts.restype = None
    lib.forest_counts.argtypes = [  # indptr, indices, x, row, counts
        ctypes.POINTER(ForestTable), size, ptr, ptr, ptr, ptr, ptr]
    lib.csr_check.restype = ctypes.c_int
    lib.csr_check.argtypes = [  # n_rows, n_cols, nnz, indptr, indices
        size, size, size, ptr, ptr]
    lib.parse_sparse.restype = size
    lib.parse_sparse.argtypes = [  # text, start, size, n_rows, n_cols, cap,
        ctypes.c_char_p, size, size, size, size, size,
        ptr, ptr, ptr, ptr]  # lines, indptr, indices, data
    return lib


LIB = _load_library()
# 1 when this CPU runs smo_solve's two row passes 4 rows at a time (AVX2 on
# x86-64), which picks as the scalar passes pick, to the bit; the solver
# passes it to every smo_solve call.
SMO_AVX2 = LIB.smo_avx2()
