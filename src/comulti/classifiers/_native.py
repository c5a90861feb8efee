"""The package's compiled loops, built at import.

``_native.c``, next to this module, holds the loops that run in C and
nothing else (no Python API): the SMO working-pair loop of
:func:`comulti.classifiers.smo.solve_binary`, the tree grower of
:func:`comulti.classifiers.forest.fit_forest` and the forest walk of
:meth:`comulti.classifiers.forest.TrainedForest.predict_proba_batch`.  At
import it is compiled with ``cc -O2 -shared -fPIC -ffp-contract=off`` into
this package's ``__pycache__/``, under a file name that carries the SHA-256
of the source and the flags: later imports load that file without
compiling, and an edited source gets a file of its own.  The library is
loaded with ``ctypes.CDLL``, which releases the GIL for each call, so grid
threads solve, grow and predict at the same time.  A missing or failing
compiler is an ``ImportError``; there is no Python copy of any loop.  The
flags keep the bits of the numpy form: ``-ffp-contract=off`` stops the
compiler from fusing a multiply and an add into one FMA instruction, which
rounds once where numpy rounds twice (the default contracts wherever the
target has FMA, as on aarch64), and without ``-ffast-math`` or
``-march=native`` the compiler may neither reassociate operations nor
choose instructions per machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

SOURCE = Path(__file__).with_name("_native.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# smo_solve's kernel column callback (smo_column_fn).
COLUMN_FN = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_ssize_t)


class ForestTable(ctypes.Structure):
    """``struct forest_table``: a packed forest's sizes and the addresses
    of its node arrays (``intp``, ``threshold`` float64).  It holds raw
    pointers, so its owner keeps the arrays alive and is never copied with
    it."""

    _fields_ = [("n_trees", ctypes.c_ssize_t),
                ("n_features", ctypes.c_ssize_t),
                ("n_labels", ctypes.c_ssize_t),
                ("roots", ctypes.c_void_p),
                ("feature", ctypes.c_void_p),
                ("left", ctypes.c_void_p),
                ("right", ctypes.c_void_p),
                ("vote", ctypes.c_void_p),
                ("threshold", ctypes.c_void_p)]


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
    tag = hashlib.sha256(SOURCE.read_bytes()
                         + " ".join(CFLAGS).encode()).hexdigest()
    cache = SOURCE.parent / "__pycache__"
    target = cache / f"_native-{tag}.so"
    if not target.is_file():
        cache.mkdir(exist_ok=True)
        # Built under a name of its own, then renamed: a process that
        # imports at the same time sees no library or a whole one.
        fd, tmp = tempfile.mkstemp(prefix="_native-", suffix=".tmp",
                                   dir=cache)
        os.close(fd)
        cmd = ["cc", *CFLAGS, "-o", tmp, str(SOURCE)]
        try:
            error = _compile(cmd)
            if error is not None:
                raise ImportError(f"{' '.join(cmd)}: {error}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(target))
    ptr, f64, i64, size = (ctypes.c_void_p, ctypes.c_double,
                            ctypes.c_longlong, ctypes.c_ssize_t)
    lib.smo_solve.restype = ctypes.c_int
    lib.smo_solve.argtypes = [
        ctypes.c_ssize_t, ptr, ptr, ptr, ptr,  # n, y, neg_y, diag, gram
        COLUMN_FN, f64, f64, i64,  # column, c, tol, max_iter
        ptr, ptr, ptr, ptr, ptr,  # alpha, grad, up, low, yg
        ctypes.POINTER(f64), ctypes.POINTER(i64)]  # gap, iterations
    lib.grow_tree.restype = size
    lib.grow_tree.argtypes = [  # 4 sizes, values .. y, rng, n, boot, nodes
        size, size, size, size, ptr, ptr, ptr, ptr, ptr, size, ptr,
        ptr, ptr, ptr, ptr, ptr]
    lib.forest_counts.restype = None
    lib.forest_counts.argtypes = [
        ctypes.POINTER(ForestTable), ctypes.c_ssize_t, ptr, ptr]  # x, counts
    return lib


LIB = _load_library()
