"""Building the compiled loops (SMO and the forest walk) at import.

Each test copies the package to a temporary directory, so no library is
cached there yet, and imports it in a fresh interpreter.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import comulti
from comulti import _native as native_mod

PACKAGE = Path(comulti.__file__).parent
COMMAND = " ".join(["cc", *native_mod.CFLAGS, "-o"])
# Prints the ImportError's message as JSON, or "ok" when the SMO solver
# and the forest walk share one loaded library.
PROBE = """
import json
try:
    import comulti
except ImportError as exc:
    print(json.dumps(str(exc)))
else:
    from comulti import _native
    from comulti.classifiers import forest, smo
    assert forest.LIB is smo.LIB is _native.LIB
    print("ok")
"""


@pytest.fixture
def package(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "comulti",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _built(root: Path) -> list:
    """Names of the libraries and temp files in the copy's cache (not the
    bytecode Python may write beside them)."""
    cache = root / "comulti" / "__pycache__"
    return sorted(p.name for p in cache.glob("_native-*"))


def _probe(root: Path, path: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(root), PATH=path)
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_missing_compiler_is_one_line_import_error(package):
    out = _probe(package, "")
    assert out != "ok"
    message = json.loads(out)
    assert "\n" not in message
    assert message.startswith(COMMAND + " ")
    assert message.endswith("No such file or directory: 'cc'")
    assert _built(package) == []  # no library, no temp file left


def test_failing_compiler_reports_its_first_stderr_line(package):
    bin_dir = package / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: error: no such luck' >&2\n"
                  "echo 'second line' >&2\nexit 1\n")
    cc.chmod(0o755)
    message = json.loads(_probe(package, str(bin_dir)))
    assert message.startswith(COMMAND + " ")
    assert message.endswith(": cc: error: no such luck")
    assert _built(package) == []


def test_library_is_built_once_per_source_and_flags(package):
    assert _probe(package, os.environ.get("PATH", os.defpath)) == "ok"
    source = package / "comulti" / "_native.c"
    tag = hashlib.sha256(source.read_bytes()
                         + " ".join(native_mod.CFLAGS).encode()).hexdigest()
    assert _built(package) == [f"_native-{tag}.so"]
    built = source.parent / "__pycache__" / f"_native-{tag}.so"
    stamp = built.stat().st_mtime_ns
    # A second import, with no compiler reachable, loads the same file.
    assert _probe(package, "") == "ok"
    assert built.stat().st_mtime_ns == stamp
