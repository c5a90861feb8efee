"""comulti benchmark runner.

    python3 perfbench/run.py --workload rule_grid_table --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run prints every end-to-end metric; with ``--trace 1``
it prints the per-layer metrics of a traced run instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and sample counts.  See README.md in this directory.
"""

import os

# One client, no hidden BLAS threads: pin before numpy is first imported.
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A terminated run still removes its data files (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (SRC / "comulti" / "__init__.py").is_file():
        print(f"error: no comulti sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import comulti
    if Path(comulti.__file__).resolve().parent != SRC / "comulti":
        print(f"error: imported comulti from {comulti.__file__}",
              file=sys.stderr)
        return 2

    import measure
    return measure.main(args, BLAS_PIN)


if __name__ == "__main__":
    sys.exit(main())
