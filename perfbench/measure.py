"""Timed loop, end-to-end metrics, traced run and the result lines."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import comulti.bench as bench_mod
import comulti.classifiers as clf_mod
import numpy as np
import scipy

import layers
import pace
from spans import Patches, Tracer
from workloads import WORKLOADS, Capture

# Set-ups per run (setup_s is their median): at least SETUPS, more while
# they have taken under SETUP_SECONDS, at most MAX_SETUPS.
SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 15
MIN_OPS = 2  # the determinism check needs a repetition
# The names a Pacer takes reference timings at, in the untraced run (in the
# traced run they would land inside the spans).
PACED_BOUNDARIES = ((clf_mod, "fit_forest"), (clf_mod, "fit_smo"),
                    (bench_mod, "smote"), (bench_mod, "undersample"))

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("rows_per_s", "rows/s"),
    ("predict1_ms.p50", "ms"),
    ("predict1_ms.p90", "ms"),
    ("sg_mean", "score"),
    ("macro_f1", "score"),
    ("recalled_classes", "count"),
    ("peak_rss_mb", "MB"),
)


def git_sha(root: Path):
    """HEAD of the checkout, read from its files; None outside a git tree."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    except OSError:
        pass
    return None


def environment(blas_pin: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "git_sha": git_sha(Path.cwd()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_pin": blas_pin,
        "load": "one closed-loop client; run_grid adds 2 worker threads",
    }


def _no_span(name):
    return contextlib.nullcontext()


class Ops:
    """Runs one workload's operation until the time is used, checking each
    outcome, and the repetitions against the first."""

    def __init__(self, workload, capture, clock=time.perf_counter,
                 pacer=None):
        self.workload = workload
        self.capture = capture
        self.clock = clock
        # Without installed boundaries a Pacer paces by the timings at the
        # start and end of each operation only.
        self.pacer = pacer or pace.Pacer()
        self.outcomes = []
        self.cap_warnings = 0

    def run(self, seconds: float, new_op=lambda: _no_span,
            min_ops: int = MIN_OPS) -> list:
        """Operations while ``seconds`` have not passed (at least
        ``min_ops``).  ``new_op()`` gives the span factory for the next
        operation."""
        done = []
        start = self.clock()
        while len(done) < min_ops or self.clock() - start < seconds:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = self.workload.op(self.capture, self.clock, new_op(),
                                       self.pacer)
            self.cap_warnings += sum("iteration cap" in str(w.message)
                                     for w in caught)
            if self.outcomes and out.fingerprint != \
                    self.outcomes[0].fingerprint:
                out.failures.append("canonical output differs between "
                                    "repetitions of one seed")
            self.outcomes.append(out)
            done.append(out)
        return done


def counts(outcomes) -> tuple:
    """(attempted, failed): each main operation and each single-row
    predict is one attempt."""
    attempted = len(outcomes) + sum(len(o.single_ms) for o in outcomes)
    failed = sum(bool(o.failures) for o in outcomes) \
        + sum(o.single_failed for o in outcomes)
    return attempted, failed


def op_s(outcomes, paced: bool = True) -> float:
    """Median paced time of the repetitions of the (identical) operation."""
    return statistics.median(
        o.main_s * (o.main_scale if paced else 1.0) for o in outcomes)


def end_to_end(setup_times, outcomes) -> dict:
    main_s = op_s(outcomes)
    singles = [ms for o in outcomes for ms in o.single_ms]
    sg_mean, macro_f1, recalled = outcomes[0].quality
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s": main_s,
        "rows_per_s": outcomes[0].rows / main_s,
        "predict1_ms.p50": statistics.median(singles),
        "predict1_ms.p90": statistics.quantiles(singles, n=10)[8],
        "sg_mean": sg_mean,
        "macro_f1": macro_f1,
        "recalled_classes": recalled,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def untraced(make, patches, seed, seconds, workdir):
    clock = time.perf_counter
    capture = Capture(patches)
    pacer = pace.Pacer()
    pacer.install(patches, PACED_BOUNDARIES)
    setup_times, raw = [], []
    while len(raw) < SETUPS or (sum(raw) < SETUP_SECONDS
                                and len(raw) < MAX_SETUPS):
        workload = make()
        pacer.start()
        t0 = clock()
        workload.setup(seed, workdir)
        raw.append(clock() - t0)
        setup_times.append(raw[-1] * pacer.finish(raw[-1]))
    ops = Ops(workload, capture, clock, pacer)
    ops.run(seconds)
    outs = ops.outcomes
    samples = {
        "setup_s": len(setup_times), "op_s": len(outs),
        "predict1_ms": sum(len(o.single_ms) for o in outs),
        "unpaced_setup_s": statistics.median(raw),
        "unpaced_op_s": op_s(outs, paced=False),
        "unpaced_predict1_ms.p50": statistics.median(
            ms for o in outs for ms in o.single_raw_ms),
        "smo_cap_warnings": ops.cap_warnings,
    }
    return end_to_end(setup_times, outs), outs, samples


def traced(make, patches, seed, seconds, workdir):
    """Half the time untraced, then half traced; the difference between
    their operation times is the tracing overhead."""
    capture = Capture(patches)
    tracer = Tracer()
    workload = make()
    setup_roots = []
    if workload.traces_setup:
        with Patches() as p:
            layers.install(p, tracer)
            with tracer.root_span("setup") as root:
                workload.setup(seed, workdir)
            setup_roots.append(root)
    else:
        workload.setup(seed, workdir)
    ops = Ops(workload, capture)
    plain = ops.run(seconds / 2, min_ops=1)

    op_roots = []

    def new_op():
        roots = []
        op_roots.append(roots)

        @contextlib.contextmanager
        def op_span(name):
            with tracer.root_span(name) as root:
                roots.append(root)
                yield root
        return op_span

    with Patches() as p:
        layers.install(p, tracer)
        spanned = ops.run(seconds / 2, new_op, min_ops=1)
    values = layers.layer_metrics(tracer, op_roots, setup_roots,
                                  ops.cap_warnings, op_s(plain),
                                  op_s(spanned))
    samples = {"untraced_ops": len(plain), "traced_ops": len(spanned),
               "spans": len(tracer.spans)}
    metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
    return metrics, ops.outcomes, samples


def main(args, blas_pin: dict) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = Path.cwd() / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        with Patches() as p:
            mode = traced if args.trace else untraced
            metrics, outcomes, samples = mode(
                WORKLOADS[args.workload], p, args.seed,
                args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    attempted, failed = counts(outcomes)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(blas_pin), "samples": samples,
              "failures": sorted({f for o in outcomes for f in o.failures})}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
