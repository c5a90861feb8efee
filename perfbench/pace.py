"""Scaling timings by the host's momentary speed.

On a 2-vCPU Intel Xeon VM at 2.0 GHz, the speed of the same code drifts by
up to 1.7x in spells of a few seconds to half a minute (a pure-Python loop
took between 6.6 and 12.8 ms per 2 s window over five minutes), with no
steal time or cgroup throttling recorded.  Twenty-second runs of identical
work then spread by 0.15-0.35 (quartile distance over median) whatever the
estimator.  So a paced timing is scaled by how long a fixed piece of
reference work took right before and right after it: the reported seconds
are seconds at the speed at which the reference work takes
``REFERENCE_S``.  On a host of steady speed the scale is a constant.

There are two pieces of reference work; neither calls comulti, so a change
to comulti does not move them.  The interpreter loop paces single-row
predicts, which make many small calls.  A batch predict spends its time in
numpy calls over thousands of rows, which a slow spell slows down less than
it slows the interpreter loop: it is paced by a synthetic tree walk over a
fixed random array instead.

Fits take seconds, longer than a spell of one speed, so two timings around
them say little about the speed in between.  A ``Pacer`` therefore also
times the reference work at every call into the fit layers (forest fit, SMO
fit, SMOTE, undersampling), on the thread that makes the call, and scales
each stretch between two such timings by them.  It uses the geometric mean
of both pieces of work, because a fit mixes interpreter and numpy code, and
the calling thread's CPU clock, because in a ``run_grid`` worker the wall
clock would also count waiting for the other worker to let go of the GIL.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 1.0e-3  # the reference work at the nominal speed
# The vector work at the nominal speed: on a 2-vCPU Intel Xeon VM at
# 2.0 GHz it took 2.4 times as long as the interpreter loop.
VECTOR_WORK_S = 2.4e-3
ROUNDS = 5

_rng = np.random.default_rng(0)
_WALK_X = _rng.random((3000, 8))
_WALK_FEATURE = _rng.integers(0, 8, 4096)
_WALK_THRESHOLD = _rng.random(4096)
_WALK_LEFT = _rng.integers(0, 4096, 4096)
_WALK_RIGHT = _rng.integers(0, 4096, 4096)
_KERNEL_A = _rng.random((400, 8))
_KERNEL_B = _rng.random((300, 8))


def _reference_work() -> float:
    """Interpreter loop plus small numpy calls, like the program's hot
    paths; the same work every call."""
    a = np.arange(256.0)
    s = 0.0
    for i in range(2400):
        s += float(a[i & 255])
        if i % 25 == 0:
            a = np.sort(a[::-1])
    return s


def _vector_work():
    """A tree walk over 3000 rows and a small polynomial kernel, like a
    batch predict; the same work every call."""
    rows = np.arange(_WALK_X.shape[0])
    node = np.zeros(rows.size, dtype=np.int64)
    for _ in range(16):
        go_left = _WALK_X[rows, _WALK_FEATURE[node]] <= _WALK_THRESHOLD[node]
        node = np.where(go_left, _WALK_LEFT[node], _WALK_RIGHT[node])
    return node, (_KERNEL_A @ _KERNEL_B.T) ** 3


def _median_time(work, clock) -> float:
    times = []
    for _ in range(ROUNDS):
        t0 = clock()
        work()
        times.append(clock() - t0)
    return statistics.median(times)


def reference_s(clock) -> float:
    """Median time of ``ROUNDS`` runs of the interpreter reference work."""
    return _median_time(_reference_work, clock)


def vector_reference_s(clock) -> float:
    """Median time of ``ROUNDS`` runs of the vector reference work, in the
    units of ``reference_s`` (``REFERENCE_S`` at the nominal speed)."""
    return _median_time(_vector_work, clock) * (REFERENCE_S / VECTOR_WORK_S)


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the nominal speed."""
    return REFERENCE_S / ((before + after) / 2.0)


def blend_reference_s(clock) -> float:
    """Geometric mean of both references, in units of ``reference_s``."""
    return math.sqrt(reference_s(clock) * vector_reference_s(clock))


class Pacer:
    """Paces a timed stretch (a set-up, a grid, a run) by reference timings
    taken at its start and end and at every call boundary of the names
    ``install`` wraps."""

    def __init__(self):
        self.marks = []  # (thread or None, wall start, wall end, reference)

    def mark(self, thread=None):
        t0 = time.perf_counter()
        ref = blend_reference_s(time.thread_time)
        # list.append is atomic, so run_grid's workers can mark at once.
        self.marks.append((thread, t0, time.perf_counter(), ref))

    def install(self, patches, boundaries) -> None:
        """Take a reference timing before and after every call of each
        ``(owner, name)`` in ``boundaries``."""
        def make(fn):
            def paced(*args, **kwargs):
                self.mark(threading.get_ident())
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.mark(threading.get_ident())
            return paced
        for owner, name in boundaries:
            patches.replace(owner, name, make)

    def start(self) -> None:
        """Timing before the stretch; call right before starting its clock."""
        self.marks = []
        self.mark()

    def finish(self, wall_s: float) -> float:
        """Timing after the stretch, which took ``wall_s``; returns the
        factor from ``wall_s`` to paced seconds."""
        self.mark()
        return paced_factor(self.marks, wall_s)


def paced_factor(marks, wall_s: float) -> float:
    """Factor from ``wall_s`` to paced seconds, given the ``Pacer`` marks
    ``(thread, wall start, wall end, reference)`` of a stretch, the first
    and last taken before and after it.

    The stretch's own work is ``wall_s`` less the reference timings inside
    it (shared among the threads that took them).  It is scaled by the mean,
    weighted by length, of the scales of the pieces between consecutive
    timings on each thread; the first and last timings bound every thread's
    pieces.
    """
    first, inner, last = marks[0], marks[1:-1], marks[-1]
    threads = {m[0] for m in inner}
    overhead = sum(m[2] - m[1] for m in inner) / max(1, len(threads))
    weighted = total = 0.0
    for thread in threads or {None}:
        own = [first] + [m for m in inner if m[0] == thread] + [last]
        for a, b in zip(own, own[1:]):
            piece = max(0.0, b[1] - a[2])
            weighted += piece * scale(a[3], b[3])
            total += piece
    mean_scale = weighted / total if total else scale(first[3], last[3])
    return (wall_s - overhead) * mean_scale / wall_s
