"""In-memory spans recorded around calls into the comulti layers.

The benchmark never edits the program.  It replaces, for the duration of a
traced phase, the module attributes that callers look up at call time (for
example ``comulti.bench.smote`` or ``comulti.classifiers.fit_forest``) with
wrappers that open a span, call the original and note counts read from the
arguments and the result.  Every replaced attribute is restored on exit.

Each span records its name, start, end, parent and thread.  The parent
stack is kept per thread.  A span opened on a thread whose stack is empty
(a ``run_grid`` worker) is adopted by the innermost open span of the thread
that opened the current root span, so a grid's experiments are children of
the ``run_grid`` call that started them.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Callable, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name: str, start: float, end: Optional[float] = None,
                 parent: Optional["Span"] = None, thread: int = 0,
                 attrs: Optional[dict] = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; spans stay in memory until read."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._root_stack: Optional[list] = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            adopt = self._root_stack
            parent = adopt[-1] if adopt else None
        s = Span(name, self.clock(), parent=parent,
                 thread=threading.get_ident())
        self.spans.append(s)  # list.append is atomic under the GIL
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()

    @contextlib.contextmanager
    def root_span(self, name: str):
        """A span below which spans opened on other threads are adopted."""
        with self.span(name) as s:
            self._root_stack = self._stack()
            try:
                yield s
            finally:
                self._root_stack = None


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span -> its duration minus the part of it that child spans cover.

    Children on other threads may overlap each other; the union is
    subtracted, so two concurrent children are not counted twice.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        kids = children.get(id(s), ())
        inside = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        out[id(s)] = s.duration - covered([iv for iv in inside
                                           if iv[1] > iv[0]])
    return out


def descendants(spans, roots) -> list:
    """Spans that are ``roots`` or lie below one of them."""
    keep = {id(r) for r in roots}
    out = []
    for s in spans:  # parents are always appended before their children
        if id(s) in keep or (s.parent is not None and id(s.parent) in keep):
            keep.add(id(s))
            out.append(s)
    return out


class Patches:
    """Replaces attributes and puts the originals back, newest first."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, name: str, make: Callable):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def traced(tracer: Tracer, name: str, note: Optional[Callable] = None):
    """Wrapper factory for :meth:`Patches.replace`.

    ``note(attrs, args, kwargs, result)`` runs after the span has closed,
    so reading counts off a fitted model is not charged to the layer.
    """
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
            if note is not None:
                note(s.attrs, args, kwargs, out)
            return out
        return wrapper
    return make
