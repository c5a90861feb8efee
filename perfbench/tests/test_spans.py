"""Self-time arithmetic and name patching of the traced run."""

import threading

import pytest

from spans import (Patches, Span, Tracer, covered, descendants, self_times,
                   traced)


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(1.0, 2.0), (0.0, 3.0)]) == pytest.approx(3.0)


def test_self_time_on_a_hand_built_tree_with_two_threads():
    # op [0, 10] on the main thread; two workers overlap in [2, 6].
    op = Span("op", 0.0, 10.0, thread=1)
    run_a = Span("bench.run", 1.0, 6.0, op, thread=2)
    run_b = Span("bench.run", 2.0, 8.0, op, thread=3)
    fit_a = Span("forest.fit", 1.5, 4.5, run_a, thread=2)
    smo_a = Span("smo.fit", 4.5, 5.0, run_a, thread=2)
    fit_b = Span("forest.fit", 3.0, 7.0, run_b, thread=3)
    spans = [op, run_a, run_b, fit_a, smo_a, fit_b]
    selfs = self_times(spans)
    # Union of [1, 6] and [2, 8] is 7 seconds, so 3 are unattributed.
    assert selfs[id(op)] == pytest.approx(3.0)
    assert selfs[id(run_a)] == pytest.approx(5.0 - 3.5)
    assert selfs[id(run_b)] == pytest.approx(6.0 - 4.0)
    assert selfs[id(fit_a)] == pytest.approx(3.0)
    assert selfs[id(smo_a)] == pytest.approx(0.5)
    # Self times of the whole tree add up to the root's duration only when
    # children do not overlap; here the workers ran 4 seconds side by side.
    assert sum(selfs.values()) == pytest.approx(10.0 + 4.0)


def test_child_outside_its_parent_is_clipped():
    parent = Span("p", 0.0, 2.0)
    child = Span("c", 1.0, 5.0, parent)
    assert self_times([parent, child])[id(parent)] == pytest.approx(1.0)


def test_tracer_keeps_a_parent_stack_per_thread():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    seen = {}

    def worker(tag):
        with tracer.span(f"run.{tag}") as run:
            with tracer.span("fit") as fit:
                seen[tag] = (run, fit)

    with tracer.root_span("op") as op:
        with tracer.span("main.child") as child:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    assert child.parent is op
    for tag in ("a", "b"):
        run, fit = seen[tag]
        assert run.parent is child  # the open span of the thread that waits
        assert fit.parent is run
        assert run.thread == fit.thread != op.thread
    assert len(descendants(tracer.spans, [op])) == 6
    assert all(s.end is not None for s in tracer.spans)


def test_patches_wrap_the_looked_up_name_and_restore_it():
    class Owner:
        @staticmethod
        def work(n):
            return n + 1

    original = Owner.work
    tracer = Tracer()

    def note(attrs, args, kwargs, out):
        attrs["out"] = out

    with Patches() as p:
        p.replace(Owner, "work", traced(tracer, "owner.work", note))
        assert Owner.work(1) == 2
    assert Owner.work is original
    [span] = tracer.spans
    assert span.name == "owner.work" and span.attrs == {"out": 2}
