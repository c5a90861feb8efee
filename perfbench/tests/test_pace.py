"""Pacing arithmetic on hand-built reference timings."""

import pytest

from pace import REFERENCE_S, paced_factor

NOMINAL = REFERENCE_S
SLOW = 2 * REFERENCE_S  # the reference took twice as long: half speed


def mark(thread, start, ref, cost=0.0):
    return (thread, start, start + cost, ref)


def test_start_and_end_only_is_the_bracket_scale():
    marks = [mark(None, 0.0, NOMINAL), mark(None, 4.0, SLOW)]
    assert paced_factor(marks, 4.0) == pytest.approx(1 / 1.5)


def test_pieces_are_weighted_by_length_and_reference_time_is_removed():
    # 1 s at nominal speed, a 0.5 s reference timing, then 2 s at half speed
    marks = [mark(None, 0.0, NOMINAL),
             mark(7, 1.0, NOMINAL, cost=0.5),
             mark(None, 3.5, SLOW)]
    wall = 3.5
    mean_scale = (1.0 * 1.0 + 2.0 * (1 / 1.5)) / 3.0
    assert paced_factor(marks, wall) * wall == \
        pytest.approx((wall - 0.5) * mean_scale)


def test_two_threads_share_the_reference_time():
    marks = [mark(None, 0.0, NOMINAL),
             mark(1, 1.0, NOMINAL, cost=0.2),
             mark(2, 2.0, NOMINAL, cost=0.2),
             mark(None, 4.0, NOMINAL)]
    # every piece at nominal speed; 0.4 s of reference work over 2 threads
    assert paced_factor(marks, 4.0) * 4.0 == pytest.approx(4.0 - 0.2)
