"""Speed-corrected intervals."""

import pytest

from perfbench.clock import SpeedClock


def _clock(probes):
    clock = SpeedClock()
    for start, end, slowness in probes:
        clock._starts.append(start)
        clock._ends.append(end)
        clock._slowness.append(slowness)
    return clock


def test_without_probes_seconds_are_wall_seconds():
    assert SpeedClock().seconds(1.0, 3.5) == 2.5


def test_gaps_are_divided_by_slowness_and_probes_left_out():
    # probes of 0.1 s at 1, 2 and 3; the host runs at half speed throughout
    clock = _clock([(1.0, 1.1, 2.0), (2.0, 2.1, 2.0), (3.0, 3.1, 2.0)])
    # 0.5 to 3.5 is 3 s of wall time, 0.3 s of it probing
    assert clock.seconds(0.5, 3.5) == pytest.approx(2.7 / 2)
    # an interval between two probes takes the speed around it
    assert clock.seconds(1.2, 1.8) == pytest.approx(0.6 / 2)


def test_each_gap_takes_the_median_speed_around_it():
    probes = [(float(i), i + 0.5, 1.0) for i in range(10)]
    probes[5] = (5.0, 5.5, 50.0)  # one slow outlier probe
    clock = _clock(probes)
    # nine 0.5 s gaps between ten 0.5 s probes, all at full speed
    assert clock.seconds(0.0, 9.5) == pytest.approx(4.5)


def test_started_clock_probes_and_stops():
    clock = SpeedClock()
    clock.start()
    try:
        t0 = clock.now()
        while clock.now() - t0 < 0.2:
            pass
    finally:
        clock.stop()
    assert len(clock._starts) >= 3
    assert clock.seconds(t0, t0 + 0.2) > 0
