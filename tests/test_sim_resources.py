"""Tests for the timeline resource."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Simulator, TimelineResource


class TestTimelineResource:
    def test_back_to_back_reservations(self):
        sim = Simulator()
        unit = TimelineResource(sim)
        assert unit.reserve(100) == (0, 100)
        assert unit.reserve(50) == (100, 150)
        assert unit.busy_ns == 150

    def test_not_before_is_respected(self):
        sim = Simulator()
        unit = TimelineResource(sim)
        assert unit.reserve(10, not_before=500) == (500, 510)

    def test_reservation_never_starts_in_the_past(self):
        sim = Simulator()
        unit = TimelineResource(sim)
        sim.schedule(1000, lambda: None)
        sim.run()
        start, end = unit.reserve(10)
        assert start == 1000 and end == 1010

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimelineResource(Simulator()).reserve(-1)

    def test_utilization(self):
        sim = Simulator()
        unit = TimelineResource(sim)
        unit.reserve(250)
        assert unit.utilization(1000) == 0.25
        assert unit.utilization(0) == 0.0

    def test_peek_does_not_book(self):
        sim = Simulator()
        unit = TimelineResource(sim)
        unit.reserve(100)
        assert unit.peek_start() == 100
        assert unit.free_at == 100

    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=40))
    def test_property_intervals_never_overlap(self, durations):
        sim = Simulator()
        unit = TimelineResource(sim)
        intervals = [unit.reserve(d) for d in durations]
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
            assert e2 - s2 == durations[intervals.index((s2, e2))]
        assert unit.busy_ns == sum(durations)
