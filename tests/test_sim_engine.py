"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(30, seen.append, "c")
        sim.schedule(10, seen.append, "a")
        sim.schedule(20, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_instant_is_fifo(self):
        sim = Simulator()
        seen = []
        for tag in range(5):
            sim.schedule(10, seen.append, tag)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances_to_callback_time(self):
        sim = Simulator()
        stamps = []
        sim.schedule(42, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == [42]
        assert sim.now == 42

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1, lambda: None)

    def test_run_until_stops_early_and_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "early")
        sim.schedule(100, seen.append, "late")
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=5)

    def test_step_returns_false_when_drained(self):
        assert Simulator().step() is False

    def test_pending_count(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending_count == 2

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
    def test_property_execution_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(delays)


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(99)
        assert event.triggered
        assert event.value == 99

    def test_value_before_trigger_raises(self):
        event = Simulator().event()
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_double_trigger_raises(self):
        event = Simulator().event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_callback_after_trigger_runs_immediately(self):
        event = Simulator().event()
        event.succeed(5)
        got = []
        event.add_callback(lambda ev: got.append(ev.value))
        assert got == [5]


class TestProcesses:
    def test_process_waits_on_timeouts(self):
        sim = Simulator()

        def flow():
            yield sim.sleep(10)
            yield sim.sleep(5)
            return sim.now

        process = sim.process(flow())
        sim.run()
        assert process.value == 15

    def test_process_receives_event_value(self):
        sim = Simulator()
        event = sim.event()
        sim.schedule(7, event.succeed, "payload")

        def flow():
            got = yield event
            return got

        process = sim.process(flow())
        sim.run()
        assert process.value == "payload"

    def test_process_is_waitable_event(self):
        sim = Simulator()

        def inner():
            yield sim.sleep(10)
            return "inner-done"

        def outer():
            result = yield sim.process(inner())
            return result + "!"

        process = sim.process(outer())
        sim.run()
        assert process.value == "inner-done!"

    def test_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_non_event_yield_fails_process(self):
        sim = Simulator()
        closed = []

        def bad():
            try:
                yield 42
            finally:
                closed.append(sim.now)

        process = sim.process(bad())
        with pytest.raises(TypeError, match="non-event: 42"):
            sim.run()
        # The generator is closed and untracked; the process never
        # triggers, so nothing waiting on it resumes.
        assert closed == [0]
        assert not process.triggered and not sim._live

    def test_ready_event_chain_does_not_recurse(self):
        sim = Simulator()

        def spinner():
            for _ in range(5000):  # would blow the stack if recursive
                event = sim.event()
                event.succeed()
                yield event
            return "ok"

        process = sim.process(spinner())
        sim.run()
        assert process.value == "ok"

    def test_two_processes_interleave(self):
        sim = Simulator()
        order = []

        def worker(name, period):
            for _ in range(3):
                yield sim.sleep(period)
                order.append((name, sim.now))

        sim.process(worker("fast", 10))
        sim.process(worker("slow", 25))
        sim.run()
        assert order == [
            ("fast", 10), ("fast", 20), ("slow", 25),
            ("fast", 30), ("slow", 50), ("slow", 75),
        ]


class TestClose:
    def _parked(self, sim):
        """Three processes parked on an event, a sleep and a child; the
        child itself sleeps.  Returns the log their ``finally`` blocks
        append to."""
        log = []
        gate = sim.event()

        def on_event():
            try:
                yield gate
            finally:
                log.append("event")

        def on_sleep():
            try:
                yield sim.sleep(1_000)
            finally:
                log.append("sleep")

        def child():
            try:
                yield sim.sleep(5_000)
            finally:
                log.append("child")

        def on_child():
            try:
                yield sim.process(child())
            finally:
                log.append("parent")

        sim.process(on_event())
        sim.process(on_sleep())
        sim.process(on_child())
        sim.schedule(2_000, lambda: None)
        sim.run(until=10)
        return log

    def test_close_drops_the_queue(self):
        sim = Simulator()
        self._parked(sim)
        assert sim.pending_count > 0
        sim.close()
        assert sim.pending_count == 0
        assert sim.peek() is None
        sim.run()
        assert sim.now == 10

    def test_finally_blocks_run_once_in_creation_order(self):
        sim = Simulator()
        log = self._parked(sim)
        assert log == []
        sim.close()
        # The child was created when its parent first ran, after the
        # three top-level processes.
        assert log == ["event", "sleep", "parent", "child"]
        sim.close()
        assert log == ["event", "sleep", "parent", "child"]

    def test_close_is_idempotent(self):
        sim = Simulator()
        self._parked(sim)
        sim.close()
        sim.close()
        assert sim.pending_count == 0 and sim.peek() is None
        assert not sim._live

    def test_close_dispatches_nothing(self):
        from repro.sim import engine

        sim = Simulator()
        self._parked(sim)
        before = engine.events_executed_total
        sim.close()
        assert engine.events_executed_total == before

    def test_finally_that_triggers_an_event_resumes_nobody(self):
        sim = Simulator()
        gate = sim.event()
        log = []

        def opener():
            try:
                yield sim.sleep(100)
            finally:
                gate.succeed()

        def waiter():
            yield gate
            log.append("resumed")

        sim.process(opener())
        sim.process(waiter())
        sim.run(until=10)
        sim.close()
        assert log == [] and gate.triggered

    def test_close_unstarted_process(self):
        sim = Simulator()
        log = []

        def flow():
            log.append("ran")
            yield sim.sleep(1)

        sim.process(flow())
        sim.close()
        sim.run()
        assert log == [] and sim.pending_count == 0

    def test_finished_processes_are_not_tracked(self):
        sim = Simulator()

        def short(i):
            yield sim.sleep(i % 7)

        def long():
            yield sim.sleep(10**9)

        keeper = sim.process(long())
        for i in range(10_000):
            sim.process(short(i))
        sim.run(until=1_000)
        assert list(sim._live) == [keeper]

    def test_every_way_of_finishing_untracks(self):
        sim = Simulator()

        def bad_yield():
            yield 42

        def returns():
            yield sim.sleep(100)

        def raises():
            yield sim.sleep(1)
            raise ValueError("boom")

        sim.process(bad_yield())
        sim.process(returns())
        sim.process(raises())
        with pytest.raises(TypeError):
            sim.run()
        with pytest.raises(ValueError):
            sim.run()
        sim.run()
        assert not sim._live
