"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import AnyOf, Simulator
from repro.sim.process import Interrupted


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
        assert event.triggered and event.ok
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

    def test_fail_propagates_exception(self):
        event = Simulator().event()
        event.fail(ValueError("boom"))
        assert event.triggered and not event.ok
        with pytest.raises(ValueError):
            _ = event.value

    def test_fail_requires_exception_instance(self):
        with pytest.raises(TypeError):
            Simulator().event().fail("not an exception")

    def test_callback_after_trigger_runs_immediately(self):
        event = Simulator().event()
        event.succeed(5)
        got = []
        event.add_callback(lambda ev: got.append(ev.value))
        assert got == [5]

    def test_timeout_fires_at_right_time(self):
        sim = Simulator()
        timeout = sim.timeout(123, value="hi")
        sim.run()
        assert sim.now == 123
        assert timeout.value == "hi"

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Simulator().timeout(-1)

    def test_any_of_first_wins(self):
        sim = Simulator()
        slow = sim.timeout(100)
        fast = sim.timeout(10)
        race = sim.any_of([slow, fast])
        sim.run_until_event(race)
        assert race.value is fast
        assert sim.now == 10

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AnyOf(sim, [])

    def test_any_of_only_fires_once(self):
        sim = Simulator()
        a, b = sim.timeout(5), sim.timeout(6)
        race = sim.any_of([a, b])
        sim.run()
        assert race.value is a  # b's later trigger is ignored


class TestProcesses:
    def test_process_waits_on_timeouts(self):
        sim = Simulator()

        def flow():
            yield sim.timeout(10)
            yield sim.timeout(5)
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
            yield sim.timeout(10)
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

        def bad():
            yield 42

        process = sim.process(bad())
        sim.run()
        assert process.triggered and not process.ok

    def test_exception_from_failed_event_propagates(self):
        sim = Simulator()
        event = sim.event()
        sim.schedule(1, event.fail, RuntimeError("dead"))
        caught = []

        def flow():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))
            return None

        sim.process(flow())
        sim.run()
        assert caught == ["dead"]

    def test_interrupt_wakes_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(1000)
            except Interrupted as exc:
                log.append(exc.cause)
            return None

        process = sim.process(sleeper())
        sim.schedule(10, process.interrupt, "wakeup")
        sim.run()
        assert log == ["wakeup"]
        assert sim.now < 1000 or sim.now == 1000  # timeout may still be queued

    def test_interrupt_finished_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        process = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

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
                yield sim.timeout(period)
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

        def interrupted():
            yield sim.sleep(100)

        def raises():
            yield sim.sleep(1)
            raise ValueError("boom")

        sim.process(bad_yield())
        victim = sim.process(interrupted())
        sim.schedule(5, victim.interrupt)
        sim.process(raises())
        with pytest.raises(ValueError):
            sim.run()
        sim.run()
        assert not sim._live
