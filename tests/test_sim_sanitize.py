"""The runtime sim sanitizer (REPRO_SIM_SANITIZE=1).

Static analysis catches what it can see in the source; these tests pin
the runtime half: clock-monotonicity and single-engine-ownership checks
fire loudly when violated and cost nothing when disabled.
"""

from __future__ import annotations

import pytest

from repro.sim import sanitize
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.sanitize import ENV_VAR, SimSanitizeError


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")


class TestEnabled:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        assert sanitize.enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "2"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_VAR, value)
        assert not sanitize.enabled()

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not sanitize.enabled()

    def test_sampled_at_simulator_construction(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        hot = Simulator()
        monkeypatch.setenv(ENV_VAR, "0")
        cold = Simulator()
        assert hot.sanitize and not cold.sanitize


class TestClockCheck:
    def test_check_clock_raises_on_backwards_time(self):
        with pytest.raises(SimSanitizeError, match="backwards"):
            sanitize.check_clock(now=100, when=99)

    def test_check_clock_allows_forward_and_equal(self):
        sanitize.check_clock(now=100, when=100)
        sanitize.check_clock(now=100, when=101)

    def test_corrupted_queue_entry_detected(self, sanitized):
        sim = Simulator()
        sim.schedule(50, lambda: None)
        # Corrupt the heap the way only a bug could: an entry stamped
        # before a time the clock has already reached.
        sim.now = 200
        with pytest.raises(SimSanitizeError, match="backwards"):
            sim.run()

    def test_unsanitized_run_does_not_check(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        sim = Simulator()
        sim.schedule(50, lambda: None)
        sim.now = 200
        sim.run()  # silently tolerated without the sanitizer


class TestOwnership:
    def test_check_owner_raises_cross_engine(self):
        a, b = Simulator(), Simulator()
        event = Event(a)
        with pytest.raises(SimSanitizeError, match="cross-engine"):
            sanitize.check_owner(b, event, "wait")

    def test_check_owner_accepts_own_event(self):
        sim = Simulator()
        sanitize.check_owner(sim, Event(sim), "wait")

    def test_check_owner_ignores_unowned_objects(self):
        sanitize.check_owner(Simulator(), object(), "wait")

    @staticmethod
    def waiter(sim, event):
        def flow():
            value = yield event
            return value

        return sim.process(flow())

    def test_yield_rejects_foreign_event(self, sanitized):
        a, b = Simulator(), Simulator()
        self.waiter(a, Event(b))
        with pytest.raises(SimSanitizeError, match="process yield"):
            a.run()

    def test_yield_accepts_own_events(self, sanitized):
        sim = Simulator()
        event = sim.event()
        sim.schedule(5, event.succeed, "own")
        process = self.waiter(sim, event)
        sim.run()
        assert process.value == "own"

    def test_yield_unchecked_without_sanitizer(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        a, b = Simulator(), Simulator()
        foreign = Event(b)
        process = self.waiter(a, foreign)
        a.run()  # historical (buggy) tolerance: the yield parks
        foreign.succeed("late")
        assert process.value == "late"


class TestSanitizedSimulation:
    def test_results_identical_with_and_without(self, monkeypatch):
        """The sanitizer must observe, never perturb."""

        def timestamps(env_value):
            monkeypatch.setenv(ENV_VAR, env_value)
            sim = Simulator()
            seen = []

            def proc():
                for delay in (3, 1, 4, 1, 5):
                    yield sim.sleep(delay)
                    seen.append(sim.now)

            sim.process(proc())
            sim.run()
            return seen

        assert timestamps("1") == timestamps("0")

    def test_error_is_an_assertion_error(self):
        # Promised by the docs: plain `except AssertionError` catches it.
        assert issubclass(SimSanitizeError, AssertionError)
