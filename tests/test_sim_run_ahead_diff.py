"""Differential harness: ``advance_if_next`` against a plain ``sim.sleep``.

:meth:`repro.sim.engine.Simulator.advance_if_next` claims that moving
the clock inline, when a sleep's wake would be the very next dispatch,
is invisible: every callback sees the same ``now`` in the same order.
These tests check that mechanically: hypothesis-generated scripts of
processes run twice, once pausing with ``if not
sim.advance_if_next(sim.now + d): yield sim.sleep(d)`` and once with
``yield sim.sleep(d)``, and the ``(now, label)`` transcripts must be
equal — when the queue drains, when ``run(until=)`` cuts the run, when
``run_until_event(limit=)`` stops at an event or a limit, and under
``REPRO_SIM_SANITIZE=1``.

The scripts mix in the shapes that would make running ahead wrong:
same-tick ties, zero-delay pauses while a batch drains, processes woken
from inside another process's code or from a callback that carries on
after the trigger, child processes and callbacks scheduled between
pauses, and interrupts.  Callbacks that wake waiters as their last act
use :meth:`~repro.sim.engine.Simulator.hand_off` in the run-ahead runs,
so a lone woken process runs ahead from there.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import engine as sim_engine
from repro.sim import sanitize
from repro.sim.engine import Simulator
from repro.sim.process import Interrupted

#: Heavy in 0 (microtask ring) and small collisions (same-tick ties).
DELAYS = (0, 0, 1, 1, 2, 3, 5, 10)

MAX_PROCS = 5
CHANNELS = 2

_op = st.one_of(
    st.tuples(st.just("pause"), st.sampled_from(DELAYS)),
    st.tuples(st.just("pause"), st.sampled_from(DELAYS)),
    st.tuples(st.just("ready"), st.just(0)),
    st.tuples(st.just("call"), st.sampled_from(DELAYS)),
    st.tuples(st.just("spawn"), st.sampled_from(DELAYS)),
    st.tuples(st.just("wait"), st.integers(0, CHANNELS - 1)),
    st.tuples(st.just("signal"), st.integers(0, CHANNELS - 1)),
    st.tuples(st.just("stage"), st.sampled_from(DELAYS)),
    st.tuples(st.just("handoff"), st.sampled_from(DELAYS)),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCS - 1)),
)
_script = st.lists(st.lists(_op, max_size=10), min_size=1, max_size=MAX_PROCS)


class Run:
    """One simulator running ``script``, pausing through ``mode``
    (``"ahead"`` or ``"sleep"``)."""

    def __init__(self, script, mode):
        self.sim = sim = Simulator()
        self.mode = mode
        self.log = []
        self.ahead = 0
        #: One pending event per channel; ``signal`` fires and replaces it.
        self.gates = [sim.event() for _ in range(CHANNELS)]
        self.procs = [
            sim.process(self.body(index, ops)) for index, ops in enumerate(script)
        ]

    def note(self, label):
        self.log.append((self.sim.now, label))

    def pause(self, delay):
        sim = self.sim
        if self.mode == "ahead" and sim.advance_if_next(sim.now + delay):
            self.ahead += 1
            return
        yield sim.sleep(delay)

    def fire(self, channel):
        gate = self.gates[channel]
        self.gates[channel] = self.sim.event()
        gate.succeed()

    def stage(self, label, channel):
        # A callback that wakes waiters and then carries on at the same
        # instant: a process it woke must not run ahead of the rest.
        self.fire(channel)
        self.note(label)
        self.sim.schedule(1, self.note, label + ("after",))

    def last_stage(self, label, channel):
        # A callback whose last act wakes waiters: it may hand off.
        self.note(label)
        gate = self.gates[channel]
        self.gates[channel] = self.sim.event()
        if self.mode == "ahead":
            self.sim.hand_off(gate)
        else:
            gate.succeed()

    def child(self, label, delay):
        yield from self.pause(delay)
        self.note(label)
        yield from self.pause(delay)
        self.note(label + ("again",))

    def body(self, index, ops):
        sim = self.sim
        for step, (op, arg) in enumerate(ops):
            label = (index, step, op)
            try:
                if op == "pause":
                    yield from self.pause(arg)
                elif op == "ready":
                    ready = sim.event()
                    ready.succeed()
                    yield ready
                elif op == "call":
                    sim.schedule(arg, self.note, label + ("call",))
                elif op == "spawn":
                    sim.process(self.child(label + ("child",), arg))
                elif op == "wait":
                    yield self.gates[arg]
                    yield from self.pause(1)
                elif op == "signal":
                    self.fire(arg)
                elif op == "stage":
                    sim.schedule(arg, self.stage, label + ("stage",), step % CHANNELS)
                elif op == "handoff":
                    sim.schedule(
                        arg, self.last_stage, label + ("handoff",), step % CHANNELS
                    )
                else:
                    target = self.procs[arg % len(self.procs)]
                    if target.is_alive:
                        target.interrupt(label)
            except Interrupted as exc:
                self.note(label + ("interrupted", exc.cause))
                continue
            self.note(label)

    def snapshot(self):
        return list(self.log), self.sim.now


def drained(script, mode, until=None):
    run = Run(script, mode)
    run.sim.run(until=until)
    cut = run.snapshot()
    run.sim.run()
    return cut, run.snapshot()


def stopped(script, mode, target, limit):
    """Cut by ``run_until_event`` on process ``target`` (or channel 0's
    gate when ``target`` is None), then drained."""
    run = Run(script, mode)
    event = run.gates[0] if target is None else run.procs[target % len(run.procs)]
    run.sim.run_until_event(event, limit=limit)
    cut = run.snapshot() + (event.triggered, run.sim.peek())
    run.sim.run()
    return cut, run.snapshot()


@settings(max_examples=200, deadline=None)
@given(script=_script)
# Two processes wait on the gate a callback hands off.
@example(script=[[("wait", 0)], [("wait", 0)], [("handoff", 3)]])
def test_run_ahead_matches_sleep(script):
    assert drained(script, "ahead") == drained(script, "sleep")


@settings(max_examples=100, deadline=None)
@given(script=_script, data=st.data())
def test_run_until_cut_matches(script, data):
    (_, (log, _)) = drained(script, "sleep")
    ticks = sorted({now for now, _ in log}) or [0]
    until = data.draw(st.sampled_from(ticks + [ticks[-1] + 1]))
    ahead = drained(script, "ahead", until=until)
    assert ahead == drained(script, "sleep", until=until)
    assert ahead[0][1] == until


@settings(max_examples=200, deadline=None)
@given(
    script=_script,
    target=st.one_of(st.none(), st.integers(0, MAX_PROCS - 1)),
    limit=st.one_of(st.none(), st.sampled_from(DELAYS + (20, 40))),
)
# The process that fires the awaited gate pauses right after.
@example(script=[[("signal", 0), ("pause", 5)]], target=None, limit=None)
def test_run_until_event_cut_matches(script, target, limit):
    assert stopped(script, "ahead", target, limit) == stopped(
        script, "sleep", target, limit
    )


@settings(max_examples=50, deadline=None)
@given(script=_script)
def test_sanitized_runs_match(monkeypatch_session, script):
    with monkeypatch_session.context() as patch:
        patch.setenv(sanitize.ENV_VAR, "1")
        assert Run(script, "ahead").sim.sanitize
        assert drained(script, "ahead") == drained(script, "sleep")


@pytest.fixture(scope="module")
def monkeypatch_session():
    with pytest.MonkeyPatch.context() as patch:
        yield patch


# ----------------------------------------------------------------------
# Unit behaviour of advance_if_next()
# ----------------------------------------------------------------------
CHAIN = [[("pause", 5), ("pause", 5), ("pause", 0), ("pause", 3)]]


def test_a_lone_process_runs_ahead_with_fewer_dispatches():
    counts = {}
    for mode in ("ahead", "sleep"):
        run = Run(CHAIN, mode)
        before = sim_engine.events_executed_total
        run.sim.run()
        counts[mode] = (run.snapshot(), run.ahead, sim_engine.events_executed_total - before)
    (ahead_log, ahead_n, ahead_events), (sleep_log, _, sleep_events) = (
        counts["ahead"], counts["sleep"],
    )
    assert ahead_log == sleep_log
    assert ahead_log[1] == 13
    # Every pause ran ahead: only the start is dispatched.
    assert ahead_n == 4
    assert (ahead_events, sleep_events) == (1, 5)


def test_never_outside_a_dispatch_loop():
    sim = Simulator()
    assert not sim.advance_if_next(5)
    run = Run(CHAIN, "ahead")
    while run.sim.step():
        pass
    assert run.ahead == 0
    assert run.snapshot() == drained(CHAIN, "sleep")[1]


def test_not_past_the_run_horizon():
    run = Run(CHAIN, "ahead")
    run.sim.run(until=7)
    # The first pause (to 5) ran ahead; the second (to 10) lies past 7.
    assert run.snapshot() == ([(5, (0, 0, "pause"))], 7)
    assert run.ahead == 1
    assert run.sim.pending_count == 1


def test_not_after_the_awaited_event_triggered():
    sim = Simulator()
    done = sim.event()
    seen = []

    def proc():
        done.succeed()
        seen.append(sim.advance_if_next(sim.now + 5))
        yield sim.sleep(5)

    sim.process(proc())
    sim.run_until_event(done)
    assert seen == [False]
    assert sim.now == 0


def test_not_while_the_batch_holds_more_or_a_tick_comes_first():
    sim = Simulator()
    seen = []

    def proc():
        sim.post(lambda: None)
        seen.append(sim.advance_if_next(sim.now + 5))  # batch not drained
        yield sim.sleep(1)
        seen.append(sim.advance_if_next(sim.now + 5))  # t=3 comes first
        seen.append(sim.advance_if_next(sim.now + 2))  # ties t=3: no
        seen.append(sim.advance_if_next(sim.now + 1))
        seen.append(sim.now)

    sim.process(proc())
    sim.schedule(3, lambda: None)
    sim.run()
    assert seen == [False, False, False, True, 2]


def test_not_for_a_process_woken_inside_other_code():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        yield gate
        seen.append(sim.advance_if_next(sim.now + 5))

    def stage():
        gate.succeed()
        seen.append(("stage", sim.now))

    sim.process(waiter())
    sim.schedule(1, stage)
    sim.run()
    assert seen == [False, ("stage", 1)]


def test_hand_off_lets_a_lone_waiter_run_ahead():
    for waiters, expected in ((1, [True]), (2, [False, False])):
        sim = Simulator()
        gate = sim.event()
        seen = []

        def waiter():
            yield gate
            seen.append(sim.advance_if_next(sim.now + 5))

        for _ in range(waiters):
            sim.process(waiter())
        sim.schedule(1, sim.hand_off, gate)
        sim.run()
        # Two waiters: the first must not run ahead of the second.
        assert seen == expected
        assert sim.now == 6 if waiters == 1 else sim.now == 1


def test_sanitizer_checks_the_clock(monkeypatch):
    calls = []
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    monkeypatch.setattr(
        sanitize, "check_clock", lambda now, when: calls.append((now, when))
    )
    run = Run([[("pause", 4)]], "ahead")
    run.sim.run()
    assert run.ahead == 1
    assert (0, 4) in calls


@pytest.mark.parametrize("late", [False, True])
def test_sanitizer_rejects_work_queued_after_a_hand_off(monkeypatch, late):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield gate
        if not sim.advance_if_next(sim.now + 5):
            yield sim.sleep(5)

    def stage():
        sim.hand_off(gate)
        if late:
            # The waiter already ran ahead to t=6: this lands at t=7,
            # not t=2.
            sim.schedule(1, lambda: None)

    sim.process(waiter())
    sim.schedule(1, stage)
    if late:
        with pytest.raises(sanitize.SimSanitizeError, match="hand_off"):
            sim.run()
    else:
        sim.run()
        assert sim.now == 6


def test_sanitizer_catches_a_schedule_after_land_cqe(monkeypatch):
    """Mutation: a queue pair that schedules work after landing a CQE it
    handed off breaks the hand-off rule on the real stack."""
    from repro.api import JobConfig, Testbed
    from repro.ssd.device import IoRecord

    land_cqe = IoRecord.land_cqe

    def then_schedule(self, cqe_ns, *, last=False):
        land_cqe(self, cqe_ns, last=last)
        self.sim.schedule(0, lambda: None)

    job = JobConfig(rw="randread", engine="psync", io_count=20)
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    Testbed(device="ull").run_job(job)  # the unmutated stack passes
    monkeypatch.setattr(IoRecord, "land_cqe", then_schedule)
    with pytest.raises(sanitize.SimSanitizeError, match="hand_off"):
        Testbed(device="ull").run_job(job)
