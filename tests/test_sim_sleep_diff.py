"""Differential harness: ``yield sim.sleep(d)`` against ``yield sim.timeout(d)``.

:meth:`repro.sim.engine.Simulator.sleep` claims to resume a process on
the same tick, in the same FIFO slot, as the timeout it replaces, with
one dispatch per pause.  These tests check that mechanically:
hypothesis-generated scripts of processes run twice, once pausing
through timeouts and once through sleeps, and the ``(now, label)``
transcripts and the executed-callback counts must be equal.

The scripts mix in the shapes that could tell the two paths apart:
same-tick ties across processes, zero-delay pauses while a batch
drains, pauses right after yielding an already-triggered event, plain
callbacks and child processes scheduled between pauses, ``run(until=)``
cut exactly at a wake's tick, and interrupts that land mid-pause.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Observability, ProfilerConfig
from repro.sim import engine as sim_engine
from repro.sim.engine import Simulator
from repro.sim.process import Interrupted

#: Heavy in 0 (microtask ring) and small collisions (same-tick ties).
DELAYS = (0, 0, 1, 1, 2, 3, 5, 10)

MAX_PROCS = 5

_op = st.one_of(
    st.tuples(st.just("wait"), st.sampled_from(DELAYS)),
    st.tuples(st.just("ready"), st.just(0)),
    st.tuples(st.just("call"), st.sampled_from(DELAYS)),
    st.tuples(st.just("spawn"), st.sampled_from(DELAYS)),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCS - 1)),
)
_script = st.lists(st.lists(_op, max_size=10), min_size=1, max_size=MAX_PROCS)


def run_script(script, mode, until=None):
    """Run ``script`` pausing through ``mode`` (``"timeout"`` or
    ``"sleep"``).

    Returns ``(cut, final)``: the transcript, clock and executed-callback
    count when ``run(until=)`` stops, and again after the queue drains.
    """
    sim = Simulator()
    wait = sim.timeout if mode == "timeout" else sim.sleep
    log = []
    procs = []

    def note(label):
        log.append((sim.now, label))

    def child(label, delay):
        yield wait(delay)
        note(label)

    def body(index, ops):
        for step, (op, arg) in enumerate(ops):
            label = (index, step, op)
            try:
                if op == "wait":
                    yield wait(arg)
                elif op == "ready":
                    ready = sim.event()
                    ready.succeed()
                    yield ready
                elif op == "call":
                    sim.schedule(arg, note, label + ("call",))
                elif op == "spawn":
                    sim.process(child(label + ("child",), arg))
                else:
                    target = procs[arg % len(procs)]
                    if target.is_alive:
                        target.interrupt(label)
            except Interrupted as exc:
                note(label + ("interrupted", exc.cause))
                continue
            note(label)

    before = sim_engine.events_executed_total
    for index, ops in enumerate(script):
        procs.append(sim.process(body(index, ops)))
    sim.run(until=until)
    cut = (list(log), sim.now, sim_engine.events_executed_total - before)
    sim.run()
    final = (log, sim.now, sim_engine.events_executed_total - before)
    return cut, final


@settings(max_examples=200, deadline=None)
@given(script=_script)
def test_sleep_matches_timeout(script):
    assert run_script(script, "sleep") == run_script(script, "timeout")


@settings(max_examples=100, deadline=None)
@given(script=_script, data=st.data())
def test_run_until_cut_at_a_wake_tick(script, data):
    (_, (log, _, _)) = run_script(script, "timeout")
    ticks = sorted({now for now, _ in log})
    until = data.draw(st.sampled_from(ticks)) if ticks else 0
    sleep_cut, sleep_final = run_script(script, "sleep", until=until)
    timeout_cut, timeout_final = run_script(script, "timeout", until=until)
    assert sleep_cut == timeout_cut
    assert sleep_cut[1] == until
    assert sleep_final == timeout_final


def test_same_tick_ties_keep_fifo_order():
    # Processes pausing in lockstep tie on every tick; a plain callback
    # and a zero-delay pause scheduled mid-batch join the batch's tail,
    # so p1's second pause lands behind p2's at t=10.
    script = [
        [("wait", 5), ("call", 0), ("wait", 5)],
        [("wait", 5), ("wait", 0), ("wait", 5)],
        [("ready", 0), ("wait", 5), ("wait", 5)],
    ]
    _, (log, now, _) = run_script(script, "sleep")
    assert log == [
        (0, (2, 0, "ready")),
        (5, (0, 0, "wait")),
        (5, (0, 1, "call")),
        (5, (1, 0, "wait")),
        (5, (2, 1, "wait")),
        (5, (0, 1, "call", "call")),
        (5, (1, 1, "wait")),
        (10, (0, 2, "wait")),
        (10, (2, 2, "wait")),
        (10, (1, 2, "wait")),
    ]
    assert now == 10
    assert run_script(script, "timeout")[1][0] == log


# ----------------------------------------------------------------------
# Unit behaviour of sleep()
# ----------------------------------------------------------------------
def profiled_sim():
    obs = Observability(
        tracing=False, metrics=False, profile=ProfilerConfig(wall=False)
    )
    return Simulator(obs=obs), obs.profiler


def test_negative_delay_raises_at_the_call():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative sleep delay"):
        sim.sleep(-1)
    assert sim.pending_count == 0


def test_interrupted_sleep_wake_is_dropped_and_counted_stale():
    sim, prof = profiled_sim()
    log = []

    def sleeper():
        try:
            yield sim.sleep(100)
            log.append(("woke", sim.now))
        except Interrupted:
            log.append(("interrupted", sim.now))

    def interrupter(victim):
        yield sim.sleep(10)
        victim.interrupt()

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert log == [("interrupted", 10)]
    # The wake at t=100 still dispatches (the timeout it replaces fired
    # too), but finds its token gone and resumes nothing.
    assert sim.now == 100
    assert prof.stale_wakeups == 1


def test_sleep_dispatches_attributed_to_the_sleeping_generator():
    sim, prof = profiled_sim()

    def napper():
        for _ in range(4):
            yield sim.sleep(10)

    sim.process(napper())
    sim.run()
    # 1 start + 4 wakes, all landing on the generator's call site.
    assert prof.dispatches == 5
    (site,) = prof.events
    assert site.kind == "process"
    assert site.callsite.endswith("napper")
    assert prof.events[site] == 5
