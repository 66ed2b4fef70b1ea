"""Differential-ordering harness for the calendar event queue.

The calendar/bucket queue in :mod:`repro.sim.engine` claims dispatch
order *identical* to the classic single-heap engine it replaced (one
``heapq`` of ``(when, seq, callback)`` entries).  These tests check the
claim mechanically: seeded random workloads — nested schedules,
same-tick storms, zero-delay microtask chains — run through both the
real simulator and :class:`ReferenceHeapEngine`, and the full
``(time, label)`` dispatch transcripts must match exactly.

``run_until_event`` is checked against the reference's step-based loop,
with the awaited event triggered by a callback in the middle of a
same-tick batch, at the first or last callback, or never.

The boundary tests pin ``run(until=)`` / ``run_until_event`` behavior at
bucket edges: a bucket whose tick is ``<= until`` drains whole (same
tick never straddles the boundary), and the clock lands exactly on
``until`` when the simulation outlives it.
"""

import heapq
import random

import pytest

from repro.sim.engine import Simulator


class ReferenceHeapEngine:
    """The pre-calendar engine: one heap, per-entry sequence numbers.

    Kept as the ordering oracle — intentionally the simplest possible
    implementation of the documented contract (time order, FIFO within
    an instant, ``run(until)`` advances the clock to ``until``).
    """

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + int(delay), callback, *args)

    def schedule_at(self, when, callback, *args):
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, self._seq, callback, args))
        self._seq += 1

    def post(self, callback, *args):
        self.schedule_at(self.now, callback, *args)

    def step(self):
        if not self._queue:
            return False
        when, _, callback, args = heapq.heappop(self._queue)
        self.now = when
        callback(*args)
        return True

    def run(self, until=None):
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                break
            self.step()
        if until is not None and until > self.now:
            self.now = until

    def peek(self):
        return self._queue[0][0] if self._queue else None

    def run_until_event(self, event, limit=None):
        # The step-based loop the calendar engine's shared dispatch loop
        # replaced: checks the event before every callback.
        while not event.triggered:
            if limit is not None:
                when = self.peek()
                if when is not None and when > limit:
                    break
            if not self.step():
                break


class Flag:
    """The reference engine's stand-in for an :class:`Event`."""

    triggered = False

    def succeed(self):
        self.triggered = True


class ScriptedWorkload:
    """A deterministic random workload driven by a per-run RNG.

    Each dispatched callback logs ``(now, label)`` and then — decided by
    the RNG — fans out child callbacks with delays drawn from a mix
    heavy in 0 (microtask chains) and same-tick collisions.  Because
    both engines promise the same dispatch order, the RNG draw sequence
    aligns and the scripts stay identical run-to-run.
    """

    DELAYS = (0, 0, 0, 1, 1, 2, 3, 5, 7, 10, 50)

    def __init__(self, engine, seed, budget=400, target=None):
        self.engine = engine
        self.rng = random.Random(seed)
        self.budget = budget
        self.log = []
        self.counter = 0
        #: ``(label, event)``: the callback with that label triggers it.
        self.target = target

    def seed_initial(self, count=12):
        for _ in range(count):
            self._spawn(self.rng.choice(self.DELAYS))

    def _spawn(self, delay):
        label = self.counter
        self.counter += 1
        if delay == 0 and self.rng.random() < 0.5:
            self.engine.post(self.callback, label)
        else:
            self.engine.schedule(delay, self.callback, label)

    def callback(self, label):
        self.log.append((self.engine.now, label))
        if self.target is not None and self.target[0] == label:
            self.target[1].succeed()
        children = self.rng.randint(0, 3)
        for _ in range(children):
            if self.counter >= self.budget:
                return
            self._spawn(self.rng.choice(self.DELAYS))


def transcripts(seed, budget=400, until=None):
    runs = []
    for engine in (Simulator(), ReferenceHeapEngine()):
        workload = ScriptedWorkload(engine, seed, budget)
        workload.seed_initial()
        engine.run(until=until)
        runs.append((workload.log, engine.now))
    return runs


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_dispatch_order_matches_reference(seed):
    (calendar_log, calendar_now), (heap_log, heap_now) = transcripts(seed)
    assert calendar_log == heap_log
    assert calendar_now == heap_now
    assert len(calendar_log) >= 12  # the workload actually ran


@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_run_until_matches_reference(seed):
    # Stop mid-simulation, then resume: both cuts must agree.
    (cal_log, cal_now), (heap_log, heap_now) = transcripts(seed, until=40)
    assert cal_log == heap_log
    assert cal_now == heap_now == 40


@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_step_interleaving_matches_run(seed):
    stepped = Simulator()
    workload = ScriptedWorkload(stepped, seed)
    workload.seed_initial()
    while stepped.step():
        pass
    (run_log, _), _ = transcripts(seed)
    assert workload.log == run_log


def until_event_transcripts(seed, label, limit=None):
    """Run to the callback ``label`` with ``run_until_event``, then
    drain; returns per engine the log, clock and next tick at the stop
    and the log and clock at the end."""
    runs = []
    for engine in (Simulator(), ReferenceHeapEngine()):
        event = engine.event() if isinstance(engine, Simulator) else Flag()
        workload = ScriptedWorkload(engine, seed, target=(label, event))
        workload.seed_initial()
        engine.run_until_event(event, limit=limit)
        stop = (list(workload.log), engine.now, engine.peek(), event.triggered)
        engine.run()
        runs.append((stop, (workload.log, engine.now)))
    return runs


def mid_batch_labels(seed):
    """Labels of callbacks with a same-tick callback after them: a
    trigger there stops the loop in the middle of a batch."""
    (log, _), _ = transcripts(seed)
    return [
        label for (now, label), (later, _) in zip(log, log[1:]) if later == now
    ]


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_run_until_event_matches_reference(seed):
    (log, _), _ = transcripts(seed)
    middle = mid_batch_labels(seed)
    assert middle, "the workload has same-tick batches"
    rng = random.Random(seed)
    labels = [rng.choice(middle), log[0][1], log[-1][1], rng.choice(log)[1], -1]
    ticks = sorted({now for now, _ in log})
    for label in labels:
        for limit in (None, rng.choice(ticks), ticks[0] - 1):
            calendar, heap = until_event_transcripts(seed, label, limit)
            assert calendar == heap, (label, limit)


def test_run_until_event_stops_mid_batch():
    sim = Simulator()
    done = sim.event()
    fired = []
    sim.schedule(5, fired.append, "a")
    sim.schedule(5, done.succeed)
    sim.schedule(5, fired.append, "b")
    sim.run_until_event(done)
    assert fired == ["a"]
    assert sim.now == 5
    assert sim.peek() == 5
    assert sim.pending_count == 1
    sim.run()
    assert fired == ["a", "b"]


# ----------------------------------------------------------------------
# Bucket-edge boundaries
# ----------------------------------------------------------------------
class TestRunUntilBoundaries:
    def test_bucket_at_until_drains_whole(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(10, fired.append, "b")
        sim.schedule(20, fired.append, "late")
        sim.run(until=10)
        assert fired == ["a", "b"]
        assert sim.now == 10
        assert sim.pending_count == 1

    def test_microtasks_spawned_at_until_still_run(self):
        sim = Simulator()
        fired = []

        def tail():
            fired.append("tail")

        def head():
            fired.append("head")
            sim.post(tail)  # joins the live batch at t == until

        sim.schedule(10, head)
        sim.run(until=10)
        assert fired == ["head", "tail"]

    def test_clock_lands_on_until_between_buckets(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(30, lambda: None)
        sim.run(until=20)
        assert sim.now == 20
        assert sim.pending_count == 1
        sim.run()
        assert sim.now == 30
        assert sim.pending_count == 0

    def test_resume_after_until_keeps_order(self):
        sim = Simulator()
        fired = []
        for delay in (5, 15, 15, 25):
            sim.schedule(delay, fired.append, delay)
        sim.run(until=15)
        assert fired == [5, 15, 15]
        sim.run()
        assert fired == [5, 15, 15, 25]

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=5)

    def test_run_until_event_limit_at_bucket_edge(self):
        sim = Simulator()
        target = sim.event()
        sim.schedule(10, lambda: None)
        sim.schedule(20, target.succeed)
        # Limit sits exactly on the pre-target bucket: it runs, the
        # target's bucket (at 20 > 15) does not.
        sim.run_until_event(target, limit=15)
        assert not target.triggered
        assert sim.now == 10
        sim.run_until_event(target)
        assert target.triggered
        assert sim.now == 20


class TestPendingCount:
    def test_counts_microtask_ring_entries(self):
        sim = Simulator()
        seen = []

        def head():
            sim.post(lambda: None)
            sim.post(lambda: None)
            seen.append(sim.pending_count)

        sim.schedule(0, head)
        sim.schedule(5, lambda: None)
        assert sim.pending_count == 2
        sim.run()
        # Inside head: the two ring entries plus the t=5 callback.
        assert seen == [3]
        assert sim.pending_count == 0

    def test_exact_across_step_and_batch(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(10, lambda: None)
        assert sim.pending_count == 4
        assert sim.step()  # dispatches one entry of the t=10 batch
        assert sim.pending_count == 3
        sim.run()
        assert sim.pending_count == 0
        assert not sim.step()
