"""The simulation engine: a clock and a time-ordered callback queue.

Time is measured in integer nanoseconds.  Callbacks scheduled for the same
instant run in FIFO order, which makes simulations deterministic.

The queue is a *calendar of same-tick buckets*: every distinct timestamp
owns one FIFO list of callbacks, and a small binary heap indexes only the
distinct timestamps (the heap doubles as the overflow path for far-future
events — a tick is pushed once no matter how many callbacks pile onto
it).  Dispatch drains a whole bucket as one batch without re-sifting the
heap between same-tick callbacks, and callbacks scheduled *for the
current instant while it is being drained* are appended straight onto the
live batch — the microtask ring that lets zero-delay process trampolines
resume without a heap round-trip.  The dispatch order is provably
identical to the classic single-heap engine (see
``tests/test_sim_queue_fuzz.py`` for the differential harness and
``docs/sim-engine.md`` for the invariants).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.core import current_obs
from repro.sim import sanitize
from repro.sim.events import AnyOf, Event, Sleep, Timeout
from repro.sim.process import Process
from repro.units import Ns

if TYPE_CHECKING:
    from repro.obs.core import Observability
    from repro.obs.prof import Profiler

#: Process-wide count of executed callbacks, across every simulator ever
#: run in this process.  The perf harness reads deltas of this to report
#: sim-events/second per benchmark figure (meaningful under serial
#: execution; worker processes keep their own counts).  Every drained
#: callback counts — including same-tick batch entries and microtask-ring
#: appends — so the count is identical to what the pre-calendar single
#: heap engine reported.
events_executed_total = 0

#: One queued callback: ``(callback, args)``.  Timestamps live on the
#: bucket, not the entry, and FIFO order within a bucket is list order —
#: no per-entry sequence number is needed.
_Entry = Tuple[Callable, Tuple[Any, ...]]


class Simulator:
    """Discrete-event simulator with a nanosecond integer clock.

    Every simulator carries an observability bundle (``self.obs``): the
    span tracer and metrics registry the stack layers report into.  By
    default it is the currently *installed* bundle (see
    :mod:`repro.obs.core`) — a zero-cost no-op unless something like the
    CLI's ``--trace-out`` installed a recording one.
    """

    def __init__(self, obs: "Optional[Observability]" = None) -> None:
        self.now: int = 0
        #: Calendar buckets: distinct tick -> FIFO batch of entries.
        self._buckets: Dict[int, List[_Entry]] = {}
        #: Min-heap over the distinct ticks present in ``_buckets``.
        self._ticks: List[int] = []
        #: The batch being drained (its tick is ``now``); same-instant
        #: schedules land here — the microtask ring.
        self._batch: Optional[List[_Entry]] = None
        self._batch_pos: int = 0
        #: Exact number of queued-but-not-yet-dispatched callbacks,
        #: including the un-drained remainder of the current batch.
        self._pending: int = 0
        #: Processes whose generator has not finished, in creation order
        #: (an insertion-ordered dict used as a set).  Each process adds
        #: and removes itself; :meth:`close` closes what is left.
        self._live: Dict[Process, None] = {}
        #: FIFOs of parked callbacks handed out by :meth:`waitlist`.
        self._waitlists: List[Deque[_Entry]] = []
        #: Sampled at construction so one test can run sanitized next to
        #: an unsanitized neighbour (see :mod:`repro.sim.sanitize`).
        self.sanitize: bool = sanitize.enabled()
        self.obs = obs if obs is not None else current_obs()
        self.obs.attach(self)
        #: The self-profiler (``repro.obs.prof``), sampled at
        #: construction like ``sanitize``: ``None`` unless the attached
        #: bundle carries an enabled profiler, so the unprofiled hot
        #: path pays exactly one ``is not None`` check per hook.
        profiler = getattr(self.obs, "profiler", None)
        self._prof: "Optional[Profiler]" = (
            profiler if profiler is not None and profiler.enabled else None
        )

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: Ns, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` ns from now."""
        self.schedule_at(self.now + int(delay), callback, *args)

    def schedule_at(self, when: int, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``when``."""
        now = self.now
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        if when == now and self._batch is not None:
            # Microtask ring: the current instant is being drained, so
            # the entry joins the live batch — FIFO position identical
            # to what a heap push with the next sequence number gives.
            self._batch.append((callback, args))
        else:
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [(callback, args)]
                heapq.heappush(self._ticks, when)
            else:
                bucket.append((callback, args))
        self._pending += 1
        if self._prof is not None:
            self._prof.note_insert(now, when, self._pending)

    def post(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after
        everything already queued for it (a zero-delay microtask).

        Equivalent to ``schedule(0, ...)`` but skips the timestamp
        arithmetic; process trampolines resume through this path.
        """
        batch = self._batch
        if batch is not None:
            batch.append((callback, args))
        else:
            now = self.now
            bucket = self._buckets.get(now)
            if bucket is None:
                self._buckets[now] = [(callback, args)]
                heapq.heappush(self._ticks, now)
            else:
                bucket.append((callback, args))
        self._pending += 1
        if self._prof is not None:
            self._prof.note_insert(self.now, self.now, self._pending)

    # ------------------------------------------------------------------
    # Event/process factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: Ns, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now.

        A process that only wants to pause should yield :meth:`sleep`
        instead; a timeout is for a deadline others wait on or race
        (``any_of``).
        """
        return Timeout(self, int(delay), value)

    def sleep(self, delay: Ns) -> Sleep:
        """Pause the yielding process for ``delay`` ns, with no event.

        ``yield sim.sleep(ns)`` resumes the process ``delay`` ns later,
        on the same tick and in the same FIFO slot as ``yield
        sim.timeout(ns)`` would (see ``docs/sim-engine.md``).
        """
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay}")
        return Sleep(delay)

    def waitlist(self) -> Deque[_Entry]:
        """A FIFO for ``(callback, args)`` entries parked outside the
        queue until some resource frees (a callback-stage analogue of
        an event's waiter list).  :meth:`close` empties it, like the
        queue itself."""
        waitlist: Deque[_Entry] = deque()
        self._waitlists.append(waitlist)
        return waitlist

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create an event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def process(self, generator: Iterator) -> Process:
        """Start a new process driving ``generator``.

        The generator yields :class:`~repro.sim.events.Event` instances
        (including timeouts and other processes) and is resumed with each
        event's value, or a :meth:`sleep` request and is resumed with
        ``None`` once it has elapsed.
        """
        return Process(self, generator)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Load the earliest bucket as the current batch.  False if none."""
        if not self._ticks:
            self._batch = None
            return False
        when = heapq.heappop(self._ticks)
        if self.sanitize:
            sanitize.check_clock(self.now, when)
        self.now = when
        self._batch = self._buckets.pop(when)
        self._batch_pos = 0
        return True

    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False if none remain."""
        global events_executed_total
        batch = self._batch
        if batch is None or self._batch_pos >= len(batch):
            if not self._advance():
                return False
            batch = self._batch
        pos = self._batch_pos
        self._batch_pos = pos + 1
        callback, args = batch[pos]  # type: ignore[index]
        self._pending -= 1
        events_executed_total += 1
        prof = self._prof
        if prof is None:
            callback(*args)
        else:
            prof.dispatch(self.now, callback, args, self._pending)
        return True

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        With ``until`` given, the clock is advanced to exactly ``until``
        when the simulation outlives it (pending later callbacks remain
        queued and can be resumed by a further ``run`` call).  A bucket
        whose tick is ``<= until`` is always drained whole — same-tick
        callbacks never straddle the boundary.
        """
        global events_executed_total
        if until is not None:
            until = int(until)
            if until < self.now:
                raise ValueError(f"cannot run backwards: {until} < {self.now}")
        prof = self._prof
        ticks = self._ticks
        buckets = self._buckets
        while True:
            batch = self._batch
            if batch is not None:
                # Drain the whole same-tick batch without touching the
                # heap; the len() is re-read every lap because microtask
                # appends grow the batch under our feet.
                now = self.now
                pos = self._batch_pos
                while pos < len(batch):
                    callback, args = batch[pos]
                    pos += 1
                    self._batch_pos = pos
                    self._pending -= 1
                    events_executed_total += 1
                    if prof is None:
                        callback(*args)
                    else:
                        prof.dispatch(now, callback, args, self._pending)
                self._batch = None
            if not ticks:
                break
            when = ticks[0]
            if until is not None and when > until:
                break
            heapq.heappop(ticks)
            if self.sanitize:
                sanitize.check_clock(self.now, when)
            self.now = when
            self._batch = buckets.pop(when)
            self._batch_pos = 0
        if until is not None and until > self.now:
            self.now = until

    def close(self) -> None:
        """Tear down a simulator that will not run again.

        Drops every queued or waitlisted callback, detaches each live
        process from the event or sleep it is parked on, and closes its
        generator, so the ``finally`` blocks of parked processes run
        now, once, in creation order.  Nothing is dispatched (``events_executed_total`` does not
        move).  What is left holds no reference cycle through the
        simulator, so reference counting frees it as soon as the caller
        drops it.  Idempotent.
        """
        live, self._live = self._live, {}
        # Detach every process before closing any generator: a
        # ``finally`` block that triggers an event must not resume a
        # process that is about to be closed.
        for process in live:
            process._detach()  # noqa: SLF001
        for process in live:
            process._generator.close()  # noqa: SLF001
        waitlists, self._waitlists = self._waitlists, []
        for waitlist in waitlists:
            waitlist.clear()
        self._buckets.clear()
        self._ticks.clear()
        self._batch = None
        self._batch_pos = 0
        self._pending = 0

    def run_until_event(self, event: Event, limit: Optional[int] = None) -> None:
        """Run until ``event`` triggers (or the queue drains / limit hits)."""
        while not event.triggered:
            if limit is not None:
                when = self.peek()
                if when is not None and when > limit:
                    break
            if not self.step():
                break

    def peek(self) -> Optional[int]:
        """Timestamp of the next callback to run, or ``None`` if drained."""
        batch = self._batch
        if batch is not None and self._batch_pos < len(batch):
            return self.now
        if self._ticks:
            return self._ticks[0]
        return None

    @property
    def pending_count(self) -> int:
        """Number of callbacks still queued (microtask-ring entries and
        the un-drained remainder of the current batch included)."""
        return self._pending
