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
``docs/sim-engine.md`` for the invariants).  ``run`` and
``run_until_event`` share one batch-draining loop, inside which a
process whose sleep would wake as the very next dispatch moves the clock
inline instead (:meth:`Simulator.advance_if_next`).
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.core import current_obs
from repro.sim import sanitize
from repro.sim.events import Event, Sleep
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

#: The horizon while no ``run``/``run_until_event`` loop dispatches:
#: every :meth:`Simulator.advance_if_next` call fails against it.
_IDLE = -1
#: The horizon of a loop with no ``until``/``limit``.
_FOREVER = 1 << 62

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
        #: The active dispatch loop's last tick and its awaited event
        #: (see :meth:`advance_if_next`); ``_IDLE`` outside a loop.
        self._horizon: int = _IDLE
        self._stop: Optional[Event] = None
        #: True while the running generator belongs to a process the
        #: loop dispatched directly, with no other code above it that
        #: could still run at the old instant (set by ``Process``).
        self._lead: bool = False
        #: The event :meth:`hand_off` is triggering, while it does.
        self._handoff: Optional[Event] = None
        #: Under the sanitizer, ``(dispatch number, pending count)`` as
        #: the last :meth:`hand_off` returned; :meth:`_drive` checks
        #: that the dispatch queued nothing after it.
        self._sealed: Optional[Tuple[int, int]] = None
        #: Sampled at construction so one test can run sanitized next to
        #: an unsanitized neighbour (see :mod:`repro.sim.sanitize`).
        self.sanitize: bool = sanitize.enabled()
        self.obs = obs if obs is not None else current_obs()
        self.obs.attach(self)
        #: The self-profiler (``repro.obs.prof``), sampled at
        #: construction like ``sanitize``: ``None`` unless the attached
        #: bundle profiles, so the unprofiled hot path pays exactly one
        #: ``is not None`` check per hook.
        self._prof: "Optional[Profiler]" = self.obs.profiler

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

    def sleep(self, delay: Ns) -> Sleep:
        """Pause the yielding process for ``delay`` ns, with no event.

        ``yield sim.sleep(ns)`` resumes the process ``delay`` ns later,
        on the same tick and in the same FIFO slot as yielding an event
        whose ``succeed`` is scheduled ``delay`` ns out at the call
        would (see ``docs/sim-engine.md``).
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

    def process(self, generator: Iterator) -> Process:
        """Start a new process driving ``generator``.

        The generator yields :class:`~repro.sim.events.Event` instances
        (other processes included) and is resumed with each event's
        value, or a :meth:`sleep` request and is resumed with ``None``
        once it has elapsed.
        """
        return Process(self, generator)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False if none remain.

        Kept for tests and tools: ``run`` and ``run_until_event``
        dispatch through :meth:`_drive`.  A process never runs ahead
        under a bare ``step``."""
        global events_executed_total
        batch = self._batch
        if batch is None or self._batch_pos >= len(batch):
            if not self._ticks:
                self._batch = None
                return False
            when = heapq.heappop(self._ticks)
            if self.sanitize:
                sanitize.check_clock(self.now, when)
            self.now = when
            batch = self._batch = self._buckets.pop(when)
            self._batch_pos = 0
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
        if until is None:
            self._drive(_FOREVER, None)
            return
        until = int(until)
        if until < self.now:
            raise ValueError(f"cannot run backwards: {until} < {self.now}")
        self._drive(until, None)
        if until > self.now:
            self.now = until

    def run_until_event(self, event: Event, limit: Optional[int] = None) -> None:
        """Run until ``event`` triggers (or the queue drains / limit hits).

        Stops right after the callback that triggers ``event``, even in
        the middle of a batch.  A tick past ``limit`` is not started; a
        batch that started is drained (up to the trigger) whatever
        ``limit`` says.
        """
        self._drive(_FOREVER if limit is None else int(limit), event)

    def _drive(self, horizon: int, stop: Optional[Event]) -> None:
        """The dispatch loop: drain the current batch, then each tick up
        to ``horizon``, stopping after the callback that triggers
        ``stop``.  While it runs, :meth:`advance_if_next` may move the
        clock inside a dispatch."""
        global events_executed_total
        if (stop is not None and stop._triggered) or self.now > horizon:  # noqa: SLF001
            return
        prof = self._prof
        checked = self.sanitize
        ticks = self._ticks
        buckets = self._buckets
        self._horizon = horizon
        self._stop = stop
        try:
            while True:
                batch = self._batch
                if batch is not None:
                    # Drain the whole same-tick batch without touching
                    # the heap; the len() is re-read every lap because
                    # microtask appends grow the batch under our feet.
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
                            prof.dispatch(self.now, callback, args, self._pending)
                        if checked and self._sealed is not None:
                            self._check_sealed()
                        if stop is not None and stop._triggered:  # noqa: SLF001
                            return
                    self._batch = None
                if not ticks:
                    return
                when = ticks[0]
                if when > horizon:
                    return
                heapq.heappop(ticks)
                if self.sanitize:
                    sanitize.check_clock(self.now, when)
                self.now = when
                self._batch = buckets.pop(when)
                self._batch_pos = 0
        finally:
            self._horizon = _IDLE
            self._stop = None

    def advance_if_next(self, when: Ns) -> bool:
        """Move the clock to ``when`` in place of a sleep, if the sleep's
        wake would be the very next dispatch; True if it did.

        Process code pauses with ``if not sim.advance_if_next(sim.now +
        d): yield sim.sleep(d)``.  The clock moves only when an active
        ``run``/``run_until_event`` loop dispatched the calling process
        directly (nothing above it can still run at the old instant),
        the current batch is drained, no queued tick is ``<= when``,
        ``when`` lies within the loop's ``until``/``limit``, and the
        loop's awaited event has not triggered.  Then the sleep's wake
        would have run next, at ``when``, with nothing in between, so
        every callback sees the same clock in the same order; only the
        wake's dispatch is saved.  Only process generator code may call
        it.
        """
        if not self._lead or not self.now <= when <= self._horizon:
            return False
        if self._batch_pos < len(self._batch):  # type: ignore[arg-type]
            return False
        ticks = self._ticks
        if ticks and ticks[0] <= when:
            return False
        stop = self._stop
        if stop is not None and stop._triggered:  # noqa: SLF001
            return False
        if self.sanitize:
            sanitize.check_clock(self.now, when)
        self.now = when
        if self._prof is not None:
            # Book the saved wake to the generator that called us.
            self._prof.note_ahead(sys._getframe(1))  # noqa: SLF001
        return True

    def hand_off(self, event: Event) -> None:
        """Trigger ``event`` as the last act of a callback the dispatch
        loop ran directly.  A lone process waiting on it resumes as if
        the loop had dispatched it, so it may run ahead
        (:meth:`advance_if_next`).  Nothing may run after this call in
        the callback: not in the caller, not in its callers."""
        callbacks = event._callbacks  # noqa: SLF001
        if callbacks is not None and len(callbacks) == 1:
            self._handoff = event
            try:
                event.succeed()
            finally:
                self._handoff = None
        else:
            event.succeed()
        if self.sanitize:
            self._sealed = (events_executed_total, self._pending)

    def _check_sealed(self) -> None:
        """Under the sanitizer, after a dispatched callback that called
        :meth:`hand_off`: nothing was queued after the hand-off, when the
        woken process may already have moved the clock."""
        dispatch, pending = self._sealed  # type: ignore[misc]
        self._sealed = None
        if dispatch == events_executed_total:
            sanitize.check_hand_off(pending, self._pending, self.now)

    def close(self) -> None:
        """Tear down a simulator that will not run again.

        Drops every queued or waitlisted callback, detaches each live
        process from the event it is parked on, and closes its
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
            waiting_on = process._waiting_on  # noqa: SLF001
            if waiting_on is not None:
                waiting_on.remove_callback(process._on_event)  # noqa: SLF001
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
        self._sealed = None

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
