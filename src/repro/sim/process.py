"""Generator-driven processes.

A process wraps a generator that yields events.  Each time a yielded event
triggers, the process resumes with the event's value.  A process is
itself an event that triggers with the generator's return value, so
``run_until_event(process)`` runs a job to its end and processes can wait
on each other by yielding them.

A generator may also yield a :class:`~repro.sim.events.Sleep` (from
``sim.sleep(ns)``): the process then schedules its own wake, with no
event in between.  Anything else it yields is a bug: the generator is
closed and :class:`TypeError` raises out of the dispatch, as any
exception the generator raises does.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.sim import sanitize
from repro.sim.events import Event, Sleep


class Process(Event):
    """An event representing the lifetime of a running generator."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Iterator) -> None:  # noqa: F821
        if not hasattr(generator, "send"):
            raise TypeError(
                "process() requires a generator; did you forget to call "
                "the generator function?"
            )
        super().__init__(sim)
        self._generator = generator
        #: The event the generator is parked on, so that
        #: :meth:`~repro.sim.engine.Simulator.close` can detach it.
        self._waiting_on: Optional[Event] = None
        # Tracked until the generator finishes, so Simulator.close() can
        # close whatever is still parked.
        sim._live[self] = None  # noqa: SLF001
        # Start on the next simulation step so creation order does not
        # matter within a single instant.
        sim.post(self._resume, None)

    def _on_event(self, event: Event, lead: bool = False) -> None:
        """The event we wait on fired.  Called from its trigger, inside
        whatever code triggered it (``lead`` False unless that code
        handed the event off as its last act), or as a posted microtask
        for an event that was ready when yielded (``lead`` True)."""
        self._waiting_on = None
        sim = self.sim
        outer = sim._lead  # noqa: SLF001
        if sim._handoff is event:  # noqa: SLF001
            lead = True
        self._resume(event._value, lead)  # noqa: SLF001
        sim._lead = outer  # noqa: SLF001

    def _resume(self, value: Any, lead: bool = True) -> None:
        """Run the generator to its next yield.  ``lead``: the dispatch
        loop called us directly, so the generator may run ahead
        (:meth:`~repro.sim.engine.Simulator.advance_if_next`).  A sleep's
        wake is this method, scheduled with ``value`` None."""
        sim = self.sim
        sim._lead = lead  # noqa: SLF001
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            sim._live.pop(self, None)  # noqa: SLF001
            self.succeed(stop.value)
            return
        except BaseException:
            sim._live.pop(self, None)  # noqa: SLF001
            raise
        if target.__class__ is Sleep:
            # The wake is the first thing scheduled after the sleep()
            # call, so it takes the FIFO slot an event whose succeed()
            # was scheduled there would have taken.
            sim.schedule_at(sim.now + target.delay, self._resume, None)
            return
        if not isinstance(target, Event):
            sim._live.pop(self, None)  # noqa: SLF001
            self._generator.close()
            raise TypeError(f"process yielded a non-event: {target!r}")
        if sim.sanitize:
            sanitize.check_owner(sim, target, "wait (process yield)")
        self._waiting_on = target
        if target.triggered:
            # Flatten recursion: a ready event resumes us as a same-tick
            # microtask instead of recursing synchronously — and, since
            # PR 7, without a heap round-trip.
            sim.post(self._on_event, target, True)
        else:
            target.add_callback(self._on_event)
