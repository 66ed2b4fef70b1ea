"""Generator-driven processes.

A process wraps a generator that yields events.  Each time a yielded event
triggers, the process resumes with the event's value; if the event failed,
the exception is thrown into the generator.  A process is itself an event
that triggers with the generator's return value, so processes can wait on
each other by yielding them.

A generator may also yield a :class:`~repro.sim.events.Sleep` (from
``sim.sleep(ns)``): the process then schedules its own wake, with no
event in between.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.sim import sanitize
from repro.sim.events import Event, Sleep, Wait


class Interrupted(Exception):
    """Thrown into a process that was interrupted from the outside."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


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
        #: The event or sleep the generator is parked on.  A sleep wake
        #: only resumes the process while its token is still here.
        self._waiting_on: Optional[Wait] = None
        # Tracked until the generator finishes, so Simulator.close() can
        # close whatever is still parked.
        sim._live[self] = None  # noqa: SLF001
        # Start on the next simulation step so creation order does not
        # matter within a single instant.
        sim.post(self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its yield point."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        # Detach for real: the event we were parked on may still
        # trigger later (a pending timeout, a racing AnyOf), and its
        # callback list must no longer reach us — otherwise every
        # interrupt leaves a live callback that fires as a stale wakeup
        # (pure dispatch overhead the profiler counts).  A pending sleep
        # wake stays queued and arrives stale.
        self._detach()
        self.sim.post(self._deliver, Interrupted(cause))

    def _deliver(self, interrupt: Interrupted) -> None:
        # Detach again: a process that interrupted itself (or was
        # interrupted from code it woke) has parked on something new
        # since, and must not be resumed from there a second time.
        self._detach()
        self._resume(None, interrupt)

    def _detach(self) -> None:
        """Forget the event or sleep the process is parked on."""
        waiting_on, self._waiting_on = self._waiting_on, None
        if isinstance(waiting_on, Event) and not waiting_on.triggered:
            waiting_on.remove_callback(self._on_event)

    # ------------------------------------------------------------------
    def _note_stale(self) -> None:
        # Stale wakeup after an interrupt: pure dispatch overhead,
        # which is exactly what the self-profiler wants to count.
        prof = getattr(self.sim, "_prof", None)
        if prof is not None:
            prof.note_stale()

    def _on_event(self, event: Event, lead: bool = False) -> None:
        """The event we wait on fired.  Called from its trigger, inside
        whatever code triggered it (``lead`` False unless that code
        handed the event off as its last act), or as a posted microtask
        for an event that was ready when yielded (``lead`` True)."""
        if event is not self._waiting_on:
            self._note_stale()
            return
        self._waiting_on = None
        sim = self.sim
        outer = sim._lead  # noqa: SLF001
        if sim._handoff is event:  # noqa: SLF001
            lead = True
        if event.ok:
            self._resume(event._value, None, lead)  # noqa: SLF001
        else:
            self._resume(None, event._exception, lead)  # noqa: SLF001
        sim._lead = outer  # noqa: SLF001

    def _wake(self, token: Sleep) -> None:
        """A sleep elapsed: resume, unless an interrupt moved us on."""
        if token is not self._waiting_on:
            self._note_stale()
            return
        self._waiting_on = None
        self._resume(None, None)

    def _resume(
        self, value: Any, exception: BaseException | None, lead: bool = True
    ) -> None:
        """Run the generator to its next yield.  ``lead``: the dispatch
        loop called us directly, so the generator may run ahead
        (:meth:`~repro.sim.engine.Simulator.advance_if_next`)."""
        if self._triggered:
            return
        sim = self.sim
        sim._lead = lead  # noqa: SLF001
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            sim._live.pop(self, None)  # noqa: SLF001
            self.succeed(stop.value)
            return
        except Interrupted:
            # Interrupt not handled by the generator: the process dies
            # quietly (it was cancelled on purpose).
            sim._live.pop(self, None)  # noqa: SLF001
            self.succeed(None)
            return
        except BaseException:
            sim._live.pop(self, None)  # noqa: SLF001
            raise
        if target.__class__ is Sleep:
            # The wake is the first thing scheduled after the sleep()
            # call, so it takes the FIFO slot a Timeout built there
            # would have taken.
            self._waiting_on = target
            sim.schedule_at(sim.now + target.delay, self._wake, target)
            return
        if not isinstance(target, Event):
            sim._live.pop(self, None)  # noqa: SLF001
            self._generator.close()
            self.fail(
                TypeError(f"process yielded a non-event: {target!r}")
            )
            return
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
