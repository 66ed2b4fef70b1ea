"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` starts *pending* and is later *triggered* exactly once
with a value (success) or an exception (failure).  Callbacks registered on
the event run when it triggers; a :class:`~repro.sim.process.Process` that
yields an event is resumed through such a callback.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Union

from repro.sim import sanitize
from repro.units import Ns


class Event:
    """A one-shot synchronization point.

    Events are created through :meth:`repro.sim.engine.Simulator.event`
    (or subclasses such as :class:`Timeout`).  They may be triggered
    immediately or at any later simulated time.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_exception")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """True once the event has fired (successfully or not)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event fired without an exception."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value.  Raises if the event failed or is pending."""
        if not self._triggered:
            raise RuntimeError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered, the callback runs immediately.
        """
        if self._triggered:
            callback(self)
        else:
            assert self._callbacks is not None
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach a previously-registered callback.

        A no-op if the callback was never registered or the event has
        already triggered (the callback list is consumed at trigger
        time).  :meth:`repro.sim.process.Process.interrupt` uses this to
        detach the interrupted process from the event it was waiting on,
        so the event's eventual trigger cannot deliver a stale wakeup.
        """
        callbacks = self._callbacks
        if callbacks is not None and callback in callbacks:
            callbacks.remove(callback)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(value, None)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have the exception thrown into
        them at their yield point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(None, exception)
        return self

    def _trigger(self, value: Any, exception: Optional[BaseException]) -> None:
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: Ns, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.succeed(value)


class Sleep:
    """A pause request: what :meth:`repro.sim.engine.Simulator.sleep`
    returns for a process to yield.

    Not an event — nothing can wait on or race it.  The yielding
    process schedules its own wake ``delay`` ns later and uses the
    instance as that wake's token, so an interrupt that moves the
    process on turns the queued wake into a stale one.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: Ns) -> None:
        self.delay = delay


#: What a process generator may yield.
Wait = Union[Event, Sleep]


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    The value is the event that won the race.  Failures propagate: if the
    first event to fire failed, this event fails with the same exception.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(sim)
        events = list(events)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        if getattr(sim, "sanitize", False):
            for event in events:
                sanitize.check_owner(sim, event, "race (AnyOf)")
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event.ok:
            self.succeed(event)
        else:
            self.fail(event._exception)  # noqa: SLF001
