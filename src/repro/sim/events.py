"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` starts *pending* and is later triggered exactly once,
with a value, by :meth:`Event.succeed`.  Callbacks registered on the
event run when it triggers; a :class:`~repro.sim.process.Process` that
yields an event is resumed through such a callback.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union

from repro.units import Ns


class Event:
    """A one-shot synchronization point.

    Events are created through :meth:`repro.sim.engine.Simulator.event`
    (or as a :class:`~repro.sim.process.Process`).  They may be
    triggered immediately or at any later simulated time.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        """True once the event has fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event fired with.  Raises while it is pending."""
        if not self._triggered:
            raise RuntimeError("event has not been triggered yet")
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
        time).  :meth:`repro.sim.engine.Simulator.close` uses this to
        detach each parked process before it closes any generator.
        """
        callbacks = self._callbacks
        if callbacks is not None and callback in callbacks:
            callbacks.remove(callback)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        return self

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Sleep:
    """A pause request: what :meth:`repro.sim.engine.Simulator.sleep`
    returns for a process to yield.

    Not an event — nothing can wait on it.  The yielding process
    schedules its own wake ``delay`` ns later.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: Ns) -> None:
        self.delay = delay


#: What a process generator may yield.
Wait = Union[Event, Sleep]
