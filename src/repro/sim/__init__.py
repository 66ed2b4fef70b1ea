"""Discrete-event simulation substrate.

A small, simpy-like kernel: an event queue ordered by simulated time
(nanoseconds, integers), generator-based processes, callback waitlists
and timeline resources.  Every other subsystem in :mod:`repro` (flash
chips, SSD controllers, the kernel storage stack, SPDK, the NBD server)
is built on top of this package.
"""

from repro.sim.engine import Simulator
from repro.sim.events import AnyOf, Event, Sleep, Timeout
from repro.sim.process import Process
from repro.sim.resources import TimelineResource

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Sleep",
    "AnyOf",
    "Process",
    "TimelineResource",
]
