"""Discrete-event simulation substrate.

A small kernel: an event queue ordered by simulated time (nanoseconds,
integers), one-shot events, generator-based processes that wait on an
event or sleep, callback waitlists and timeline resources.  Every other
subsystem in :mod:`repro` (flash chips, SSD controllers, the kernel
storage stack, SPDK, the NBD server) is built on top of this package.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Sleep
from repro.sim.process import Process
from repro.sim.resources import TimelineResource

__all__ = [
    "Simulator",
    "Event",
    "Sleep",
    "Process",
    "TimelineResource",
]
