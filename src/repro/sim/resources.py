"""Resources: contention points shared by simulated hardware.

:class:`TimelineResource` is a *timestamp* resource: acquiring it
reserves the earliest available interval of a given duration.  This is
the cheap analytic model used for flash channels and dies, where we only
need each unit's busy timeline, not a process per operation.  Queues of
parked work that wait on a unit freeing up are :meth:`Simulator.waitlist
<repro.sim.engine.Simulator.waitlist>` deques.
"""

from __future__ import annotations

from typing import Tuple

from repro.units import Ns


class TimelineResource:
    """A unit whose availability is a single "free at" timestamp.

    ``reserve(duration)`` books the earliest interval starting no sooner
    than *now* and returns ``(start, end)``.  This models FIFO service at
    a hardware unit (flash die, channel bus, DMA engine) without creating
    a simulation process per operation.
    """

    __slots__ = ("sim", "free_at", "busy_ns")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        self.free_at: int = 0
        self.busy_ns: int = 0

    def reserve(self, duration: Ns, not_before: Ns = 0) -> Tuple[int, int]:
        """Book ``duration`` ns; returns the booked ``(start, end)``."""
        if duration < 0:
            raise ValueError("negative duration")
        start = max(self.sim.now, self.free_at, not_before)
        end = start + int(duration)
        self.free_at = end
        self.busy_ns += int(duration)
        return start, end

    def peek_start(self, not_before: int = 0) -> int:
        """Earliest time a new reservation could start (no booking)."""
        return max(self.sim.now, self.free_at, not_before)

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` spent busy."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)
