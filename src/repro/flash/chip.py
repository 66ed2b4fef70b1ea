"""Per-die flash operation model with program suspend/resume.

A die executes one array operation at a time (read / program / erase).
Operations are booked analytically on a timeline: issuing an operation
reserves the earliest feasible interval and returns it, so no simulation
process is needed per flash transaction.

The Z-NAND-specific mechanism (paper Section II-A3): when a read arrives
while a program (or erase) is mid-flight, the die *suspends* the program,
serves the read after a small suspend penalty, and then *resumes* the
program, pushing its completion out by the read's duration plus the
suspend/resume overheads.  This is what keeps ULL read latency flat under
write interference (Fig. 6) and hides garbage collection (Figs. 7b, 8b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.flash.timing import FlashTiming
from repro.sim.engine import Simulator
from repro.sim.rng import UniformStream


class OpKind(enum.Enum):
    """Array operation types."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


@dataclass
class _InFlightOp:
    kind: OpKind
    start: int
    end: int
    suspends_used: int = 0


class FlashDie:
    """One flash die (a "way" on a channel).

    ``observer`` (if given) is called as ``observer(kind, start, end)``
    for every booked operation — the power model subscribes through this
    hook.
    """

    def __init__(
        self,
        sim: Simulator,
        timing: FlashTiming,
        *,
        allow_suspend: bool = False,
        observer: Optional[Callable[[OpKind, int, int], None]] = None,
        seed: int = 97,
    ) -> None:
        self.sim = sim
        self.timing = timing
        self.allow_suspend = allow_suspend
        self.observer = observer
        # Slot-cached timing: the per-op-class table resolved once, plus
        # the bound draw method — booking an op reads flat locals instead
        # of walking timing-attribute chains per call.  Jitter is the
        # die's only draw kind (one uniform per jittered op), so its
        # stream is block-drawn (repro.sim.rng) with bit-identical values.
        self._slots = timing.slots()
        self._random = UniformStream(seed).random
        self.free_at: int = 0
        self.busy_ns: int = 0
        self._last_slow_op: Optional[_InFlightOp] = None
        # End of the most recent suspended read: a second read arriving
        # during the same program must queue behind the first one.
        self._read_front: int = 0
        # Counters for tests / reporting.
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self.suspends = 0

    # ------------------------------------------------------------------
    # Reads run once per mapping unit and programs once per flush
    # batch, so both book inline.  A jittered op takes
    # ``base * (1 + U(-jitter, +jitter))``, with ``U`` mapped from the
    # die's next double ``u`` as ``UniformStream.uniform`` maps it
    # (``low + (high - low) * u``): the same durations, drawn in the
    # same order.
    def read(self, not_before: int = 0) -> Tuple[int, int]:
        """Book a page read; returns its ``(start, end)`` interval."""
        self.reads += 1
        slots = self._slots
        duration = slots.read_ns
        jitter = slots.read_jitter
        if jitter > 0.0:
            factor = 1.0 + (-jitter + (jitter + jitter) * self._random())
            duration = max(1, int(round(duration * factor)))
        now = self.sim.now
        arrival = not_before if not_before > now else now
        if self.allow_suspend:
            slow = self._suspendable_op(arrival)
            if slow is not None:
                return self._suspend_and_read(slow, arrival, duration)
        start = self.free_at
        if arrival > start:
            start = arrival
        end = start + duration
        self.free_at = end
        self.busy_ns += duration
        if self.observer is not None:
            self.observer(OpKind.READ, start, end)
        return start, end

    def program(self, not_before: int = 0) -> Tuple[int, int]:
        """Book a page program; returns its ``(start, end)`` interval."""
        self.programs += 1
        slots = self._slots
        duration = slots.program_ns
        jitter = slots.program_jitter
        if jitter > 0.0:
            factor = 1.0 + (-jitter + (jitter + jitter) * self._random())
            duration = max(1, int(round(duration * factor)))
        start = max(self.sim.now, self.free_at, not_before)
        end = start + duration
        self.free_at = end
        self.busy_ns += duration
        if self.observer is not None:
            self.observer(OpKind.PROGRAM, start, end)
        self._last_slow_op = _InFlightOp(OpKind.PROGRAM, start, end)
        return start, end

    def erase(self, not_before: int = 0) -> Tuple[int, int]:
        """Book a block erase; returns its ``(start, end)`` interval."""
        self.erases += 1
        duration = self._slots.erase_ns
        start = max(self.sim.now, self.free_at, not_before)
        end = start + duration
        self.free_at = end
        self.busy_ns += duration
        if self.observer is not None:
            self.observer(OpKind.ERASE, start, end)
        self._last_slow_op = _InFlightOp(OpKind.ERASE, start, end)
        return start, end

    # ------------------------------------------------------------------
    def _suspendable_op(self, arrival: int) -> Optional[_InFlightOp]:
        """The slow op to suspend for a read arriving at ``arrival``
        (the die was built with ``allow_suspend``).

        Suspension applies only when the slow operation is the *last*
        thing booked on the die (``free_at`` equals its end) — i.e. the
        read would otherwise wait directly behind it.  If other work is
        already queued behind the slow op, the read takes the FIFO path.
        """
        slow = self._last_slow_op
        if slow is None:
            return None
        if slow.end != self.free_at:
            return None  # other ops queued behind; plain FIFO
        if not slow.start <= arrival < slow.end:
            return None  # not actually in flight at arrival
        if slow.suspends_used >= self._slots.max_suspends_per_op:
            return None
        return slow

    def _suspend_and_read(
        self, slow: _InFlightOp, arrival: int, read_ns: int
    ) -> Tuple[int, int]:
        slots = self._slots
        read_start = max(arrival + slots.suspend_ns, self._read_front)
        read_end = read_start + read_ns
        self._read_front = read_end
        # The slow op loses the window [arrival, read_end] and pays the
        # resume overhead on top.
        stolen = (read_end - arrival) + slots.resume_ns
        slow.end += stolen
        slow.suspends_used += 1
        self.free_at = slow.end
        self.busy_ns += read_ns + slots.suspend_ns + slots.resume_ns
        self.suspends += 1
        if self.observer is not None:
            self.observer(OpKind.READ, read_start, read_end)
        return read_start, read_end

    # ------------------------------------------------------------------
    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` this die spent busy."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)
