"""Device power model.

A wall-socket view: idle floor plus dynamic power per active flash
operation and per active channel transfer.  The controller reports every
operation's ``(kind, start, end)`` interval; the meter only records the
interval's two transitions and integrates piecewise-constant power in
closed form when it is read — exactly what the paper's Figures 7a/8
plot.  It schedules no simulator events, so every read is "as of
``sim.now``": transitions booked for a later instant are not counted yet.

Recording appends each transition to a flat pending buffer, one int
packing its clamped time and a small kind code.  A fold sorts the
pending transitions that are due (``t <= sim.now``) by time — stably,
so same-instant transitions keep call order, the FIFO order an event
queue would dispatch them in — and turns them into running counts,
watts, sequentially accumulated energy and the power series.
Folds run on every read and whenever the pending buffer passes a fixed
size, which keeps memory bounded on long runs.

Calibration targets (paper Section IV-D2): idle ~3.8 W, read workloads
~4.1 W on both devices, async writes ~30 % lower on the ULL SSD than the
NVMe SSD (SLC-like Z-NAND programs in fewer incremental steps than MLC),
NVMe power *dips* during GC while ULL GC costs ~12 % extra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.flash.chip import OpKind
from repro.sim.engine import Simulator
from repro.stats.timeseries import Points

#: Kind codes of a begin transition; an end transition adds ``_END``.
#: A pending transition is one int: its time shifted left by
#: ``_CODE_BITS``, or-ed with its code.
_READ, _PROGRAM, _ERASE, _TRANSFER = 0, 1, 2, 3
_END = 4
_CODE_BITS = 3
_CODE_MASK = (1 << _CODE_BITS) - 1
_KINDS = np.array([[_READ], [_PROGRAM], [_ERASE], [_TRANSFER]])
#: Pending transitions that trigger a fold from the recording path.
_FOLD_CHUNK = 1 << 14


@dataclass(frozen=True)
class PowerParams:
    """Static and per-activity power (watts)."""

    idle_w: float = 3.8
    read_op_w: float = 0.010  # array sensing, per physical die
    program_op_w: float = 0.150  # per physical die (MLC default)
    erase_op_w: float = 0.120  # per physical die
    transfer_w: float = 0.020  # per active channel transfer


class PowerMeter:
    """Counts active operations and integrates instantaneous power."""

    def __init__(
        self,
        sim: Simulator,
        params: PowerParams,
        *,
        dies_per_op: int = 1,
    ) -> None:
        self.sim = sim
        self.params = params
        self.dies_per_op = dies_per_op
        # Pending transitions in call order, time and code packed.
        self._pending: List[int] = []
        self._fold_at = _FOLD_CHUNK
        # Folded state: active reads/programs/erases/transfers, the last
        # transition and the power it set, energy (W*ns) up to it.
        self._counts = np.zeros((4, 1), dtype=np.int64)
        self._last_t = 0
        self._last_w = params.idle_w
        self._energy = 0.0
        self._series_t = [np.empty(0, dtype=np.int64)]
        self._series_w = [np.empty(0, dtype=np.float64)]

    # ------------------------------------------------------------------
    def observe_op(self, kind: OpKind, start: int, end: int) -> None:
        """Register a flash array operation (the FlashDie observer hook)."""
        if end <= start:
            return
        if kind is OpKind.READ:
            code = _READ
        elif kind is OpKind.PROGRAM:
            code = _PROGRAM
        else:
            code = _ERASE
        now = self.sim.now
        pending = self._pending
        pending.append((start if start > now else now) << _CODE_BITS | code)
        pending.append((end if end > now else now) << _CODE_BITS | code | _END)
        if len(pending) >= self._fold_at:
            self._fold()

    def observe_transfer(self, start: int, end: int) -> None:
        """Register a channel data transfer interval."""
        if end <= start:
            return
        now = self.sim.now
        pending = self._pending
        pending.append((start if start > now else now) << _CODE_BITS | _TRANSFER)
        pending.append((end if end > now else now) << _CODE_BITS | _TRANSFER | _END)
        if len(pending) >= self._fold_at:
            self._fold()

    # ------------------------------------------------------------------
    def instantaneous_watts(self) -> float:
        self._fold()
        return self._last_w

    def average_watts(self, until_ns: int) -> float:
        """Mean power from t=0 to ``until_ns``."""
        self._fold()
        if until_ns <= 0:
            return self._last_w
        total = self._energy + self._last_w * max(0, until_ns - self._last_t)
        return total / until_ns

    @property
    def series(self) -> Points:
        """Raw power-transition time series (for Fig. 8)."""
        self._fold()
        if len(self._series_t) > 1:
            self._series_t = [np.concatenate(self._series_t)]
            self._series_w = [np.concatenate(self._series_w)]
        return Points(self._series_t[0], self._series_w[0])

    # ------------------------------------------------------------------
    def _fold(self) -> None:
        """Integrate every pending transition with ``t <= sim.now``."""
        if not self._pending:
            return
        packed = np.array(self._pending, dtype=np.int64)
        times = packed >> _CODE_BITS
        due = times <= self.sim.now
        self._pending = packed[~due].tolist()
        # Transitions booked for later stay pending; the next size-driven
        # fold waits for a whole new chunk, not for one more call.
        self._fold_at = len(self._pending) + _FOLD_CHUNK
        if not due.any():
            return
        times = times[due]
        order = np.argsort(times, kind="stable")
        times = times[order]
        codes = packed[due][order] & _CODE_MASK
        step = 1 - 2 * (codes >= _END)
        kinds = codes % _END
        # Active count per kind (rows) after each transition (columns).
        active = self._counts + np.cumsum((kinds == _KINDS) * step, axis=1)
        underflow = active.min(axis=1) < 0
        assert not underflow[:3].any(), "power meter op underflow"
        assert not underflow[3], "power meter transfer underflow"
        # One fixed float expression, elementwise: read, program, erase
        # left to right, then transfers, then the idle floor.
        reads, programs, erases, transfers = active
        params = self.params
        dies = self.dies_per_op
        dynamic = (
            reads * params.read_op_w * dies
            + programs * params.program_op_w * dies
            + erases * params.erase_op_w * dies
        )
        dynamic = dynamic + transfers * params.transfer_w
        watts = params.idle_w + dynamic
        # Energy: the power before each transition times the time since
        # the one before it, accumulated in order.
        before_t = np.concatenate(([self._last_t], times[:-1]))
        before_w = np.concatenate(([self._last_w], watts[:-1]))
        energy = np.cumsum(
            np.concatenate(([self._energy], before_w * (times - before_t)))
        )
        self._energy = float(energy[-1])
        self._counts = active[:, -1:].copy()
        self._last_t = int(times[-1])
        self._last_w = float(watts[-1])
        self._series_t.append(times)
        self._series_w.append(watts)
