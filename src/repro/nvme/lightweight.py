"""A lightweight NCQ-style queue protocol — the paper's Section IV-C
implication, implemented.

The paper observes that the ULL SSD reaches its maximum bandwidth with
only ~8-16 queue entries, and concludes that NVMe's rich multi-queue
machinery (64 K-entry rings in host memory, DMA'd SQEs, doorbell
round trips) is *overkill* for ultra-low-latency devices: "a future
ULL-enabled system may require to have a lighter queue mechanism and
simpler protocol, such as NCQ of SATA".

:class:`LightQueuePair` is that prototype: a 32-entry register-latched
queue.  Commands are written straight into device registers (one MMIO
write burst, no SQE fetch DMA), completions are exposed through a
status register (one uncached load to check, no CQE ring or phase
tags).  It keeps the :class:`~repro.nvme.controller.NvmeQueuePair`
submit/complete interface so the kernel stack and workload engines run
on it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.nvme.command import check_sector_range
from repro.nvme.queue import QueueFull
from repro.sim.engine import Simulator
from repro.ssd.device import IoOp, IoRecord, SsdDevice
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.obs.tracer import IoTrace


@dataclass(frozen=True)
class LightQueueTimings:
    """Protocol latencies of the register-based queue.

    Compare :class:`~repro.nvme.controller.NvmeTimings`: the command is
    latched by the register write itself (no separate SQE fetch DMA),
    and completion is a status-register update (no CQE DMA into host
    memory).
    """

    issue_ns: int = 150  # MMIO burst latches the command in the device
    complete_ns: int = 80  # status register update visible to the host


class LightQueuePair:
    """NCQ-like shallow queue with register-latched commands."""

    #: NCQ's native command queue depth.
    DEPTH = 32

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        *,
        timings: Optional[LightQueueTimings] = None,
        interrupts_enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.device = device
        self.timings = timings or LightQueueTimings()
        self.interrupts_enabled = interrupts_enabled
        self._pending: Dict[int, IoRecord] = {}
        self._free_slots: List[int] = list(range(self.DEPTH))
        self._msi_handlers: List[Callable[[IoRecord], None]] = []
        self.submitted = 0
        self.completed = 0
        registry = sim.obs.registry
        self._m_submitted = registry.counter(
            "lightq.submitted", help="register-latched commands issued"
        )
        self._m_outstanding = registry.gauge(
            "lightq.outstanding", unit="cmds", help="NCQ slots in use"
        )
        self._t_outstanding = sim.obs.telemetry.series(
            "lightq.outstanding", "level", unit="cmds"
        )

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def on_msi(self, handler: Callable[[IoRecord], None]) -> None:
        self._msi_handlers.append(handler)

    # ------------------------------------------------------------------
    def submit(
        self, op: IoOp, offset: Bytes, nbytes: int, *,
        trace: "Optional[IoTrace]" = None,
    ) -> IoRecord:
        """Build an I/O record and latch it into a free register slot."""
        record = IoRecord(self.sim, op, offset, nbytes, trace)
        self.submit_record(record)
        return record

    def submit_record(self, record: IoRecord) -> None:
        """Latch ``record`` into a free register slot (its slot number
        is its command identifier)."""
        if not self._free_slots:
            raise QueueFull(f"all {self.DEPTH} NCQ slots are busy")
        check_sector_range(record.offset, record.nbytes)
        slot = record.cid = self._free_slots.pop()
        self._pending[slot] = record
        self.submitted += 1
        self._m_submitted.inc()
        now = self.sim.now
        self._m_outstanding.add(1, now)
        self._t_outstanding.record(now, len(self._pending))
        if record.trace is not None:
            # MMIO burst in flight: the light-queue analog of the SQ ring.
            record.trace.phase("nvme_sq", now)
        # The register write itself delivers the command.
        self.sim.schedule(self.timings.issue_ns, self._execute, record)

    # ------------------------------------------------------------------
    def _execute(self, record: IoRecord) -> None:
        if record.trace is not None:
            record.trace.phase("ctrl", self.sim.now)
        self.device.serve(record, self._device_done)

    def _device_done(self, record: IoRecord) -> None:
        if record.trace is not None:
            record.trace.phase("cqe_post", self.sim.now)
        self.sim.schedule(self.timings.complete_ns, self._post_status, record)

    def _post_status(self, record: IoRecord) -> None:
        slot = record.cid
        del self._pending[slot]
        self._free_slots.append(slot)
        now = self.sim.now
        self.completed += 1
        self._m_outstanding.add(-1, now)
        self._t_outstanding.record(now, len(self._pending))
        msi = self.interrupts_enabled and bool(self._msi_handlers)
        record.land_cqe(now, last=not msi)
        if msi:
            for handler in self._msi_handlers:
                handler(record)
