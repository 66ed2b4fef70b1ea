"""The block-device facade over the SSD controller, and the I/O record.

:class:`SsdDevice` is what the NVMe protocol layer (and the examples)
talk to: hand it an :class:`IoRecord` covering a byte range and a
callback that runs when the device would have raised its completion.
All protocol costs (SQ fetch, CQE, MSI, host software) live *above*
this layer; the device covers firmware, DRAM, flash, channels, and the
PCIe data DMA.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.ssd.config import UNIT_SIZE, SsdConfig
from repro.ssd.controller import SsdController
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.ftl.core import PageMappedFtl
    from repro.obs.tracer import IoTrace
    from repro.ssd.controller import ControllerStats
    from repro.ssd.power import PowerMeter


class IoOp(enum.Enum):
    """Block I/O operation."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"  # dataset management / deallocate


class IoRecord:
    """One I/O on its way from blk-mq to flash and back.

    The only per-I/O object on the simulated path.  Whoever starts the
    I/O builds it (the kernel NVMe driver, a queue pair for SPDK, or a
    direct device user), and each layer stamps its own fields as the
    I/O passes: blk-mq the hardware queue, tag and ``hipri`` flag; the
    NVMe queue pair the command identifier and the CQE time (the record
    sits in its SQ ring slot until fetched); :class:`SsdDevice` the
    first LPN, the unit count and the device-done time.

    Completion is signalled without events by default: the device calls
    the callback it was handed, and the queue pair calls ``on_cqe``.
    Host code that blocks on the CQE asks for :attr:`cqe_event`, built
    on first use; a record submitted straight to the device carries a
    ``done`` event.  Neither fires with a value, so no record holds
    itself through its own event.
    """

    __slots__ = (
        "sim", "op", "offset", "nbytes", "submit_ns", "trace",
        "hw_queue", "tag", "hipri", "completed",
        "cid", "cqe_ns", "_cqe_event", "on_cqe", "app_start_ns",
        "lpn", "units", "device_done_ns", "done",
    )

    def __init__(
        self,
        sim: Simulator,
        op: IoOp,
        offset: Bytes,
        nbytes: int,
        trace: "Optional[IoTrace]" = None,
    ) -> None:
        self.sim = sim
        self.op = op
        self.offset = offset
        self.nbytes = nbytes
        #: When the record was built (the issuing layer's submit time).
        self.submit_ns: int = sim.now
        #: The I/O's obs span context, if traced.
        self.trace = trace
        # blk-mq
        self.hw_queue = -1
        self.tag = -1
        self.hipri = False
        self.completed = False
        # NVMe queue pair
        self.cid = -1
        self.cqe_ns: Optional[int] = None
        self._cqe_event: Optional[Event] = None
        #: Called with the record when the CQE lands (libaio reaping).
        self.on_cqe: Optional[Callable[["IoRecord"], None]] = None
        #: When the application started it (before any host software).
        self.app_start_ns = -1
        # device
        self.lpn = -1
        self.units = 0
        self.device_done_ns: Optional[int] = None
        self.done: Optional[Event] = None

    @property
    def cqe_event(self) -> Event:
        """An event that fires when the CQE lands (already fired if it
        has).  Built on first use, so only I/Os whose host code blocks
        on the CQE pay for one."""
        event = self._cqe_event
        if event is None:
            event = self._cqe_event = Event(self.sim)
            if self.cqe_ns is not None:
                event.succeed()
        return event

    def land_cqe(self, cqe_ns: int, *, last: bool = False) -> None:
        """The queue pair's last step: stamp the CQE time, then wake
        whoever waits on it (the CQE event, then ``on_cqe``).  ``last``:
        the caller, dispatched by the simulator loop, does nothing after
        this call, so a host process woken last may run on from here
        (:meth:`~repro.sim.engine.Simulator.hand_off`)."""
        self.cqe_ns = cqe_ns
        event = self._cqe_event
        on_cqe = self.on_cqe
        if event is not None:
            if last and on_cqe is None:
                self.sim.hand_off(event)
            else:
                event.succeed()
        if on_cqe is not None:
            self.on_cqe = None
            on_cqe(self)

    @property
    def device_latency_ns(self) -> int:
        """Device completion minus ``submit_ns``: the device's own
        latency for a record submitted straight to it."""
        if self.device_done_ns is None:
            raise RuntimeError("request not complete yet")
        return self.device_done_ns - self.submit_ns


#: What the device calls when it completes a record.
DeviceDone = Callable[[IoRecord], None]


class SsdDevice:
    """A simulated SSD serving byte-addressed block requests."""

    def __init__(
        self,
        sim: Simulator,
        config: SsdConfig,
        *,
        seed: int = 42,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.controller = SsdController(sim, config, seed=seed, faults=faults)
        self.completed_reads = 0
        self.completed_writes = 0
        self.completed_trims = 0
        if sim.obs.enabled:
            from repro.ssd.registry import spec_label

            sim.obs.label_device(spec_label(config))

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.controller.ftl.capacity_bytes

    @property
    def logical_pages(self) -> int:
        return self.controller.ftl.logical_pages

    @property
    def stats(self) -> "ControllerStats":
        return self.controller.stats

    @property
    def power(self) -> "PowerMeter":
        return self.controller.power

    @property
    def ftl(self) -> "PageMappedFtl":
        return self.controller.ftl

    # ------------------------------------------------------------------
    def submit(
        self, op: IoOp, offset: Bytes, nbytes: int, *, trace: "Optional[IoTrace]" = None
    ) -> IoRecord:
        """Submit a request straight to the device (no queue pair above
        it); the record's ``done`` event fires at device completion."""
        record = IoRecord(self.sim, op, offset, nbytes, trace)
        record.done = Event(self.sim)
        self.serve(record, self._signal_done)
        return record

    def serve(self, record: IoRecord, on_done: "Optional[DeviceDone]") -> None:
        """Serve ``record``; ``on_done(record)`` runs at device completion
        (``None``: nobody listens, as for a command whose completion an
        injected fault lost)."""
        record.lpn, record.units = self._units_of(record.offset, record.nbytes)
        op = record.op
        if op is IoOp.READ:
            self._submit_read(record, on_done)
        elif op is IoOp.WRITE:
            self.sim.post(self._write_start, record, on_done)
        else:
            self._submit_trim(record, on_done)

    def read(self, offset: Bytes, nbytes: int) -> IoRecord:
        return self.submit(IoOp.READ, offset, nbytes)

    def write(self, offset: Bytes, nbytes: int) -> IoRecord:
        return self.submit(IoOp.WRITE, offset, nbytes)

    def trim(self, offset: Bytes, nbytes: int) -> IoRecord:
        """Deallocate a range (NVMe Dataset Management).

        Pure FTL metadata work: the mapped pages are invalidated, which
        both frees the LBAs and makes future GC cheaper (fewer valid
        pages to migrate).  No flash operation is needed.
        """
        return self.submit(IoOp.TRIM, offset, nbytes)

    # ------------------------------------------------------------------
    def precondition(self, fraction: float = 1.0) -> int:
        """Instantly fill the first ``fraction`` of the logical space.

        Mutates FTL state without consuming simulated time — the standard
        "write the whole drive once" preparation the paper performs
        before its GC and read experiments.  Applied in bulk through
        :meth:`~repro.ftl.core.PageMappedFtl.fill_sequential` (state
        identical to the write loop).  Returns the pages written.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        count = int(self.logical_pages * fraction)
        ftl = self.controller.ftl
        ftl.fill_sequential(count)
        ftl.reset_statistics()
        return count

    # ------------------------------------------------------------------
    def _units_of(self, offset: Bytes, nbytes: int) -> Tuple[int, int]:
        """The first LPN and the unit count of a byte range."""
        if offset < 0 or nbytes <= 0:
            raise ValueError("offset must be >= 0 and nbytes > 0")
        if offset % UNIT_SIZE:
            raise ValueError(f"offset must be {UNIT_SIZE}-aligned: {offset}")
        if offset + nbytes > self.capacity_bytes:
            raise ValueError(
                f"request [{offset}, {offset + nbytes}) exceeds capacity "
                f"{self.capacity_bytes}"
            )
        return offset // UNIT_SIZE, self.config.units_of(nbytes)

    def _submit_trim(self, record: IoRecord, on_done: "Optional[DeviceDone]") -> None:
        ftl = self.controller.ftl
        read_cache = self.controller.read_cache
        for lpn in range(record.lpn, record.lpn + record.units):
            ftl.trim(lpn)
            read_cache.discard(lpn)
        done_at = (
            self.sim.now
            + self.config.write_fw_ns
            + self.config.completion_fw_ns
        )
        self.sim.schedule_at(done_at, self._complete, record, on_done)

    def _submit_read(self, record: IoRecord, on_done: "Optional[DeviceDone]") -> None:
        controller = self.controller
        trace = record.trace
        internal_done = controller.read_units(record.lpn, record.units, trace)
        dma_start, dma_done = controller.pcie.reserve(
            self.config.pcie_transfer_ns(record.nbytes), not_before=internal_done
        )
        done_at = dma_done + self.config.completion_fw_ns
        if trace is not None:
            # Data moves host-ward, then completion firmware wraps up.
            trace.wait("ssd.pcie", "dma_backlog", internal_done, dma_start)
            trace.phase("dma", dma_start)
            trace.annotate("pcie_dma", dma_start, dma_done, nbytes=record.nbytes)
            trace.phase("ctrl", dma_done)
        self.sim.schedule_at(done_at, self._complete, record, on_done)

    # ------------------------------------------------------------------
    # Write path: callback stages, no process.  Each stage runs at the
    # tick and in the FIFO slot where a generator process doing the same
    # work would have resumed (see docs/sim-engine.md): a stage a process
    # would reach by sleeping is scheduled at now + delay; one it would
    # reach through an already-granted buffer slot is posted; one it
    # would reach when a blocked slot frees is called from
    # ``WriteBuffer.flushed``.
    # ------------------------------------------------------------------
    def _write_start(self, record: IoRecord, on_done: "Optional[DeviceDone]") -> None:
        """Command firmware."""
        self.sim.schedule_at(
            self.sim.now + self.config.write_fw_ns, self._write_dma, record, on_done
        )

    def _write_dma(self, record: IoRecord, on_done: "Optional[DeviceDone]") -> None:
        """Host-to-device data DMA."""
        now = self.sim.now
        dma_start, dma_done = self.controller.pcie.reserve(
            self.config.pcie_transfer_ns(record.nbytes), not_before=now
        )
        trace = record.trace
        if trace is not None:
            trace.wait("ssd.pcie", "dma_backlog", now, dma_start)
            trace.phase("dma", dma_start)
            trace.annotate("pcie_dma", dma_start, dma_done, nbytes=record.nbytes)
        if dma_done > now:
            self.sim.schedule_at(dma_done, self._write_buffered, record, on_done)
        else:
            self._write_buffered(record, on_done)

    def _write_buffered(self, record: IoRecord, on_done: "Optional[DeviceDone]") -> None:
        if record.trace is not None:
            record.trace.phase("write_buffer", self.sim.now)
        self._write_unit(record, 0, on_done)

    def _write_unit(
        self, record: IoRecord, index: int, on_done: "Optional[DeviceDone]"
    ) -> None:
        """Ask the write buffer for unit ``index``'s slot."""
        self.controller.write_buffer.reserve(
            self._write_admitted, record, index, self.sim.now, on_done
        )

    def _write_admitted(
        self,
        record: IoRecord,
        index: int,
        wait_from: int,
        on_done: "Optional[DeviceDone]",
    ) -> None:
        """Unit ``index`` holds a slot: buffer it, then the next unit or,
        after the last, the completion firmware.  The new data supersedes
        any read-cached copy of the unit."""
        controller = self.controller
        lpn = record.lpn + index
        controller.read_cache.discard(lpn)
        controller.admit_unit(lpn, wait_from, record.trace)
        index += 1
        if index < record.units:
            self._write_unit(record, index, on_done)
            return
        stall = controller.roll_write_stall()
        now = self.sim.now
        trace = record.trace
        if trace is not None:
            if stall:
                trace.phase("write_stall", now)
                trace.phase("ctrl", now + stall)
                trace.wait("ssd.firmware", "write_stall", now, now + stall)
            else:
                trace.phase("ctrl", now)
        config = self.config
        self.sim.schedule_at(
            now + stall + config.dram_hit_ns + config.completion_fw_ns,
            self._complete,
            record,
            on_done,
        )

    def _complete(self, record: IoRecord, on_done: "Optional[DeviceDone]") -> None:
        record.device_done_ns = self.sim.now
        op = record.op
        if op is IoOp.READ:
            self.completed_reads += 1
        elif op is IoOp.WRITE:
            self.completed_writes += 1
        else:
            self.completed_trims += 1
        if on_done is not None:
            on_done(record)

    def _signal_done(self, record: IoRecord) -> None:
        # The last act of _complete, which the simulator loop dispatches.
        assert record.done is not None
        self.sim.hand_off(record.done)
