"""NVMe controller front-end and queue pairs.

The controller sits between the host driver (kernel or SPDK) and the
:class:`~repro.ssd.device.SsdDevice`: a tail-doorbell write triggers a
command fetch (one PCIe read of the SQE), the command is handed to the
device, and when the device finishes the controller posts a CQE and —
when interrupts are enabled on the queue pair — raises an MSI.

Host-side software costs (ISR, polling, syscalls) do NOT live here;
completion engines in :mod:`repro.kstack` and :mod:`repro.spdk` layer
them on top of the CQE time the queue pair stamps on each I/O record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.nvme.command import check_sector_range
from repro.nvme.queue import CompletionQueue, QueueFull, SubmissionQueue
from repro.sim.engine import Simulator
from repro.ssd.device import IoOp, IoRecord, SsdDevice
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs.tracer import IoTrace

@dataclass(frozen=True)
class NvmeTimings:
    """Protocol-level latencies (PCIe round trips for queue traffic)."""

    sq_fetch_ns: int = 400  # doorbell -> SQE DMA'd into the controller
    cqe_post_ns: int = 200  # device done -> CQE visible in host memory
    msi_ns: int = 100  # CQE -> MSI write reaches the host bridge


class NvmeQueuePair:
    """One SQ/CQ pair bound to a controller.

    ``interrupts_enabled`` controls whether the controller raises MSIs;
    the polled and SPDK paths disable them (Section II-B3/4).
    """

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        *,
        depth: int = 1024,
        timings: Optional[NvmeTimings] = None,
        interrupts_enabled: bool = True,
        fault_injector: "Optional[FaultInjector]" = None,
        index: int = 0,
    ) -> None:
        self.sim = sim
        self.device = device
        self.timings = timings or NvmeTimings()
        self.interrupts_enabled = interrupts_enabled
        self.index = index
        self.sq = SubmissionQueue(depth)
        self.cq = CompletionQueue(depth)
        self._pending: Dict[int, IoRecord] = {}
        self._next_cid = 0
        self._msi_handlers: List[Callable[[IoRecord], None]] = []
        # Statistics.
        self.submitted = 0
        self.completed = 0
        self.timeouts = 0
        self.resets = 0
        # Observability (no-op instruments unless a registry is installed).
        registry = sim.obs.registry
        self._m_submitted = registry.counter("nvme.sq.submitted", help="SQEs issued")
        self._m_completed = registry.counter("nvme.cq.completed", help="CQEs posted")
        self._m_outstanding = registry.gauge(
            "nvme.qpair.outstanding", unit="cmds", help="commands in flight"
        )
        telemetry = sim.obs.telemetry
        self._t_sq_depth = telemetry.series(
            f"nvme.q{index}.sq_occupancy", "level", unit="sqes"
        )
        self._t_outstanding = telemetry.series(
            f"nvme.q{index}.outstanding", "level", unit="cmds"
        )
        self._t_fault_recovery = telemetry.series(
            "faults.nvme.recovery", "busy", unit="frac"
        )
        # Fault injection (repro.faults): lost completions recovered by
        # the host's command timer; see NvmeFaults.
        self._faults = fault_injector
        if self._faults is not None:
            self._m_timeouts = registry.counter(
                "faults.nvme.timeouts",
                help="injected command timeouts (completion lost)",
            )
            self._m_resets = registry.counter(
                "faults.nvme.resets", help="controller resets forced by timeouts"
            )

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def on_msi(self, handler: Callable[[IoRecord], None]) -> None:
        """Register an MSI handler (the kernel driver's ISR entry)."""
        self._msi_handlers.append(handler)

    # ------------------------------------------------------------------
    def submit(
        self, op: IoOp, offset: Bytes, nbytes: int, *,
        trace: "Optional[IoTrace]" = None,
    ) -> IoRecord:
        """Build an I/O record, queue it as an SQE and ring the doorbell."""
        record = IoRecord(self.sim, op, offset, nbytes, trace)
        self.submit_record(record)
        return record

    def submit_record(self, record: IoRecord) -> None:
        """Stamp a command identifier on ``record``, place it in the SQ
        and ring the tail doorbell."""
        if self.sq.is_full:
            raise QueueFull("no free submission queue entry")
        check_sector_range(record.offset, record.nbytes)
        cid = record.cid = self._allocate_cid()
        self._pending[cid] = record
        self.sq.push(record)
        self.submitted += 1
        self._m_submitted.inc()
        now = self.sim.now
        self._m_outstanding.add(1, now)
        self._t_sq_depth.record(now, self.sq.occupancy())
        self._t_outstanding.record(now, len(self._pending))
        if record.trace is not None:
            # Doorbell rung: the SQE sits in the ring until the fetch DMA.
            record.trace.phase("nvme_sq", now)
        # Controller fetches the SQE one PCIe round-trip later.
        self.sim.schedule(self.timings.sq_fetch_ns, self._fetch_and_execute)

    # ------------------------------------------------------------------
    def _allocate_cid(self) -> int:
        for _ in range(self.sq.depth):
            cid = self._next_cid
            self._next_cid = (self._next_cid + 1) % (1 << 16)
            if cid not in self._pending:
                return cid
        raise QueueFull("no free command identifier")

    def _fetch_and_execute(self) -> None:
        if self.sq.is_empty:
            return  # already fetched by an earlier doorbell callback
        record = self.sq.fetch()
        self._t_sq_depth.record(self.sim.now, self.sq.occupancy())
        self._execute(record, attempt=0)

    def _execute(self, record: IoRecord, attempt: int) -> None:
        """Hand one command to the device; ``attempt`` counts injected
        timeouts already suffered by this command."""
        trace = record.trace
        if trace is not None:
            # SQE is in the controller: firmware takes over.
            trace.phase("ctrl", self.sim.now)
            if attempt == 0:
                # SQ residence beyond the fetch DMA itself is queueing
                # behind earlier doorbells (head-of-line blocking).
                trace.wait(
                    f"nvme.q{self.index}",
                    "sq_backlog",
                    record.submit_ns + self.timings.sq_fetch_ns,
                    self.sim.now,
                )
        fi = self._faults
        if (
            fi is not None
            and attempt < fi.spec.max_retries
            and fi.roll(fi.spec.timeout_prob)
        ):
            # Injected fault: the completion is lost in flight.  The
            # device still does the work; nothing reaches the CQ until
            # the host's command timer expires and the command is
            # aborted and re-delivered.
            self.device.serve(record, None)
            self.sim.schedule(
                fi.spec.timeout_ns, self._command_timeout, record, attempt + 1
            )
            return
        self.device.serve(record, self._device_done)

    def _command_timeout(self, record: IoRecord, attempt: int) -> None:
        """The host's timer fired: abort and re-deliver the command.

        The ``reset_after``-th timeout of the same command escalates to
        a controller reset (``reset_ns`` of recovery) before the retry —
        the nvme driver's timeout handler does exactly this ladder.
        """
        if self._pending.get(record.cid) is not record:
            return
        fi = self._faults
        assert fi is not None
        self.timeouts += 1
        self._m_timeouts.inc()
        now = self.sim.now
        trace = record.trace
        self._t_fault_recovery.add_interval(now - fi.spec.timeout_ns, now)
        if trace is not None:
            trace.annotate(
                "nvme_timeout", now - fi.spec.timeout_ns, now, attempt=attempt
            )
            trace.wait(
                f"nvme.q{self.index}",
                "timeout_recovery",
                now - fi.spec.timeout_ns,
                now,
            )
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.span(
                "faults",
                "nvme_timeout",
                now - fi.spec.timeout_ns,
                now,
                cid=record.cid,
                attempt=attempt,
            )
        if attempt >= fi.spec.reset_after:
            self.resets += 1
            self._m_resets.inc()
            self._t_fault_recovery.add_interval(now, now + fi.spec.reset_ns)
            if tracer.enabled:
                tracer.span(
                    "faults", "nvme_reset", now, now + fi.spec.reset_ns,
                    cid=record.cid,
                )
            if trace is not None:
                trace.annotate("nvme_reset", now, now + fi.spec.reset_ns)
                trace.wait(
                    f"nvme.q{self.index}",
                    "controller_reset",
                    now,
                    now + fi.spec.reset_ns,
                )
            self.sim.schedule(fi.spec.reset_ns, self._execute, record, attempt)
        else:
            self._execute(record, attempt)

    def _device_done(self, record: IoRecord) -> None:
        if record.trace is not None:
            record.trace.phase("cqe_post", self.sim.now)
        self.sim.schedule(self.timings.cqe_post_ns, self._post_cqe, record)

    def _post_cqe(self, record: IoRecord) -> None:
        cid = record.cid
        if self._pending.pop(cid, None) is not record:
            raise RuntimeError(f"completion for unknown cid {cid}")
        self.cq.post(cid)
        self.cq.reap()  # host consumes on detection; keep the ring tidy
        now = self.sim.now
        self.completed += 1
        self._m_completed.inc()
        self._m_outstanding.add(-1, now)
        self._t_outstanding.record(now, len(self._pending))
        # With no handler registered (the kernel stack models the MSI
        # flight in its completion costs) there is no MSI to deliver.
        msi = self.interrupts_enabled and bool(self._msi_handlers)
        record.land_cqe(now, last=not msi)
        if msi:
            self.sim.schedule(self.timings.msi_ns, self._raise_msi, record)

    def _raise_msi(self, record: IoRecord) -> None:
        for handler in self._msi_handlers:
            handler(record)


class NvmeController:
    """Factory tying an SSD to its queue pairs.

    Real controllers expose up to 64 K queues through BAR-mapped
    doorbells; experiments here use one I/O queue pair per core, which
    is how the paper runs fio (one core, one queue).
    """

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        *,
        timings: Optional[NvmeTimings] = None,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.timings = timings or NvmeTimings()
        self.faults = faults
        self.queue_pairs: List[NvmeQueuePair] = []

    def create_queue_pair(
        self, *, depth: int = 1024, interrupts_enabled: bool = True
    ) -> NvmeQueuePair:
        injector = (
            self.faults.injector("nvme", index=len(self.queue_pairs))
            if self.faults is not None
            else None
        )
        pair = NvmeQueuePair(
            self.sim,
            self.device,
            depth=depth,
            timings=self.timings,
            interrupts_enabled=interrupts_enabled,
            fault_injector=injector,
            index=len(self.queue_pairs),
        )
        self.queue_pairs.append(pair)
        return pair
