"""NVMe controller front-end and queue pairs.

The controller sits between the host driver (kernel or SPDK) and the
:class:`~repro.ssd.device.SsdDevice`: a tail-doorbell write triggers a
command fetch (one PCIe read of the SQE), the command is handed to the
device, and when the device finishes the controller posts a CQE and —
when interrupts are enabled on the queue pair — raises an MSI.

Host-side software costs (ISR, polling, syscalls) do NOT live here;
completion engines in :mod:`repro.kstack` and :mod:`repro.spdk` layer
them on top of the ``cqe_event`` each submission exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.nvme.command import NvmeCommand, Opcode, StatusCode
from repro.nvme.queue import CompletionQueue, QueueFull, SubmissionQueue
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.ssd.device import IoOp, SsdDevice
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs.tracer import IoTrace

_OPCODE_OF = {IoOp.READ: Opcode.READ, IoOp.WRITE: Opcode.WRITE, IoOp.TRIM: Opcode.DSM}
_OP_OF = {opcode: op for op, opcode in _OPCODE_OF.items()}


@dataclass(frozen=True)
class NvmeTimings:
    """Protocol-level latencies (PCIe round trips for queue traffic)."""

    sq_fetch_ns: int = 400  # doorbell -> SQE DMA'd into the controller
    cqe_post_ns: int = 200  # device done -> CQE visible in host memory
    msi_ns: int = 100  # CQE -> MSI write reaches the host bridge


@dataclass
class PendingCommand:
    """A submitted command awaiting completion."""

    command: NvmeCommand
    submit_ns: int
    cqe_event: Event  # fires, with no value, when the CQE lands in host memory
    cqe_ns: Optional[int] = None
    trace: Optional[object] = None  # the I/O's obs span context, if traced


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
        self._pending: Dict[int, PendingCommand] = {}
        self._next_cid = 0
        self._msi_handlers: List[Callable[[PendingCommand], None]] = []
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

    def on_msi(self, handler: Callable[[PendingCommand], None]) -> None:
        """Register an MSI handler (the kernel driver's ISR entry)."""
        self._msi_handlers.append(handler)

    # ------------------------------------------------------------------
    def submit(
        self, op: IoOp, offset: Bytes, nbytes: int, *,
        trace: "Optional[IoTrace]" = None,
    ) -> PendingCommand:
        """Build an SQE, ring the doorbell, return the pending command."""
        if self.sq.is_full:
            raise QueueFull("no free submission queue entry")
        opcode = _OPCODE_OF[op]
        cid = self._allocate_cid()
        command = NvmeCommand.from_bytes(cid, opcode, offset, nbytes)
        pending = PendingCommand(
            command=command,
            submit_ns=self.sim.now,
            cqe_event=Event(self.sim),
            trace=trace,
        )
        self._pending[cid] = pending
        self.sq.push(command)
        self.submitted += 1
        self._m_submitted.inc()
        self._m_outstanding.add(1, self.sim.now)
        self._t_sq_depth.record(self.sim.now, self.sq.occupancy())
        self._t_outstanding.record(self.sim.now, len(self._pending))
        if trace is not None:
            # Doorbell rung: the SQE sits in the ring until the fetch DMA.
            trace.phase("nvme_sq", self.sim.now)
        # Controller fetches the SQE one PCIe round-trip later.
        self.sim.schedule(self.timings.sq_fetch_ns, self._fetch_and_execute)
        return pending

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
        command = self.sq.fetch()
        self._t_sq_depth.record(self.sim.now, self.sq.occupancy())
        self._execute(command, attempt=0)

    def _execute(self, command: NvmeCommand, attempt: int) -> None:
        """Hand one command to the device; ``attempt`` counts injected
        timeouts already suffered by this command."""
        op = _OP_OF[command.opcode]
        pending = self._pending[command.cid]
        trace = pending.trace
        if trace is not None:
            # SQE is in the controller: firmware takes over.
            trace.phase("ctrl", self.sim.now)
            if attempt == 0:
                # SQ residence beyond the fetch DMA itself is queueing
                # behind earlier doorbells (head-of-line blocking).
                trace.wait(
                    f"nvme.q{self.index}",
                    "sq_backlog",
                    pending.submit_ns + self.timings.sq_fetch_ns,
                    self.sim.now,
                )
        request = self.device.submit(
            op, command.offset_bytes, command.nbytes, trace=trace
        )
        fi = self._faults
        if (
            fi is not None
            and attempt < fi.spec.max_retries
            and fi.roll(fi.spec.timeout_prob)
        ):
            # Injected fault: the completion is lost in flight.  The
            # device still did the work; nothing reaches the CQ until
            # the host's command timer expires and the command is
            # aborted and re-delivered.
            self.sim.schedule(
                fi.spec.timeout_ns, self._command_timeout, command, attempt + 1
            )
            return
        request.done.add_callback(lambda _event, cid=command.cid: self._device_done(cid))

    def _command_timeout(self, command: NvmeCommand, attempt: int) -> None:
        """The host's timer fired: abort and re-deliver the command.

        The ``reset_after``-th timeout of the same command escalates to
        a controller reset (``reset_ns`` of recovery) before the retry —
        the nvme driver's timeout handler does exactly this ladder.
        """
        pending = self._pending.get(command.cid)
        if pending is None:
            return
        fi = self._faults
        self.timeouts += 1
        self._m_timeouts.inc()
        now = self.sim.now
        self._t_fault_recovery.add_interval(now - fi.spec.timeout_ns, now)
        if pending.trace is not None:
            pending.trace.annotate(
                "nvme_timeout", now - fi.spec.timeout_ns, now, attempt=attempt
            )
            pending.trace.wait(
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
                cid=command.cid,
                attempt=attempt,
            )
        if attempt >= fi.spec.reset_after:
            self.resets += 1
            self._m_resets.inc()
            self._t_fault_recovery.add_interval(now, now + fi.spec.reset_ns)
            if tracer.enabled:
                tracer.span(
                    "faults", "nvme_reset", now, now + fi.spec.reset_ns,
                    cid=command.cid,
                )
            if pending.trace is not None:
                pending.trace.annotate(
                    "nvme_reset", now, now + fi.spec.reset_ns
                )
                pending.trace.wait(
                    f"nvme.q{self.index}",
                    "controller_reset",
                    now,
                    now + fi.spec.reset_ns,
                )
            self.sim.schedule(fi.spec.reset_ns, self._execute, command, attempt)
        else:
            self._execute(command, attempt)

    def _device_done(self, cid: int) -> None:
        trace = self._pending[cid].trace
        if trace is not None:
            trace.phase("cqe_post", self.sim.now)
        self.sim.schedule(self.timings.cqe_post_ns, self._post_cqe, cid)

    def _post_cqe(self, cid: int) -> None:
        pending = self._pending.pop(cid, None)
        if pending is None:
            raise RuntimeError(f"completion for unknown cid {cid}")
        self.cq.post(cid, self.sq.head, StatusCode.SUCCESS)
        self.cq.reap()  # host consumes on detection; keep the ring tidy
        pending.cqe_ns = self.sim.now
        self.completed += 1
        self._m_completed.inc()
        self._m_outstanding.add(-1, self.sim.now)
        self._t_outstanding.record(self.sim.now, len(self._pending))
        pending.cqe_event.succeed()
        if self.interrupts_enabled:
            self.sim.schedule(self.timings.msi_ns, self._raise_msi, pending)

    def _raise_msi(self, pending: PendingCommand) -> None:
        for handler in self._msi_handlers:
            handler(pending)


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
