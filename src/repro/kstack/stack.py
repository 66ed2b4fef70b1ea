"""The kernel storage stack facade.

Assembles blk-mq, the kernel NVMe driver, a queue pair, and a completion
engine into the object workload engines drive.  ``sync_io`` is the
pvsync2 path the paper uses for completion-method studies; the async
(libaio) path reuses the same submission plumbing through
:meth:`submit_async` with batched-amortized costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import DEFAULT_COSTS, SoftwareCosts, StepCost
from repro.kstack.blkmq import BlkMq
from repro.kstack.completion import CompletionMethod, make_engine
from repro.kstack.driver import KernelNvmeDriver
from repro.nvme.controller import NvmeController, NvmeQueuePair, NvmeTimings
from repro.sim.engine import Simulator
from repro.sim.events import Sleep, Wait
from repro.ssd.device import IoOp, IoRecord, SsdDevice
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.obs.tracer import IoTrace


class KernelStack:
    """Syscall-to-doorbell kernel I/O path over one queue pair."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        *,
        completion: CompletionMethod = CompletionMethod.INTERRUPT,
        costs: Optional[SoftwareCosts] = None,
        accounting: Optional[CpuAccounting] = None,
        queue_depth: int = 1024,
        nvme_timings: Optional[NvmeTimings] = None,
        qpair: Optional[NvmeQueuePair] = None,
        thin_submit: bool = False,
        seed: int = 11,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.costs = costs or DEFAULT_COSTS
        self.accounting = accounting or CpuAccounting()
        self.completion_method = completion
        self.thin_submit = thin_submit
        if qpair is None:
            controller = NvmeController(
                sim, device, timings=nvme_timings, faults=faults
            )
            qpair = controller.create_queue_pair(
                depth=queue_depth,
                interrupts_enabled=(completion is CompletionMethod.INTERRUPT),
            )
        self.qpair = qpair
        # Fault injection (repro.faults): BLK_STS_RESOURCE requeues.
        self._requeue_faults = (
            faults.injector("kstack") if faults is not None else None
        )
        self.requeues = 0
        if self._requeue_faults is not None:
            registry = sim.obs.registry
            self._m_requeues = registry.counter(
                "faults.kstack.requeues",
                help="injected blk-mq dispatch requeues",
            )
            self._m_backoff = registry.counter(
                "faults.kstack.backoff_ns",
                unit="ns",
                help="time spent in requeue backoff",
            )
        self._t_fault_recovery = sim.obs.telemetry.series(
            "faults.kstack.recovery", "busy", unit="frac"
        )
        self.blkmq = BlkMq(cpus=1, hw_queues=1, tags_per_queue=queue_depth)
        self.driver = KernelNvmeDriver(self.blkmq, self.qpair)
        self.engine = make_engine(
            completion, sim, self.costs, self.accounting, seed=seed
        )
        #: When set to a list, sync_io appends per-I/O stage timestamps
        #: ``(start, submitted, cqe, done)`` — the latency-anatomy probe.
        self.stage_log: Optional[List[Tuple[int, int, int, int]]] = None

    # ------------------------------------------------------------------
    @property
    def hipri(self) -> bool:
        """Polled submissions carry the high-priority flag."""
        return self.completion_method is not CompletionMethod.INTERRUPT

    def _charge_and_wait(
        self, step: StepCost, mode: ExecMode, module: str, function: str
    ) -> Sleep:
        self.accounting.charge(
            step.ns, mode, module, function, loads=step.loads, stores=step.stores
        )
        return self.sim.sleep(step.ns)

    # ------------------------------------------------------------------
    def sync_io(
        self, op: IoOp, offset: Bytes, nbytes: int
    ) -> Generator[Wait, Any, int]:
        """Process: one synchronous (pvsync2-style) I/O.

        Returns the application-observed latency in nanoseconds.
        """
        costs = self.costs
        started = self.sim.now
        tracer = self.sim.obs.tracer
        ctx = (
            tracer.begin_io(op, offset, nbytes, started)
            if tracer.enabled
            else None
        )
        if ctx is not None:
            ctx.phase("submit", started)
        yield self._charge_and_wait(costs.user_io_prep, ExecMode.USER, "fio", "fio_rw")
        yield from self._submit_path(op, offset, nbytes, ctx)
        record = self.driver.submit(0, op, offset, nbytes, hipri=self.hipri, trace=ctx)
        submitted = self.sim.now
        yield from self.engine.complete(self.driver, record)
        yield self._charge_and_wait(
            costs.syscall_exit, ExecMode.KERNEL, "vfs", "syscall"
        )
        if self.stage_log is not None:
            assert record.cqe_ns is not None
            self.stage_log.append((started, submitted, record.cqe_ns, self.sim.now))
        if ctx is not None:
            ctx.finish(self.sim.now)
        return self.sim.now - started

    def _submit_path(
        self,
        op: IoOp,
        offset: int,
        nbytes: int,
        ctx: "Optional[IoTrace]" = None,
    ) -> Generator[Wait, Any, None]:
        costs = self.costs
        yield self._charge_and_wait(
            costs.syscall_entry, ExecMode.KERNEL, "vfs", "syscall"
        )
        yield self._charge_and_wait(costs.vfs_submit, ExecMode.KERNEL, "vfs", "vfs_rw")
        if self.thin_submit:
            # Lightweight-protocol dispatch: no blk-mq tag machinery, no
            # SQE build — the driver latches the command into device
            # registers directly (Section IV-C's "lighter queue").
            if ctx is not None:
                ctx.phase("light_queue", self.sim.now)
            yield self._charge_and_wait(
                costs.light_queue_dispatch,
                ExecMode.KERNEL,
                "nvme-driver",
                "light_queue_issue",
            )
            return
        if ctx is not None:
            ctx.phase("blkmq_queue", self.sim.now)
        yield self._charge_and_wait(
            costs.blkmq_submit, ExecMode.KERNEL, "blk-mq", "blk_mq_make_request"
        )
        if self._requeue_faults is not None:
            yield from self._maybe_requeue(ctx)
        yield self._charge_and_wait(
            costs.nvme_driver_submit, ExecMode.KERNEL, "nvme-driver", "nvme_queue_rq"
        )
        yield self._charge_and_wait(
            costs.doorbell_write, ExecMode.KERNEL, "nvme-driver", "doorbell_write"
        )

    def _maybe_requeue(
        self, ctx: "Optional[IoTrace]" = None
    ) -> Generator[Wait, Any, None]:
        """Process: injected ``BLK_STS_RESOURCE`` dispatch failures.

        Each failed dispatch requeues the request with exponential
        backoff (doubling from ``backoff_base_ns``, capped at
        ``backoff_max_ns``); after ``max_requeues`` attempts dispatch
        is forced through.  The requeue kworker's CPU time is charged
        to blk-mq.
        """
        fi = self._requeue_faults
        costs = self.costs
        attempt = 0
        while attempt < fi.spec.max_requeues and fi.roll(fi.spec.requeue_prob):
            delay = min(
                fi.spec.backoff_max_ns, fi.spec.backoff_base_ns << attempt
            )
            attempt += 1
            self.requeues += 1
            self._m_requeues.inc()
            self._m_backoff.inc(delay)
            start = self.sim.now
            self._t_fault_recovery.add_interval(start, start + delay)
            if ctx is not None:
                ctx.annotate(
                    "blkmq_requeue", start, start + delay, attempt=attempt
                )
                ctx.wait("kstack.hwq0", "requeue_backoff", start, start + delay)
            tracer = self.sim.obs.tracer
            if tracer.enabled:
                tracer.span(
                    "faults", "blkmq_requeue", start, start + delay,
                    attempt=attempt,
                )
            self.accounting.charge(
                costs.blkmq_submit.ns,
                ExecMode.KERNEL,
                "blk-mq",
                "blk_mq_requeue_work",
                loads=costs.blkmq_submit.loads,
                stores=costs.blkmq_submit.stores,
            )
            yield self.sim.sleep(delay)

    # ------------------------------------------------------------------
    def submit_async(
        self, op: IoOp, offset: Bytes, nbytes: int
    ) -> Generator[Wait, Any, IoRecord]:
        """Process: queue one libaio I/O (batched io_submit, amortized).

        Returns the I/O's record; the caller observes its CQE (through
        ``on_cqe`` or ``cqe_event``) and applies the interrupt-side
        completion costs through :meth:`async_completion_ns`.
        """
        costs = self.costs
        tracer = self.sim.obs.tracer
        ctx = (
            tracer.begin_io(op, offset, nbytes, self.sim.now)
            if tracer.enabled
            else None
        )
        if ctx is not None:
            ctx.phase("submit", self.sim.now)
        yield self._charge_and_wait(
            costs.async_submit_user, ExecMode.USER, "fio", "io_submit"
        )
        if ctx is not None:
            ctx.phase("blkmq_queue", self.sim.now)
        yield self._charge_and_wait(
            costs.async_submit_kernel, ExecMode.KERNEL, "blk-mq", "aio_submit_path"
        )
        if self._requeue_faults is not None:
            yield from self._maybe_requeue(ctx)
        return self.driver.submit(0, op, offset, nbytes, trace=ctx)

    def async_completion_ns(self) -> int:
        """Charge and return the CQE-to-application completion delay for
        the interrupt-driven async path (MSI + ISR + io_getevents)."""
        costs = self.costs
        self.accounting.charge(
            costs.async_complete_kernel.ns,
            ExecMode.KERNEL,
            "nvme-driver",
            "nvme_irq",
            loads=costs.async_complete_kernel.loads,
            stores=costs.async_complete_kernel.stores,
        )
        self.accounting.charge(
            costs.user_async_reap.ns,
            ExecMode.USER,
            "fio",
            "io_getevents",
            loads=costs.user_async_reap.loads,
            stores=costs.user_async_reap.stores,
        )
        return (
            costs.irq_delivery_ns
            + costs.async_complete_kernel.ns
            + costs.user_async_reap.ns
        )

    def complete_async(self, record: IoRecord) -> None:
        """Release blk-mq/driver state for an async request."""
        completed = self.driver.nvme_poll(record)
        assert completed is record
