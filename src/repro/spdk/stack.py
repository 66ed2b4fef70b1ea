"""The SPDK user-space I/O stack.

``sync_io`` is the fio ``spdk`` plugin path: prepare the request in
hugepage-backed buffers, ``nvme_qpair_check_enabled`` (the inline
validity check SPDK performs on every submission — 20 % of its loads,
Fig. 22b), submit straight to the queue pair, then spin in
``spdk_nvme_qpair_process_completions`` /
``nvme_pcie_qpair_process_completions`` until the CQE's phase tag flips.

Everything runs in user mode; the loop never blocks, so the core is
pinned at 100 % (Fig. 20) and the tight ~25 ns iteration generates an
order of magnitude more loads/stores than the kernel's poll (Fig. 21).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import DEFAULT_COSTS, SoftwareCosts
from repro.nvme.controller import NvmeController, NvmeTimings
from repro.sim.engine import Simulator
from repro.sim.events import Wait
from repro.spdk.hugepage import HugePageAllocator
from repro.spdk.uio import UioBinding
from repro.ssd.device import IoOp, IoRecord, SsdDevice
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.obs.tracer import IoTrace


class SpdkStack:
    """User-space NVMe driver bound through uio + hugepages."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        *,
        costs: Optional[SoftwareCosts] = None,
        accounting: Optional[CpuAccounting] = None,
        queue_depth: int = 1024,
        nvme_timings: Optional[NvmeTimings] = None,
        hugepages: int = 512,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.costs = costs or DEFAULT_COSTS
        self.accounting = accounting or CpuAccounting()
        # Environment setup: steal the device from the kernel, map BARs.
        self.binding = UioBinding()
        self.binding.unbind()
        self.binding.bind_uio()
        self.hugepages = HugePageAllocator(hugepages)
        self.bar_region = self.hugepages.map_bar(16 * 1024)
        self.io_buffers = self.hugepages.allocate(4 * 1024 * 1024, "io-buffers")
        # No ISR from user space: interrupts stay off (Section II-B4).
        controller = NvmeController(sim, device, timings=nvme_timings, faults=faults)
        self.qpair = controller.create_queue_pair(
            depth=queue_depth, interrupts_enabled=False
        )
        registry = sim.obs.registry
        self._m_spin_iters = registry.counter(
            "spdk.poll.spin_iters", help="process_completions loop iterations"
        )
        self._m_spin_ns = registry.counter(
            "spdk.poll.spin_ns", unit="ns", help="time spent in the user-space spin"
        )
        self._t_poll_burn = sim.obs.telemetry.series(
            "spdk.poll.burn", "busy", unit="frac"
        )
        #: When set to a list, sync_io appends per-I/O stage timestamps
        #: ``(start, submitted, cqe, done)`` — the latency-anatomy probe.
        self.stage_log: Optional[List[Tuple[int, int, Optional[int], int]]] = None

    # ------------------------------------------------------------------
    def sync_io(
        self, op: IoOp, offset: Bytes, nbytes: int
    ) -> Generator[Wait, Any, int]:
        """Process: one QD-1 I/O through the SPDK fast path.

        Returns the application-observed latency in nanoseconds.  The
        clock advances once per run of user-space steps: prep through
        submission, then the observing poll iteration with the
        completion callback.
        """
        costs = self.costs
        sim = self.sim
        charge = self.accounting.charge_step
        started = sim.now
        tracer = sim.obs.tracer
        ctx = (
            tracer.begin_io(op, offset, nbytes, started)
            if tracer.enabled
            else None
        )
        if ctx is not None:
            ctx.phase("submit", started)
        run_ns = charge(costs.spdk_user_prep, ExecMode.USER, "spdk", "fio_spdk_plugin")
        run_ns += charge(
            costs.spdk_check_enabled_iter, ExecMode.USER, "spdk", "nvme_qpair_check_enabled"
        )
        run_ns += charge(costs.spdk_submit, ExecMode.USER, "spdk", "spdk_nvme_ns_cmd_rw")
        if not sim.advance_if_next(sim.now + run_ns):
            yield sim.sleep(run_ns)
        record = self.qpair.submit(op, offset, nbytes, trace=ctx)
        submitted = sim.now
        run_ns = yield from self._process_completions(record)
        run_ns += charge(costs.spdk_complete, ExecMode.USER, "spdk", "io_complete_cb")
        if not sim.advance_if_next(sim.now + run_ns):
            yield sim.sleep(run_ns)
        if self.stage_log is not None:
            self.stage_log.append((started, submitted, record.cqe_ns, sim.now))
        if ctx is not None:
            ctx.finish(sim.now)
        return sim.now - started

    def submit_async(
        self, op: IoOp, offset: Bytes, nbytes: int, *, trace: "Optional[IoTrace]" = None
    ) -> IoRecord:
        """Queue an I/O without waiting (SPDK is natively asynchronous)."""
        costs = self.costs
        self.accounting.charge(
            costs.spdk_submit.ns,
            ExecMode.USER,
            "spdk",
            "spdk_nvme_ns_cmd_rw",
            loads=costs.spdk_submit.loads + costs.spdk_check_enabled_iter.loads,
            stores=costs.spdk_submit.stores,
        )
        return self.qpair.submit(op, offset, nbytes, trace=trace)

    # ------------------------------------------------------------------
    def _process_completions(self, record: IoRecord) -> Generator[Wait, Any, int]:
        """Spin in the user-space completion loop until the CQE lands.

        Returns the ns of the iteration that observes the phase flip,
        charged but not yet slept: the completion callback joins its run.
        """
        costs = self.costs
        started = self.sim.now
        if record.cqe_ns is None:
            yield record.cqe_event
        # The iteration that observes the phase flip.
        detect = costs.spdk_iter_ns
        trace = record.trace
        if trace is not None:
            # CQE visible: the remaining time is user-space detection.
            cqe_ns = record.cqe_ns
            assert cqe_ns is not None
            trace.phase("completion_poll", cqe_ns)
            trace.wait("spdk.poller", "poll_gap", cqe_ns, cqe_ns + detect)
        spun_until = self.sim.now + detect
        self._charge_spin(spun_until - started)
        self._t_poll_burn.add_interval(started, spun_until)
        return detect

    def _charge_spin(self, spun_ns: int) -> None:
        """Attribute spin time/instructions to the three SPDK functions."""
        costs = self.costs
        period = costs.spdk_iter_ns
        iters = max(1, round(spun_ns / period))
        self._m_spin_iters.inc(iters)
        self._m_spin_ns.inc(spun_ns)
        steps = (
            (costs.spdk_outer_iter, "spdk_nvme_qpair_process_completions"),
            (costs.spdk_inner_iter, "nvme_pcie_qpair_process_completions"),
            (costs.spdk_check_enabled_iter, "nvme_qpair_check_enabled"),
        )
        charged = 0
        for index, (step, function) in enumerate(steps):
            if index == len(steps) - 1:
                ns = spun_ns - charged  # remainder keeps totals exact
            else:
                ns = int(round(spun_ns * step.ns / period))
                charged += ns
            self.accounting.charge(
                max(0, ns),
                ExecMode.USER,
                "spdk",
                function,
                loads=iters * step.loads,
                stores=iters * step.stores,
            )
