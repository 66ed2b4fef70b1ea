"""The three I/O completion methods (paper Section II-B3, Figs. 9-16).

Each engine is a generator that runs from "command submitted" to "request
completed back through blk-mq", charging CPU time and memory instructions
to the functions the paper's profiler attributes them to.  It returns the
ns of its last run of CPU steps, not yet slept: the caller's syscall exit
joins that run, so the clock advances once for both.

* :class:`InterruptEngine` — the process context-switches away; the MSI
  arrives, the ISR runs, the scheduler switches back.
* :class:`PollEngine` — ``blk_mq_poll``/``nvme_poll`` spin on the CQ
  phase tag.  The spin holds the core: every
  ``resched_check_period_ns`` the poller hits a need_resched window and,
  if deferred kernel work is pending, loses ``bg_yield`` — work the
  interrupt path absorbs for free during its idle wait.  That asymmetry
  is why polling's 99.999th percentile is *worse* than interrupts
  (Fig. 11) even though its average is better.
* :class:`HybridPollEngine` — sleeps half the running mean device wait,
  then polls (the Linux 4.10+ ``io_poll_delay`` heuristic).  Device-time
  variance makes the estimate misfire: oversleeping adds the timer
  wake-up to the latency, undersleeping wastes spin — hybrid lands
  between interrupts and pure polling (Fig. 16) while still burning
  half the core (Fig. 12).
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

import numpy as np

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import SoftwareCosts
from repro.kstack.driver import KernelNvmeDriver
from repro.sim.engine import Simulator
from repro.sim.events import Wait
from repro.ssd.device import IoRecord


class CompletionMethod(enum.Enum):
    """Selector used by experiment configs."""

    INTERRUPT = "interrupt"
    POLL = "poll"
    HYBRID = "hybrid"


class _EngineBase:
    """Shared plumbing: sim, cost table, profiler, seeded randomness."""

    def __init__(
        self,
        sim: Simulator,
        costs: SoftwareCosts,
        accounting: CpuAccounting,
        *,
        seed: int = 11,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.accounting = accounting
        self.rng = np.random.default_rng(seed)
        registry = sim.obs.registry
        self._m_spin_iters = registry.counter(
            "kstack.poll.spin_iters", help="CQ poll loop iterations"
        )
        self._m_spin_ns = registry.counter(
            "kstack.poll.spin_ns", unit="ns", help="time spent spinning on the CQ"
        )
        self._m_deferred_ns = registry.counter(
            "kstack.poll.deferred_work_ns",
            unit="ns",
            help="scheduler-fairness penalty absorbed by long spins",
        )
        self._m_ctx_switches = registry.counter(
            "kstack.context_switches", help="switch-away/switch-back pairs halved"
        )
        self._m_isr = registry.counter("kstack.isr_count", help="nvme_irq entries")
        self._t_poll_burn = sim.obs.telemetry.series(
            "kstack.poll.burn", "busy", unit="frac"
        )

    # ------------------------------------------------------------------
    def _spin_until_cqe(self, record: IoRecord) -> Generator[Wait, Any, None]:
        """Generator: spin on the CQ until the CQE lands.

        Wall time advances to one poll iteration past the CQE (the
        iteration that observes the phase-tag flip), plus the
        scheduler-fairness penalty for spins that outlive the grace
        window: the spinning thread holds the core with spin locks
        taken, so once it exceeds a scheduling quantum it loses CPU
        share to the kernel work it displaced.  Short spins are free —
        which is why polling's *average* wins while its *five-nines*
        (dominated by long device stalls) loses (Fig. 11).  The
        observing iteration and the penalty are one run: the clock
        advances once, and the completion path starts after it.
        """
        costs = self.costs
        started = self.sim.now
        if record.cqe_ns is None:
            yield record.cqe_event
        trace = record.trace
        if trace is not None:
            # CQE landed; everything from here is completion software.
            trace.phase("completion_poll", record.cqe_ns)
        run_ns = costs.kernel_poll_iter_ns
        spun_until = self.sim.now + run_ns
        spun = spun_until - started
        self._charge_spin(spun)
        self._m_spin_ns.inc(spun)
        self._t_poll_burn.add_interval(started, spun_until)
        over = spun - costs.poll_preempt_grace_ns
        if over > 0:
            penalty = int(over * costs.poll_preempt_rate)
            density = costs.bg_yield
            self.accounting.charge(
                penalty,
                ExecMode.KERNEL,
                "sched",
                "deferred_kernel_work",
                loads=int(density.loads * penalty / density.ns),
                stores=int(density.stores * penalty / density.ns),
            )
            self._m_deferred_ns.inc(penalty)
            if trace is not None:
                trace.annotate(
                    "deferred_kernel_work", spun_until, spun_until + penalty
                )
            run_ns += penalty
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)

    def _charge_spin(self, spun_ns: int) -> None:
        """Attribute spin time/instructions to blk_mq_poll + nvme_poll."""
        costs = self.costs
        period = costs.kernel_poll_iter_ns
        iters = max(1, round(spun_ns / period))
        self._m_spin_iters.inc(iters)
        blk_share = costs.blk_mq_poll_iter.ns / period
        self.accounting.charge(
            int(round(spun_ns * blk_share)),
            ExecMode.KERNEL,
            "blk-mq",
            "blk_mq_poll",
            loads=iters * costs.blk_mq_poll_iter.loads,
            stores=iters * costs.blk_mq_poll_iter.stores,
        )
        self.accounting.charge(
            spun_ns - int(round(spun_ns * blk_share)),
            ExecMode.KERNEL,
            "nvme-driver",
            "nvme_poll",
            loads=iters * costs.nvme_poll_iter.loads,
            stores=iters * costs.nvme_poll_iter.stores,
        )

    def _finish(self, driver: KernelNvmeDriver, record: IoRecord) -> int:
        """Complete the request through blk-mq (poll flavors); returns
        the ns of the run it opens."""
        completed = driver.nvme_poll(record)
        assert completed is not None, "poll finished before CQE?"
        return self.accounting.charge_step(
            self.costs.poll_complete,
            ExecMode.KERNEL,
            "blk-mq",
            "blk_mq_complete_request",
        )


class InterruptEngine(_EngineBase):
    """MSI-driven completion: sleep, ISR, wake."""

    method = CompletionMethod.INTERRUPT

    def complete(
        self, driver: KernelNvmeDriver, record: IoRecord
    ) -> Generator[Wait, Any, int]:
        costs = self.costs
        charge = self.accounting.charge_step
        # Switch away; the core is free for other work while the device runs.
        self._m_ctx_switches.inc()
        run_ns = charge(
            costs.context_switch_out, ExecMode.KERNEL, "sched", "context_switch"
        )
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)
        if record.cqe_ns is None:
            yield record.cqe_event
        if record.trace is not None:
            # CQE landed; MSI flight, ISR, and wake-up follow.
            record.trace.phase("completion_isr", record.cqe_ns)
        # MSI flight, then the ISR completes the command.
        self._m_isr.inc()
        isr_ns = charge(costs.isr, ExecMode.KERNEL, "nvme-driver", "nvme_irq")
        run_ns = costs.irq_delivery_ns + isr_ns
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)
        driver.complete_by_cid(record.cid)
        # The wake-up run; the caller's syscall exit joins it.
        run_ns = charge(costs.context_switch_in, ExecMode.KERNEL, "sched", "context_switch")
        return run_ns + charge(
            costs.blkmq_complete, ExecMode.KERNEL, "blk-mq", "blk_mq_complete_request"
        )


class PollEngine(_EngineBase):
    """Pure polled mode: spin from submission to completion."""

    method = CompletionMethod.POLL

    def complete(
        self, driver: KernelNvmeDriver, record: IoRecord
    ) -> Generator[Wait, Any, int]:
        yield from self._spin_until_cqe(record)
        return self._finish(driver, record)


class HybridPollEngine(_EngineBase):
    """Sleep half the mean device wait, then poll.

    The kernel tracks a mean completion time per request class; we keep
    an exponential moving average (weight 1/8, matching the flavor of the
    kernel's statistics) of the submission-to-CQE wait.
    """

    method = CompletionMethod.HYBRID

    #: EMA weight for the wait estimate.
    EMA_WEIGHT = 0.125

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._mean_wait_ns: Optional[float] = None
        #: Fraction of the estimated wait to sleep (the kernel uses 1/2;
        #: the ablation study varies it).
        self.sleep_fraction = 0.5

    @property
    def mean_wait_ns(self) -> Optional[float]:
        return self._mean_wait_ns

    def complete(
        self, driver: KernelNvmeDriver, record: IoRecord
    ) -> Generator[Wait, Any, int]:
        costs = self.costs
        charge = self.accounting.charge_step
        wait_started = self.sim.now
        run_ns = charge(
            costs.hybrid_timer_setup,
            ExecMode.KERNEL,
            "blk-mq",
            "blk_mq_poll_hybrid_sleep",
        )
        if not self.sim.advance_if_next(self.sim.now + run_ns):
            yield self.sim.sleep(run_ns)
        sleep_ns = (
            int(self._mean_wait_ns * self.sleep_fraction)
            if self._mean_wait_ns
            else 0
        )
        if sleep_ns > 0 and record.cqe_ns is None:
            # hrtimer slack: the wake-up lands a little late, sometimes
            # past the CQE — the oversleep the paper measures.
            slack = int(self.rng.integers(0, costs.hybrid_timer_slack_ns + 1))
            slept_from = self.sim.now
            yield self.sim.sleep(sleep_ns + slack)  # core released: no charge
            if record.trace is not None:
                record.trace.annotate("hybrid_sleep", slept_from, self.sim.now)
            run_ns = charge(costs.hybrid_wakeup, ExecMode.KERNEL, "sched", "timer_wakeup")
            # Poll state comes back cache-cold after the sleep.
            run_ns += charge(
                costs.hybrid_cold_detect, ExecMode.KERNEL, "blk-mq", "blk_mq_poll"
            )
            if not self.sim.advance_if_next(self.sim.now + run_ns):
                yield self.sim.sleep(run_ns)
        if record.cqe_ns is not None:
            # Overslept: the CQE beat us; pay one observing iteration.
            if record.trace is not None:
                record.trace.phase("completion_poll", record.cqe_ns)
            detect = costs.kernel_poll_iter_ns
            self._charge_spin(detect)
            self._t_poll_burn.add_interval(self.sim.now, self.sim.now + detect)
            if not self.sim.advance_if_next(self.sim.now + detect):
                yield self.sim.sleep(detect)
        else:
            yield from self._spin_until_cqe(record)
        self._update_mean(record, wait_started)
        return self._finish(driver, record)

    def _update_mean(self, record: IoRecord, wait_started: int) -> None:
        cqe_ns = record.cqe_ns
        observed = (cqe_ns if cqe_ns is not None else self.sim.now) - wait_started
        if self._mean_wait_ns is None:
            self._mean_wait_ns = float(observed)
        else:
            self._mean_wait_ns += self.EMA_WEIGHT * (observed - self._mean_wait_ns)


def make_engine(
    method: CompletionMethod,
    sim: Simulator,
    costs: SoftwareCosts,
    accounting: CpuAccounting,
    *,
    seed: int = 11,
) -> _EngineBase:
    """Build the completion engine for ``method``."""
    engines = {
        CompletionMethod.INTERRUPT: InterruptEngine,
        CompletionMethod.POLL: PollEngine,
        CompletionMethod.HYBRID: HybridPollEngine,
    }
    return engines[method](sim, costs, accounting, seed=seed)
