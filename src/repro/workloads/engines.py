"""I/O engines: how a job's I/Os are issued and completed.

* :class:`SyncJobEngine` — pvsync2 / SPDK-plugin style: one I/O at a
  time through a stack's ``sync_io`` process (queue depth 1).
* :class:`AsyncJobEngine` — libaio style: keeps ``iodepth`` commands in
  flight over a :class:`~repro.kstack.stack.KernelStack`, completing
  through the interrupt path (how the paper runs its queue-depth and
  bandwidth sweeps).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.obs.registry import NULL_REGISTRY
from repro.sim.engine import Simulator
from repro.sim.events import Event, Wait
from repro.ssd.device import IoOp
from repro.stats.latency import LatencyRecorder
from repro.stats.timeseries import TimeSeries
from repro.workloads.job import FioJob
from repro.workloads.patterns import AccessPattern
from repro.workloads.trace import TraceRecorder

if TYPE_CHECKING:
    from repro.obs.core import Observability
    from repro.ssd.device import IoRecord


class MetricsCollector:
    """Per-direction latency recorders plus an optional time series.

    When an :class:`~repro.obs.core.Observability` bundle is supplied its
    registry additionally receives the workload-level instruments
    (``io.latency_us``, ``io.reads`` / ``io.writes``, ``io.bytes``);
    without one the instruments are shared no-ops.
    """

    def __init__(
        self,
        *,
        capture_timeseries: bool = False,
        capture_trace: bool = False,
        obs: "Optional[Observability]" = None,
    ) -> None:
        self.all = LatencyRecorder("all")
        self.reads = LatencyRecorder("reads")
        self.writes = LatencyRecorder("writes")
        self.series: Optional[TimeSeries] = (
            TimeSeries("latency") if capture_timeseries else None
        )
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder() if capture_trace else None
        )
        self.bytes_done = 0
        registry = obs.registry if obs is not None else NULL_REGISTRY
        self._m_latency = registry.histogram(
            "io.latency_us", unit="us", help="application-observed I/O latency"
        )
        self._m_reads = registry.counter("io.reads", help="read I/Os completed")
        self._m_writes = registry.counter("io.writes", help="write I/Os completed")
        self._m_bytes = registry.counter(
            "io.bytes", unit="B", help="payload bytes transferred"
        )

    def record(
        self,
        op: IoOp,
        latency_ns: float,
        now_ns: int,
        nbytes: int,
        offset: int = 0,
    ) -> None:
        self.all.record(latency_ns)
        if op is IoOp.READ:
            self.reads.record(latency_ns)
            self._m_reads.inc()
        else:
            self.writes.record(latency_ns)
            self._m_writes.inc()
        self._m_latency.observe(latency_ns / 1000.0)
        self._m_bytes.inc(nbytes)
        if self.series is not None:
            self.series.record(now_ns, latency_ns)
        if self.trace is not None:
            self.trace.record(
                op, offset, nbytes, int(now_ns - latency_ns), now_ns
            )
        self.bytes_done += nbytes


class SyncJobEngine:
    """Queue-depth-1 synchronous issue loop."""

    def __init__(
        self,
        sim: Simulator,
        stack: Any,
        job: FioJob,
        pattern: AccessPattern,
        metrics: MetricsCollector,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.job = job
        self.pattern = pattern
        self.metrics = metrics

    def run(self) -> Generator[Wait, Any, None]:
        """Process: issue every I/O back-to-back."""
        block_size = self.job.block_size
        for op, offset in self.pattern.take(self.job.io_count):
            latency = yield from self.stack.sync_io(op, offset, block_size)
            self.metrics.record(op, latency, self.sim.now, block_size, offset)


class AsyncJobEngine:
    """libaio-style windowed issue loop over a kernel stack."""

    def __init__(
        self,
        sim: Simulator,
        stack: Any,
        job: FioJob,
        pattern: AccessPattern,
        metrics: MetricsCollector,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.job = job
        self.pattern = pattern
        self.metrics = metrics
        self._inflight = 0
        self._completed = 0
        self._slot_waiter: Optional[Event] = None
        self._drained: Optional[Event] = None

    def run(self) -> Generator[Wait, Any, None]:
        """Process: keep ``iodepth`` I/Os outstanding until done."""
        job = self.job
        for _ in range(job.io_count):
            while self._inflight >= job.iodepth:
                self._slot_waiter = Event(self.sim)
                yield self._slot_waiter
            op, offset = self.pattern.next_io()
            issued_at = self.sim.now
            record = yield from self.stack.submit_async(op, offset, job.block_size)
            self._inflight += 1
            record.app_start_ns = issued_at
            record.on_cqe = self._on_cqe
        if self._completed < job.io_count:
            self._drained = Event(self.sim)
            yield self._drained

    # ------------------------------------------------------------------
    def _on_cqe(self, record: "IoRecord") -> None:
        if record.trace is not None:
            record.trace.phase("completion_isr", self.sim.now)
        delay = self.stack.async_completion_ns()
        self.sim.schedule(delay, self._finish, record)

    def _finish(self, record: "IoRecord") -> None:
        self.stack.complete_async(record)
        now = self.sim.now
        if record.trace is not None:
            record.trace.finish(now)
        self.metrics.record(
            record.op, now - record.app_start_ns, now, self.job.block_size, record.offset
        )
        self._inflight -= 1
        self._completed += 1
        # At most one of the two is pending, and waking it is the last
        # act of this callback: the submission loop may run on from here.
        if self._slot_waiter is not None and not self._slot_waiter.triggered:
            self.sim.hand_off(self._slot_waiter)
        elif (
            self._drained is not None
            and not self._drained.triggered
            and self._completed >= self.job.io_count
        ):
            self.sim.hand_off(self._drained)
