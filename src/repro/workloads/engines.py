"""I/O engines: how a job's I/Os are issued and completed.

* :class:`SyncJobEngine` — pvsync2 / SPDK-plugin style: one I/O at a
  time through a stack's ``sync_io`` process (queue depth 1).
* :class:`AsyncJobEngine` — libaio style: keeps ``iodepth`` commands in
  flight over a :class:`~repro.kstack.stack.KernelStack`, completing
  through the interrupt path (how the paper runs its queue-depth and
  bandwidth sweeps).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Generator, Optional, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.events import Event, Wait
from repro.ssd.device import IoOp
from repro.stats.latency import LatencySummary, summarize
from repro.stats.timeseries import Points
from repro.workloads.job import FioJob
from repro.workloads.patterns import AccessPattern

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry
    from repro.ssd.device import IoRecord


class MetricsCollector:
    """A job's completion log: one row per completed I/O, in completion
    order, over three columns — direction (0 read, 1 any other op),
    completion time (ns) and application-observed latency (ns).

    Every job metric is a view of the log: the latency summaries, the
    (completion time, latency) series, and the bundle's ``io.*``
    instruments, booked once when the job ends.
    """

    __slots__ = ("direction", "times", "latencies")

    def __init__(self) -> None:
        self.direction = bytearray()
        self.times = array("q")
        self.latencies = array("d")

    def record(self, op: IoOp, latency_ns: float, now_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self.direction.append(op is not IoOp.READ)
        self.times.append(now_ns)
        self.latencies.append(latency_ns)

    def summaries(self) -> Tuple[LatencySummary, LatencySummary, LatencySummary]:
        """All, read and write latency summaries."""
        latencies = np.asarray(self.latencies)
        writes = np.frombuffer(self.direction, dtype=np.bool_)
        return (
            summarize(latencies),
            summarize(latencies[~writes]),
            summarize(latencies[writes]),
        )

    def series(self) -> Points:
        """Latency (ns) against completion time (ns), as Fig. 7b plots it."""
        return Points(np.asarray(self.times), np.asarray(self.latencies))

    def book(self, registry: MetricsRegistry, block_size: int) -> None:
        """Add the log to ``registry``'s workload-level instruments."""
        histogram = registry.histogram(
            "io.latency_us", unit="us", help="application-observed I/O latency"
        )
        writes = self.direction.count(1)
        registry.counter("io.reads", help="read I/Os completed").inc(
            len(self.direction) - writes
        )
        registry.counter("io.writes", help="write I/Os completed").inc(writes)
        registry.counter("io.bytes", unit="B", help="payload bytes transferred").inc(
            len(self.direction) * block_size
        )
        for latency_ns in self.latencies:
            histogram.observe(latency_ns / 1000.0)


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
            self.metrics.record(op, latency, self.sim.now)


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
        self.metrics.record(record.op, now - record.app_start_ns, now)
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
