"""Run a job against a stack and collect every metric the paper reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.host.accounting import CpuAccounting, ExecMode
from repro.sim.engine import Simulator
from repro.stats.latency import LatencySummary
from repro.stats.timeseries import Points
from repro.workloads.engines import AsyncJobEngine, MetricsCollector, SyncJobEngine
from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.patterns import make_pattern

if TYPE_CHECKING:
    from repro.obs.anatomy import AnatomyReport


@dataclass(frozen=True)
class JobResult:
    """Everything measured while a job ran."""

    job: FioJob
    latency: LatencySummary
    read_latency: LatencySummary
    write_latency: LatencySummary
    duration_ns: int
    #: (completion time, latency) per I/O in ns; only with
    #: ``capture_timeseries``.
    timeseries: Optional[Points]
    accounting: Optional[CpuAccounting]
    avg_power_w: Optional[float]
    #: The observability bundle active during the run (span tracer +
    #: metrics registry), or ``None`` when tracing was disabled.
    obs: Optional[object] = None

    @property
    def bytes_done(self) -> int:
        return self.latency.count * self.job.block_size

    @property
    def bandwidth_mbps(self) -> float:
        """Throughput in MB/s (10^6 bytes per second)."""
        if self.duration_ns <= 0:
            return 0.0
        return self.bytes_done * 1_000 / self.duration_ns

    @property
    def iops(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.latency.count * 1e9 / self.duration_ns

    def cpu_utilization(self, mode: Optional[ExecMode] = None) -> float:
        if self.accounting is None:
            return 0.0
        return self.accounting.utilization(self.duration_ns, mode)

    def anatomy(self, op: Optional[str] = None) -> "Optional[AnatomyReport]":
        """Latency-anatomy breakdown of the traced I/Os, or ``None``.

        Requires the job to have run with tracing enabled (an installed
        :class:`~repro.obs.core.Observability`); ``op`` filters to
        ``"read"`` / ``"write"``.
        """
        if self.obs is None or not getattr(self.obs, "enabled", False):
            return None
        from repro.obs.anatomy import AnatomyReport

        return AnatomyReport.from_tracer(self.obs.tracer, op=op)


def run_jobs(
    sim: Simulator,
    pairs: Iterable[Tuple[Any, FioJob]],
    *,
    region_offset: int = 0,
) -> List[JobResult]:
    """Run several (stack, job) pairs *concurrently* on one simulator.

    This is fio's ``numjobs`` semantics: every job hammers the same
    device at the same time, each from its own stack (its own core and
    queue pair).  Returns one :class:`JobResult` per pair, in order.
    """
    obs = sim.obs if getattr(sim.obs, "enabled", False) else None
    prepared: List[Tuple[Any, FioJob, MetricsCollector, Any]] = []
    for stack, job in pairs:
        device = stack.device
        region = job.region_bytes or (device.capacity_bytes - region_offset)
        pattern = make_pattern(
            job.rw,
            job.block_size,
            region,
            write_fraction=job.write_fraction,
            seed=job.seed,
            region_offset=region_offset,
        )
        metrics = MetricsCollector()
        if job.engine is IoEngineKind.LIBAIO:
            engine = AsyncJobEngine(sim, stack, job, pattern, metrics)
        else:
            engine = SyncJobEngine(sim, stack, job, pattern, metrics)
        prepared.append((stack, job, metrics, engine))
    started = sim.now
    processes = [sim.process(engine.run()) for _, _, _, engine in prepared]
    for process, (_, job, _, _) in zip(processes, prepared):
        sim.run_until_event(process)
        if not process.triggered:
            raise RuntimeError(f"job {job.name!r} did not finish (deadlock?)")
    results: List[JobResult] = []
    for stack, job, metrics, _engine in prepared:
        if obs is not None:
            metrics.book(obs.registry, job.block_size)
        device = stack.device
        power = getattr(device, "power", None)
        latency, read_latency, write_latency = metrics.summaries()
        results.append(
            JobResult(
                job=job,
                latency=latency,
                read_latency=read_latency,
                write_latency=write_latency,
                duration_ns=sim.now - started,
                timeseries=metrics.series() if job.capture_timeseries else None,
                accounting=getattr(stack, "accounting", None),
                avg_power_w=(
                    power.average_watts(sim.now) if power is not None else None
                ),
                obs=obs,
            )
        )
    return results


def run_job(
    sim: Simulator,
    stack: Any,
    job: FioJob,
    *,
    region_offset: int = 0,
) -> JobResult:
    """Execute ``job`` on ``stack`` and summarize the run.

    ``stack`` must expose ``sync_io`` (psync/SPDK jobs) or the async trio
    ``submit_async`` / ``async_completion_ns`` / ``complete_async``
    (libaio jobs), plus ``device`` for capacity discovery.
    """
    return run_jobs(sim, [(stack, job)], region_offset=region_offset)[0]
