"""Tests for the per-job completion log and the metrics read from it."""

import pytest

from repro.api import open_device
from repro.kstack.stack import KernelStack
from repro.obs import Observability
from repro.obs.telemetry import TailDigest
from repro.sim.engine import Simulator
from repro.ssd.device import IoOp
from repro.stats import summarize
from repro.workloads.engines import MetricsCollector
from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.runner import run_job, run_jobs


class TestMetricsCollector:
    def test_negative_latency_rejected(self):
        log = MetricsCollector()
        with pytest.raises(ValueError):
            log.record(IoOp.READ, -1, 10)
        assert len(log.latencies) == 0

    def test_summaries_split_by_direction_in_completion_order(self):
        log = MetricsCollector()
        rows = [
            (IoOp.READ, 1_000, 10), (IoOp.WRITE, 7_000, 20),
            (IoOp.READ, 3_000, 30), (IoOp.TRIM, 5_000, 40),
        ]
        for op, latency, now in rows:
            log.record(op, latency, now)
        overall, reads, writes = log.summaries()
        assert overall == summarize([1_000, 7_000, 3_000, 5_000])
        assert reads == summarize([1_000, 3_000])
        # A trim books as a write.
        assert writes == summarize([7_000, 5_000])
        series = log.series()
        assert series.times.tolist() == [10, 20, 30, 40]
        assert series.values.tolist() == [1_000.0, 7_000.0, 3_000.0, 5_000.0]

    def test_empty_log(self):
        overall, reads, writes = MetricsCollector().summaries()
        assert overall.count == reads.count == writes.count == 0
        assert len(MetricsCollector().series()) == 0


def run_observed(jobs):
    with Observability(tracing=False) as obs:
        sim = Simulator()
        device = open_device(sim, "ull", precondition=0.5)
        stack = KernelStack(sim, device)
        results = run_jobs(sim, [(stack, job) for job in jobs])
    return results, obs.registry


class TestIoInstruments:
    def test_io_metrics_are_views_of_the_log(self):
        job = FioJob(
            name="log", rw="randrw", engine=IoEngineKind.LIBAIO, iodepth=4,
            io_count=120, capture_timeseries=True,
        )
        (result,), registry = run_observed([job])
        digest = TailDigest("io.latency_us", unit="us")
        for value in result.timeseries.values / 1000:
            digest.observe(value)
        assert registry.get("io.latency_us").to_dict() == digest.to_dict()
        reads = registry.get("io.reads").value
        writes = registry.get("io.writes").value
        assert reads + writes == result.latency.count == 120
        assert registry.get("io.bytes").value == result.latency.count * job.block_size
        assert result.read_latency.count == reads
        assert result.write_latency.count == writes
        assert reads > 0 and writes > 0

    def test_concurrent_jobs_book_per_job(self):
        jobs = [
            FioJob(name="r", rw="randread", io_count=40),
            FioJob(name="w", rw="randwrite", io_count=30, block_size=8192),
        ]
        results, registry = run_observed(jobs)
        assert [r.latency.count for r in results] == [40, 30]
        assert registry.get("io.reads").value == 40
        assert registry.get("io.writes").value == 30
        assert registry.get("io.bytes").value == 40 * 4096 + 30 * 8192
        assert registry.get("io.latency_us").count == 70

    def test_timeseries_only_when_asked(self):
        sim = Simulator()
        stack = KernelStack(sim, open_device(sim, "ull", precondition=0.5))
        result = run_job(sim, stack, FioJob(name="plain", rw="randread", io_count=20))
        assert result.timeseries is None
        assert result.bytes_done == 20 * 4096
