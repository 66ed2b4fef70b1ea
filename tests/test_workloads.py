"""Tests for workload patterns, jobs, engines, and the runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kstack import CompletionMethod, KernelStack
from repro.sim import Simulator
from repro.ssd import SsdDevice
from repro.ssd.device import IoOp
from repro.workloads import FioJob, make_pattern, run_job
from repro.workloads.job import IoEngineKind
from tests.test_ssd_device import tiny_config


class TestPatterns:
    def test_sequential_wraps(self):
        pattern = make_pattern("read", 4096, 3 * 4096)
        offsets = [offset for _, offset in pattern.take(4)]
        assert offsets == [0, 4096, 8192, 0]

    def test_random_is_aligned_and_in_range(self):
        pattern = make_pattern("randwrite", 4096, 64 * 4096)
        for op, offset in pattern.take(200):
            assert op is IoOp.WRITE
            assert offset % 4096 == 0
            assert 0 <= offset < 64 * 4096

    def test_seed_determinism(self):
        a = list(make_pattern("randread", 4096, 1 << 20, seed=9).take(50))
        b = list(make_pattern("randread", 4096, 1 << 20, seed=9).take(50))
        c = list(make_pattern("randread", 4096, 1 << 20, seed=10).take(50))
        assert a == b
        assert a != c

    def test_mixed_fraction(self):
        pattern = make_pattern("randrw", 4096, 1 << 20, write_fraction=0.25, seed=3)
        ops = [op for op, _ in pattern.take(2000)]
        write_share = ops.count(IoOp.WRITE) / len(ops)
        assert 0.2 < write_share < 0.3

    def test_pure_patterns_have_single_direction(self):
        reads = make_pattern("read", 4096, 1 << 20)
        assert all(op is IoOp.READ for op, _ in reads.take(20))
        writes = make_pattern("write", 4096, 1 << 20)
        assert all(op is IoOp.WRITE for op, _ in writes.take(20))

    def test_region_offset(self):
        pattern = make_pattern("read", 4096, 2 * 4096, region_offset=1 << 20)
        assert next(iter(pattern.take(1)))[1] == 1 << 20

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("backwards", 4096, 1 << 20)

    @given(st.integers(min_value=1, max_value=1 << 30))
    @settings(max_examples=30)
    def test_property_random_offsets_fit_region(self, region_blocks_seed):
        region = (region_blocks_seed % 1000 + 1) * 4096
        pattern = make_pattern("randread", 4096, region, seed=region_blocks_seed)
        for _, offset in pattern.take(20):
            assert 0 <= offset <= region - 4096


class TestFioJob:
    def test_defaults(self):
        job = FioJob(name="j")
        assert job.engine is IoEngineKind.PSYNC
        assert job.total_bytes == 1000 * 4096

    def test_sync_engines_require_qd1(self):
        with pytest.raises(ValueError):
            FioJob(name="j", engine=IoEngineKind.PSYNC, iodepth=4)
        with pytest.raises(ValueError):
            FioJob(name="j", engine=IoEngineKind.SPDK, iodepth=2)

    def test_block_size_must_be_sector_multiple(self):
        with pytest.raises(ValueError):
            FioJob(name="j", block_size=1000)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            FioJob(name="j", write_fraction=1.5)


def make_kernel_stack():
    sim = Simulator()
    device = SsdDevice(sim, tiny_config())
    device.precondition(1.0)
    return sim, KernelStack(sim, device, completion=CompletionMethod.INTERRUPT)


class TestRunner:
    def test_sync_job_counts_and_latency(self):
        sim, stack = make_kernel_stack()
        job = FioJob(name="sync", rw="randread", io_count=50)
        result = run_job(sim, stack, job)
        assert result.latency.count == 50
        assert result.bytes_done == 50 * 4096
        assert result.latency.mean_us > 5
        assert result.read_latency.count == 50
        assert result.write_latency.count == 0

    def test_async_job_respects_queue_depth(self):
        sim, stack = make_kernel_stack()
        job = FioJob(
            name="async", rw="randread", io_count=200,
            engine=IoEngineKind.LIBAIO, iodepth=8,
        )
        result = run_job(sim, stack, job)
        assert result.latency.count == 200
        assert stack.driver.outstanding == 0

    def test_async_higher_qd_raises_throughput(self):
        results = {}
        for depth in (1, 8):
            sim, stack = make_kernel_stack()
            job = FioJob(
                name=f"qd{depth}", rw="randread", io_count=300,
                engine=IoEngineKind.LIBAIO, iodepth=depth,
            )
            results[depth] = run_job(sim, stack, job)
        assert results[8].bandwidth_mbps > 2.5 * results[1].bandwidth_mbps
        assert results[8].iops > 2.5 * results[1].iops

    def test_mixed_job_separates_directions(self):
        sim, stack = make_kernel_stack()
        job = FioJob(
            name="mix", rw="randrw", io_count=100, write_fraction=0.5,
            engine=IoEngineKind.LIBAIO, iodepth=4,
        )
        result = run_job(sim, stack, job)
        assert result.read_latency.count + result.write_latency.count == 100
        assert result.read_latency.count > 10
        assert result.write_latency.count > 10

    def test_a_stack_that_yields_a_non_event_fails_the_job(self):
        """A layer that yields garbage must raise, not end the job early
        with a truncated result."""

        class StubDevice:
            capacity_bytes = 1 << 20

        class GarbageStack:
            device = StubDevice()

            def sync_io(self, op, offset, nbytes):
                yield 42
                return 0

        job = FioJob(name="garbage", rw="randread", io_count=10)
        with pytest.raises(TypeError, match="non-event: 42"):
            run_job(Simulator(), GarbageStack(), job)

    def test_timeseries_capture(self):
        sim, stack = make_kernel_stack()
        job = FioJob(name="ts", rw="write", io_count=30, capture_timeseries=True)
        result = run_job(sim, stack, job)
        assert result.timeseries is not None
        assert len(result.timeseries) == 30

    def test_power_reported(self):
        sim, stack = make_kernel_stack()
        result = run_job(sim, stack, FioJob(name="p", rw="randread", io_count=30))
        assert result.avg_power_w is not None
        assert result.avg_power_w > 3.0

    def test_cpu_utilization_available(self):
        sim, stack = make_kernel_stack()
        result = run_job(sim, stack, FioJob(name="c", rw="randread", io_count=30))
        assert 0.0 < result.cpu_utilization() <= 1.0

    def test_region_bytes_limits_span(self):
        sim, stack = make_kernel_stack()
        job = FioJob(name="r", rw="randread", io_count=100, region_bytes=8 * 4096)
        run_job(sim, stack, job)  # must not raise out-of-range
