"""Tests for concurrent (numjobs-style) job execution on one device."""

import pytest

from repro.kstack import CompletionMethod, KernelStack
from repro.sim import Simulator
from repro.ssd import SsdDevice
from repro.workloads import FioJob, run_job
from repro.workloads.job import IoEngineKind
from repro.workloads.runner import run_jobs
from tests.test_ssd_device import tiny_config


def shared_device():
    sim = Simulator()
    device = SsdDevice(sim, tiny_config())
    device.precondition(1.0)
    return sim, device


class StuckStack:
    """A stack whose first I/O never completes."""

    def __init__(self, sim, device):
        self.sim = sim
        self.device = device

    def sync_io(self, op, offset, size):
        yield self.sim.event()
        return 0


class TestRunJobs:
    @pytest.mark.parametrize("via_run_jobs", [False, True])
    def test_unfinished_job_is_named(self, via_run_jobs):
        sim, device = shared_device()
        stack, job = StuckStack(sim, device), FioJob(name="stuck", io_count=1)
        with pytest.raises(
            RuntimeError, match=r"^job 'stuck' did not finish \(deadlock\?\)$"
        ):
            if via_run_jobs:
                run_jobs(sim, [(stack, job)])
            else:
                run_job(sim, stack, job)

    def test_two_readers_share_the_device(self):
        sim, device = shared_device()
        pairs = []
        for index in range(2):
            stack = KernelStack(sim, device, seed=index + 1)
            job = FioJob(
                name=f"reader{index}", rw="randread", io_count=100,
                seed=index + 1,
            )
            pairs.append((stack, job))
        results = run_jobs(sim, pairs)
        assert len(results) == 2
        assert all(result.latency.count == 100 for result in results)
        assert device.completed_reads == 200

    def test_concurrency_actually_overlaps(self):
        """Two concurrent jobs must finish in well under 2x one job."""
        sim_solo, device_solo = shared_device()
        solo = run_job(
            sim_solo,
            KernelStack(sim_solo, device_solo),
            FioJob(name="solo", rw="randread", io_count=150),
        )
        sim, device = shared_device()
        pairs = [
            (
                KernelStack(sim, device, seed=index + 1),
                FioJob(name=f"j{index}", rw="randread", io_count=150,
                       seed=index + 1),
            )
            for index in range(2)
        ]
        results = run_jobs(sim, pairs)
        # Wall time for both together < 1.5x a single job's wall time.
        assert results[0].duration_ns < 1.5 * solo.duration_ns

    def test_mixed_sync_and_async_jobs(self):
        sim, device = shared_device()
        sync_stack = KernelStack(sim, device, seed=1)
        async_stack = KernelStack(sim, device, seed=2)
        pairs = [
            (sync_stack, FioJob(name="s", rw="randread", io_count=80, seed=1)),
            (
                async_stack,
                FioJob(
                    name="a", rw="randwrite", io_count=80, seed=2,
                    engine=IoEngineKind.LIBAIO, iodepth=4,
                ),
            ),
        ]
        results = run_jobs(sim, pairs)
        assert results[0].read_latency.count == 80
        assert results[1].write_latency.count == 80
        device.ftl.mapping.check_invariants()

    def test_writer_interferes_with_reader(self):
        """A concurrent write stream raises the reader's latency on a
        device without suspend/resume — the Fig. 6 effect, driven by
        two independent jobs instead of a mixed pattern."""
        sim_solo, device_solo = shared_device()
        baseline = run_job(
            sim_solo,
            KernelStack(sim_solo, device_solo),
            FioJob(name="solo", rw="randread", io_count=200),
        )
        sim, device = shared_device()
        reader = KernelStack(sim, device, seed=1)
        writer = KernelStack(sim, device, seed=2)
        results = run_jobs(
            sim,
            [
                (reader, FioJob(name="r", rw="randread", io_count=200, seed=1)),
                (
                    writer,
                    FioJob(
                        name="w", rw="randwrite", io_count=200, seed=2,
                        engine=IoEngineKind.LIBAIO, iodepth=8,
                    ),
                ),
            ],
        )
        assert results[0].latency.mean_ns > baseline.latency.mean_ns

    def test_per_stack_accounting_is_separate(self):
        sim, device = shared_device()
        poll_stack = KernelStack(sim, device, completion=CompletionMethod.POLL, seed=1)
        int_stack = KernelStack(sim, device, seed=2)
        run_jobs(
            sim,
            [
                (poll_stack, FioJob(name="p", rw="randread", io_count=60, seed=1)),
                (int_stack, FioJob(name="i", rw="randread", io_count=60, seed=2)),
            ],
        )
        poll_fns = poll_stack.accounting.cycles_by_function()
        int_fns = int_stack.accounting.cycles_by_function()
        assert "blk_mq_poll" in poll_fns
        assert "blk_mq_poll" not in int_fns
