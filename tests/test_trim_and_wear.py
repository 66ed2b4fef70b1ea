"""Tests for TRIM (dataset management) and wear tracking."""

import pytest

from repro.ftl import WearTracker
from repro.nvme import NvmeController
from repro.ssd.device import IoOp
from tests.test_ssd_device import make_device, wait


class TestDeviceTrim:
    def test_trim_invalidates_mapping(self):
        sim, device = make_device()
        device.precondition(1.0)
        wait(sim, device.trim(0, 4 * 4096))
        for lpn in range(4):
            assert device.ftl.read_ppa(lpn) is None
        assert device.ftl.read_ppa(4) is not None
        assert device.completed_trims == 1

    def test_trim_is_fast(self):
        sim, device = make_device()
        device.precondition(1.0)
        request = wait(sim, device.trim(0, 65536))
        assert request.device_latency_ns < 5_000  # no flash work

    def test_read_after_trim_returns_unwritten(self):
        sim, device = make_device()
        device.precondition(1.0)
        wait(sim, device.trim(0, 4096))
        wait(sim, device.read(0, 4096))
        assert device.stats.unwritten_reads == 1

    def test_trim_reduces_gc_migration(self):
        """Trimmed pages need no migration: GC moves fewer pages."""
        import numpy as np

        def churn(trim_first: bool) -> int:
            sim, device = make_device()
            device.precondition(1.0)
            if trim_first:
                half = (device.logical_pages // 2) * 4096
                wait(sim, device.trim(0, half))
            rng = np.random.default_rng(3)
            pages = device.logical_pages
            for _ in range(pages):
                device.write(int(rng.integers(0, pages)) * 4096, 4096)
            sim.run()
            return device.ftl.gc_writes

        assert churn(trim_first=True) < churn(trim_first=False)

    def test_trim_travels_as_dsm_over_nvme(self):
        sim, device = make_device()
        device.precondition(1.0)
        qpair = NvmeController(sim, device).create_queue_pair()
        pending = qpair.submit(IoOp.TRIM, 0, 4096)
        sim.run_until_event(pending.cqe_event)
        assert device.completed_trims == 1
        assert device.ftl.read_ppa(0) is None


class TestWearTracker:
    def test_records_erases(self):
        tracker = WearTracker(10)
        assert tracker.record_erase(3) == 1
        assert tracker.record_erase(3) == 2
        assert tracker.erases_of(3) == 2
        assert tracker.erases_of(0) == 0

    def test_summary(self):
        tracker = WearTracker(4)
        for block, count in ((0, 4), (1, 2), (2, 2)):
            for _ in range(count):
                tracker.record_erase(block)
        summary = tracker.summary()
        assert summary.total_erases == 8
        assert summary.max_erases == 4
        assert summary.min_erases == 0
        assert summary.mean_erases == 2.0
        assert summary.imbalance == 2.0

    def test_endurance_limit(self):
        tracker = WearTracker(4, endurance_limit=2)
        tracker.record_erase(1)
        assert tracker.worn_out_blocks() == []
        tracker.record_erase(1)
        assert tracker.worn_out_blocks() == [1]

    def test_no_limit_means_nothing_wears_out(self):
        tracker = WearTracker(4)
        for _ in range(100):
            tracker.record_erase(0)
        assert tracker.worn_out_blocks() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            WearTracker(0)


class TestFtlWearIntegration:
    def test_gc_storm_records_wear(self):
        import numpy as np

        sim, device = make_device()
        device.precondition(1.0)
        rng = np.random.default_rng(9)
        pages = device.logical_pages
        for _ in range(pages * 2):
            device.write(int(rng.integers(0, pages)) * 4096, 4096)
        sim.run()
        summary = device.ftl.wear.summary()
        assert summary.total_erases == device.ftl.erases
        assert summary.total_erases > 0
        assert summary.imbalance >= 1.0
