"""Tests for blk-mq structures and the kernel NVMe driver binding."""

import pytest

from repro.kstack import BlkMq, KernelNvmeDriver
from repro.nvme import NvmeController
from repro.sim import Simulator
from repro.ssd import SsdDevice
from repro.ssd.device import IoOp, IoRecord
from tests.test_ssd_device import tiny_config


def block_request(op=IoOp.READ, offset=0, nbytes=4096):
    return IoRecord(Simulator(), op, offset, nbytes)


class TestBlkMq:
    def test_bio_validation(self):
        with pytest.raises(ValueError):
            BlkMq().submit(0, block_request(nbytes=0))

    def test_submit_returns_cookie(self):
        """Submission tags the record with the (hw queue, tag) cookie."""
        blkmq = BlkMq(cpus=2, hw_queues=2, tags_per_queue=4)
        record = block_request()
        blkmq.submit(1, record)
        assert record.hw_queue == 1
        assert record.tag >= 0
        assert blkmq.hardware_queues[1].inflight[record.tag] is record

    def test_cpu_to_hw_queue_mapping_wraps(self):
        blkmq = BlkMq(cpus=4, hw_queues=2)
        assert blkmq.map_queue(0).index == 0
        assert blkmq.map_queue(3).index == 1

    def test_tags_are_recycled(self):
        blkmq = BlkMq(tags_per_queue=2)
        first, second, third = (block_request(IoOp.WRITE) for _ in range(3))
        blkmq.submit(0, first)
        blkmq.submit(0, second)
        with pytest.raises(RuntimeError):
            blkmq.submit(0, block_request(IoOp.WRITE))
        blkmq.complete(first)
        blkmq.submit(0, third)  # reuses the freed tag
        assert third.tag == first.tag
        assert second.tag != third.tag

    def test_complete_marks_request(self):
        blkmq = BlkMq()
        record = block_request(nbytes=512)
        blkmq.submit(0, record)
        blkmq.complete(record)
        assert record.completed
        with pytest.raises(KeyError):
            blkmq.complete(record)

    def test_invalid_cpu_rejected(self):
        with pytest.raises(ValueError):
            BlkMq(cpus=1).map_queue(1)

    def test_software_queue_counts_traffic(self):
        blkmq = BlkMq()
        for _ in range(3):
            blkmq.submit(0, block_request(nbytes=512))
        assert blkmq.software_queues[0].queued == 3


class TestKernelNvmeDriver:
    def make_driver(self, interrupts=False):
        sim = Simulator()
        device = SsdDevice(sim, tiny_config())
        device.precondition(1.0)
        qpair = NvmeController(sim, device).create_queue_pair(
            interrupts_enabled=interrupts
        )
        blkmq = BlkMq()
        return sim, KernelNvmeDriver(blkmq, qpair)

    def test_submit_ties_bio_to_command(self):
        sim, driver = self.make_driver()
        record = driver.submit(0, IoOp.READ, 0, 4096, hipri=True)
        assert record.hipri
        assert record.tag >= 0 and record.cid >= 0
        assert driver.qpair.sq.occupancy() == 1
        assert driver.outstanding == 1

    def test_nvme_poll_before_cqe_returns_none(self):
        sim, driver = self.make_driver()
        record = driver.submit(0, IoOp.READ, 0, 4096)
        assert driver.nvme_poll(record) is None

    def test_nvme_poll_after_cqe_completes(self):
        sim, driver = self.make_driver()
        record = driver.submit(0, IoOp.READ, 0, 4096)
        sim.run_until_event(record.cqe_event)
        completed = driver.nvme_poll(record)
        assert completed is record
        assert driver.outstanding == 0
        with pytest.raises(KeyError):
            driver.nvme_poll(record)

    def test_complete_by_cid_isr_path(self):
        sim, driver = self.make_driver(interrupts=True)
        record = driver.submit(0, IoOp.WRITE, 0, 4096)
        sim.run_until_event(record.cqe_event)
        completed = driver.complete_by_cid(record.cid)
        assert completed is record
        assert record.completed

    def test_unknown_cid_rejected(self):
        _, driver = self.make_driver()
        with pytest.raises(KeyError):
            driver.complete_by_cid(999)
