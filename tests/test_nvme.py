"""Tests for the NVMe protocol substrate: commands, rings, controller."""

import pytest

from repro.nvme import (
    CompletionQueue,
    NvmeController,
    NvmeTimings,
    QueueFull,
    StatusCode,
    SubmissionQueue,
)
from repro.sim import Simulator
from repro.ssd import SsdDevice
from repro.ssd.device import IoOp, IoRecord
from tests.test_ssd_device import tiny_config


def command(cid):
    """An SQE: a record the queue pair has stamped with ``cid``."""
    record = IoRecord(Simulator(), IoOp.READ, 0, 4096)
    record.cid = cid
    return record


def phase_at(cq, slot):
    """The phase tag of a CQ slot (bit 16 of the entry's last dword)."""
    return (cq._ring[slot] >> 16) & 1


def make_pair(**kwargs):
    sim = Simulator()
    device = SsdDevice(sim, tiny_config())
    device.precondition(1.0)
    controller = NvmeController(sim, device)
    return sim, controller.create_queue_pair(**kwargs)


class TestCommandEncoding:
    def test_unaligned_rejected(self):
        _, qpair = make_pair()
        with pytest.raises(ValueError):
            qpair.submit(IoOp.READ, 100, 4096)
        assert qpair.outstanding == 0

    def test_negative_fields_rejected(self):
        _, qpair = make_pair()
        with pytest.raises(ValueError):
            qpair.submit(IoOp.READ, -512, 4096)
        with pytest.raises(ValueError):
            qpair.submit(IoOp.READ, 0, 0)


class TestSubmissionQueue:
    def test_fifo_fetch(self):
        sq = SubmissionQueue(8)
        for cid in range(3):
            sq.push(command(cid))
        assert sq.fetch().cid == 0
        assert sq.fetch().cid == 1
        assert sq.occupancy() == 1

    def test_full_queue_rejects(self):
        sq = SubmissionQueue(4)
        for cid in range(3):  # one slot sacrificed
            sq.push(command(cid))
        assert sq.is_full
        with pytest.raises(QueueFull):
            sq.push(command(9))

    def test_doorbell_rings_on_push(self):
        sq = SubmissionQueue(8)
        sq.push(command(0))
        assert sq.tail_doorbell.writes == 1
        assert sq.tail_doorbell.value == 1

    def test_fetch_empty_rejected(self):
        with pytest.raises(IndexError):
            SubmissionQueue(4).fetch()

    def test_wraparound(self):
        sq = SubmissionQueue(4)
        for round_trip in range(10):
            sq.push(command(round_trip))
            assert sq.fetch().cid == round_trip


class TestCompletionQueue:
    def test_phase_tag_detection(self):
        cq = CompletionQueue(4)
        assert cq.peek() is None  # zeroed ring: phase 0 everywhere
        cq.post(cid=1, status=StatusCode.SUCCESS)
        assert phase_at(cq, 0) == 1
        assert cq.peek() == 1

    def test_reap_consumes(self):
        cq = CompletionQueue(4)
        cq.post(1)
        assert cq.reap() == 1
        assert cq.peek() is None
        assert cq.head_doorbell.writes == 1

    def test_phase_flips_on_wrap(self):
        cq = CompletionQueue(2)
        for cid in range(6):
            cq.post(cid)
            assert phase_at(cq, (cq.tail - 1) % 2) == 1 - (cid // 2) % 2
            assert cq.reap() == cid
        # After three wraps the phase settled back; detection still works.

    def test_stale_phase_not_detected(self):
        cq = CompletionQueue(2)
        cq.post(0)
        cq.reap()
        cq.post(1)
        cq.reap()
        # ring wrapped; an old-phase slot must not read as new
        assert cq.peek() is None


class TestQueuePair:
    def test_submit_completes_through_cqe(self):
        sim, qpair = make_pair()
        pending = qpair.submit(IoOp.READ, 0, 4096)
        assert not pending.cqe_event.triggered
        sim.run_until_event(pending.cqe_event)
        assert pending.cqe_ns is not None
        # Protocol adds SQ fetch + CQE post around the device time.
        assert pending.cqe_ns >= qpair.timings.sq_fetch_ns
        assert qpair.completed == 1

    def test_msi_raised_when_interrupts_enabled(self):
        sim, qpair = make_pair(interrupts_enabled=True)
        fired = []
        qpair.on_msi(fired.append)
        pending = qpair.submit(IoOp.READ, 0, 4096)
        sim.run()
        assert fired and fired[0] is pending

    def test_no_msi_when_polling(self):
        sim, qpair = make_pair(interrupts_enabled=False)
        fired = []
        qpair.on_msi(fired.append)
        qpair.submit(IoOp.READ, 0, 4096)
        sim.run()
        assert fired == []

    def test_outstanding_tracking(self):
        sim, qpair = make_pair()
        qpair.submit(IoOp.READ, 0, 4096)
        qpair.submit(IoOp.WRITE, 4096, 4096)
        assert qpair.outstanding == 2
        sim.run()
        assert qpair.outstanding == 0

    def test_cids_unique_among_outstanding(self):
        sim, qpair = make_pair()
        cids = {qpair.submit(IoOp.READ, 0, 4096).cid for _ in range(50)}
        assert len(cids) == 50

    def test_protocol_latency_is_configurable(self):
        sim = Simulator()
        device = SsdDevice(sim, tiny_config())
        device.precondition(1.0)
        slow = NvmeController(
            sim, device, timings=NvmeTimings(sq_fetch_ns=50_000, cqe_post_ns=50_000)
        ).create_queue_pair()
        pending = slow.submit(IoOp.READ, 0, 4096)
        sim.run_until_event(pending.cqe_event)
        assert pending.cqe_ns >= 100_000
