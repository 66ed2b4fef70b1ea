"""Tests for the ext4-like file-system cost model."""

import pytest

from repro.host.accounting import CpuAccounting, ExecMode
from repro.kstack.filesystem import Ext4Model, FsCosts
from repro.sim import Simulator
from repro.ssd.device import IoOp


class BlockPathRecorder:
    """Fake block path: fixed latency, records every I/O issued."""

    def __init__(self, sim, latency_ns=10_000):
        self.sim = sim
        self.latency_ns = latency_ns
        self.issued = []

    def io(self, op, offset, nbytes):
        self.issued.append((op, offset, nbytes))
        yield self.sim.sleep(self.latency_ns)
        return self.latency_ns


def make_fs(sim, costs=None, capacity=1 << 26):
    recorder = BlockPathRecorder(sim)
    fs = Ext4Model(
        sim,
        CpuAccounting(),
        recorder.io,
        capacity,
        costs=costs or FsCosts(metadata_miss_prob=0.0),
    )
    return fs, recorder


def run(sim, generator):
    process = sim.process(generator)
    sim.run_until_event(process)
    assert process.triggered
    return process.value


class TestReads:
    def test_read_issues_one_data_io(self):
        sim = Simulator()
        fs, recorder = make_fs(sim)
        latency = run(sim, fs.read(0, 4096))
        data_ios = [io for io in recorder.issued if io[0] is IoOp.READ]
        assert len(data_ios) == 1
        assert latency > recorder.latency_ns  # plus metadata CPU work

    def test_read_offsets_into_data_region(self):
        sim = Simulator()
        fs, recorder = make_fs(sim)
        run(sim, fs.read(8192, 4096))
        _, offset, _ = recorder.issued[0]
        assert offset == fs.data_base + 8192

    def test_cold_metadata_read_probability(self):
        sim = Simulator()
        fs, recorder = make_fs(
            sim, costs=FsCosts(metadata_miss_prob=0.5), capacity=1 << 26
        )
        for index in range(40):
            run(sim, fs.read(index * 4096, 4096))
        assert fs.metadata_reads > 0
        assert len(recorder.issued) == 40 + fs.metadata_reads


class TestWrites:
    def test_journal_commit_every_interval(self):
        sim = Simulator()
        costs = FsCosts(metadata_miss_prob=0.0, journal_commit_interval=4,
                        metadata_writeback_interval=1000)
        fs, recorder = make_fs(sim, costs=costs)
        for index in range(8):
            run(sim, fs.write(index * 4096, 4096))
        assert fs.journal_commits == 2
        commits = [
            io for io in recorder.issued
            if io[0] is IoOp.WRITE and io[2] == costs.journal_commit_bytes
        ]
        assert len(commits) == 2

    def test_metadata_writeback_every_interval(self):
        sim = Simulator()
        costs = FsCosts(metadata_miss_prob=0.0, journal_commit_interval=1000,
                        metadata_writeback_interval=4)
        fs, recorder = make_fs(sim, costs=costs)
        for index in range(8):
            run(sim, fs.write(index * 4096, 4096))
        assert fs.metadata_writebacks == 2

    def test_writes_cost_more_cpu_than_reads(self):
        """The Fig. 23 asymmetry: journaling + metadata make writes
        heavier on the client CPU."""
        sim = Simulator()
        fs, _ = make_fs(sim)
        read_latency = run(sim, fs.read(0, 4096))
        write_latency = run(sim, fs.write(0, 4096))
        assert write_latency > read_latency

    def test_metadata_ios_stay_in_metadata_region(self):
        sim = Simulator()
        costs = FsCosts(metadata_miss_prob=0.0, journal_commit_interval=1,
                        metadata_writeback_interval=1)
        fs, recorder = make_fs(sim, costs=costs)
        run(sim, fs.write(0, 4096))
        metadata_ios = recorder.issued[1:]  # after the data write
        assert metadata_ios
        for _, offset, _ in metadata_ios:
            assert offset < fs.data_base

    def test_cpu_charged_to_ext4_module(self):
        sim = Simulator()
        fs, _ = make_fs(sim)
        run(sim, fs.write(0, 4096))
        by_module = fs.accounting.cycles_by_module(ExecMode.KERNEL)
        assert by_module.get("ext4", 0) > 0


class TestValidation:
    def test_costs_validation(self):
        with pytest.raises(ValueError):
            FsCosts(metadata_miss_prob=1.5)
        with pytest.raises(ValueError):
            FsCosts(journal_commit_interval=0)
