"""Cross-cutting property-based tests on core invariants.

These complement the per-module suites with randomized adversaries:
flash timelines must never double-book, the power integrator must never
dip below idle, NVMe rings must stay FIFO under arbitrary interleaving,
and the pattern generator must cover its region.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash import FlashDie, FlashTiming
from repro.flash.chip import OpKind
from repro.nvme import CompletionQueue, SubmissionQueue
from repro.sim import Simulator
from repro.ssd.device import IoOp, IoRecord
from repro.ssd.power import PowerMeter, PowerParams
from repro.workloads.patterns import make_pattern

PLAIN = FlashTiming("plain", 3_000, 100_000, 1_000_000, bus_mbps=1200)


class TestFlashTimelineProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["read", "program", "erase"]), min_size=1, max_size=40
        )
    )
    def test_property_fifo_ops_never_overlap(self, ops):
        sim = Simulator()
        die = FlashDie(sim, PLAIN)
        intervals = [getattr(die, op)() for op in ops]
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
        assert die.free_at == intervals[-1][1]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200_000), max_size=20))
    def test_property_suspended_reads_never_overlap_each_other(self, gaps):
        """Reads injected at arbitrary instants during a program must be
        served in non-overlapping windows and the program must end after
        every read."""
        sim = Simulator()
        timing = PLAIN.with_overrides(max_suspends_per_op=100)
        die = FlashDie(sim, timing, allow_suspend=True)
        intervals = []
        die.observer = lambda kind, s, e: intervals.append((kind, s, e))
        die.observer = None  # observer set post-init is not supported; use returns
        _, program_end0 = die.program()
        reads = []
        t = 0
        for gap in gaps:
            t += gap
            if t >= program_end0:
                break
            sim.run(until=t)
            reads.append(die.read())
        reads.sort()
        for (s1, e1), (s2, e2) in zip(reads, reads[1:]):
            assert e1 <= s2
        if reads:
            assert die.free_at >= max(e for _, e in reads)


class TestPowerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(OpKind)),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=5_000),
            ),
            max_size=30,
        )
    )
    def test_property_power_never_below_idle(self, ops):
        sim = Simulator()
        meter = PowerMeter(sim, PowerParams(idle_w=3.8))
        for kind, start, duration in ops:
            meter.observe_op(kind, start, start + duration)
        sim.run(until=max((start + duration for _, start, duration in ops), default=0))
        values = meter.series.values
        if len(values):
            assert (values >= 3.8 - 1e-9).all()
        assert meter.instantaneous_watts() == pytest.approx(3.8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=20))
    def test_property_average_bounded_by_peak(self, n_ops):
        sim = Simulator()
        params = PowerParams(idle_w=4.0, read_op_w=0.5)
        meter = PowerMeter(sim, params)
        for index in range(n_ops):
            meter.observe_op(OpKind.READ, index * 100, index * 100 + 100)
        sim.run(until=n_ops * 100)
        average = meter.average_watts(n_ops * 100)
        assert 4.0 - 1e-9 <= average <= 4.0 + 0.5 * n_ops


class TestNvmeRingProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_property_sq_is_fifo_under_any_interleaving(self, pushes):
        """Random push/fetch interleavings preserve order and never
        lose or duplicate a command."""
        sq = SubmissionQueue(8)
        next_cid = 0
        expected = []
        fetched = []
        for do_push in pushes:
            if do_push and not sq.is_full:
                record = IoRecord(Simulator(), IoOp.READ, 0, 4096)
                record.cid = next_cid
                sq.push(record)
                expected.append(next_cid)
                next_cid += 1
            elif not sq.is_empty:
                fetched.append(sq.fetch().cid)
        while not sq.is_empty:
            fetched.append(sq.fetch().cid)
        assert fetched == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_property_cq_phase_detection_across_wraps(self, count):
        cq = CompletionQueue(4)
        for cid in range(count):
            assert cq.peek() is None  # nothing stale ever shows up
            cq.post(cid)
            assert cq.reap() == cid


class TestPatternProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_sequential_covers_whole_region(self, nchunks, seed):
        pattern = make_pattern("read", 4096, nchunks * 4096, seed=seed)
        offsets = {offset for _, offset in pattern.take(nchunks)}
        assert offsets == {i * 4096 for i in range(nchunks)}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_mixed_stream_is_reproducible(self, seed):
        a = list(
            make_pattern("randrw", 4096, 1 << 20, seed=seed, write_fraction=0.3).take(64)
        )
        b = list(
            make_pattern("randrw", 4096, 1 << 20, seed=seed, write_fraction=0.3).take(64)
        )
        assert a == b


class TestDeviceLevelProperties:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_read_your_writes_mapping(self, seed):
        """After any overwrite storm, every written LBA maps to exactly
        one valid physical page (no lost or duplicated data)."""
        from repro.ssd import SsdDevice
        from tests.test_ssd_device import tiny_config

        sim = Simulator()
        device = SsdDevice(sim, tiny_config(), seed=seed % 1000 + 1)
        device.precondition(1.0)
        rng = np.random.default_rng(seed)
        pages = device.logical_pages
        for _ in range(pages):
            device.write(int(rng.integers(0, pages)) * 4096, 4096)
        sim.run()
        device.ftl.mapping.check_invariants()
        seen = set()
        for lpn in range(pages):
            ppa = device.ftl.read_ppa(lpn)
            assert ppa is not None
            assert ppa not in seen
            seen.add(ppa)
