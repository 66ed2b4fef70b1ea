"""Tests for the SSD controller + device facade."""

import pytest

from repro.sim import Simulator
from repro.ssd import SsdConfig, SsdDevice
from repro.flash.timing import FlashTiming

#: Deterministic small device for exact-behavior tests.
EXACT_TIMING = FlashTiming(
    name="exact", read_ns=3_000, program_ns=100_000, erase_ns=1_000_000,
    bus_mbps=1200, suspend_ns=1_000, resume_ns=1_000,
)


def tiny_config(**overrides) -> SsdConfig:
    defaults = dict(
        name="tiny",
        timing=EXACT_TIMING,
        channels=2,
        ways_per_channel=2,
        blocks_per_die=8,
        pages_per_block=16,
        units_per_program=2,
        channel_mbps=2400,
        read_fw_ns=1_000,
        write_fw_ns=1_000,
        completion_fw_ns=500,
        write_buffer_units=8,
        dram_hit_ns=1_000,
        pcie_mbps=3200,
        pcie_latency_ns=200,
        overprovision=0.25,
        gc_watermark_blocks=2,
    )
    defaults.update(overrides)
    return SsdConfig(**defaults)


def make_device(**overrides):
    sim = Simulator()
    device = SsdDevice(sim, tiny_config(**overrides))
    return sim, device


def wait(sim, request):
    sim.run_until_event(request.done)
    return request


class TestReadPath:
    def test_unwritten_read_served_from_dram(self):
        sim, device = make_device()
        request = wait(sim, device.read(0, 4096))
        # fw + dram + pcie + completion fw: no flash access at all.
        assert device.stats.unwritten_reads == 1
        assert device.stats.flash_reads == 0
        assert request.device_latency_ns < 10_000

    def test_preconditioned_read_hits_flash(self):
        sim, device = make_device()
        device.precondition(1.0)
        wait(sim, device.read(0, 4096))
        assert device.stats.flash_reads == 1

    def test_read_latency_composition(self):
        sim, device = make_device()
        device.precondition(1.0)
        request = wait(sim, device.read(0, 4096))
        # fw 1000 + tR 3000 + channel (4096B @ 2400MB/s ~ 1707)
        # + pcie (200 + 1280) + completion 500 ~ 7.7 us
        assert 7_000 <= request.device_latency_ns <= 9_000

    def test_multi_unit_read_uses_parallel_dies(self):
        sim, device = make_device()
        device.precondition(1.0)
        single = wait(sim, device.read(0, 4096)).device_latency_ns
        sim2, device2 = make_device()
        device2.precondition(1.0)
        multi = wait(sim2, device2.read(0, 16384)).device_latency_ns
        # 4 units striped over dies: far cheaper than 4x a single read.
        assert multi < 2.5 * single

    def test_buffer_hit_read_is_fast(self):
        sim, device = make_device()
        device.precondition(1.0)
        wait(sim, device.write(0, 4096))
        request = wait(sim, device.read(0, 4096))
        assert device.stats.buffer_read_hits >= 1
        assert request.device_latency_ns < 6_000


class TestWritePath:
    def test_buffered_write_is_fast(self):
        sim, device = make_device()
        request = wait(sim, device.write(0, 4096))
        # Ack from DRAM: far below tPROG.
        assert request.device_latency_ns < 10_000

    def test_writes_eventually_flush_to_flash(self):
        sim, device = make_device()
        for unit in range(4):
            device.write(unit * 4096, 4096)
        sim.run()
        assert device.ftl.host_writes == 4
        assert device.controller.write_buffer.occupancy == 0
        total_programs = sum(die.programs for die in device.controller.dies)
        assert total_programs >= 2  # 4 units / 2 per program

    def test_full_buffer_stalls_writes(self):
        sim, device = make_device(write_buffer_units=2)
        latencies = []
        for unit in range(12):
            latencies.append(wait(sim, device.write(unit * 4096, 4096)))
        stalled = [r for r in latencies if r.device_latency_ns > 50_000]
        assert device.controller.write_buffer.stall_count > 0
        assert stalled, "some writes must wait for a program to finish"

    def test_write_stall_mechanism(self):
        sim, device = make_device(write_stall_prob=0.5, write_stall_ns=1_000_000)
        slow = 0
        for unit in range(20):
            request = wait(sim, device.write(unit * 4096, 4096))
            if request.device_latency_ns > 1_000_000:
                slow += 1
        assert device.stats.write_stalls == slow
        assert 0 < slow < 20

    def test_overwrite_drops_the_read_cache_copy(self):
        """A read after an overwrite must not be served the old copy."""
        from repro.ssd.registry import resolve_config

        sim = Simulator()
        device = SsdDevice(sim, resolve_config("intel750"))
        device.precondition(1.0)
        wait(sim, device.read(5 * 4096, 4096))
        old_ppa = device.ftl.read_ppa(5)
        wait(sim, device.write(5 * 4096, 4096))
        sim.run(until=sim.now + 50_000_000)  # the flush places LPN 5 anew
        assert device.ftl.read_ppa(5) != old_ppa
        assert 5 not in device.controller.write_buffer.resident
        hits = device.stats.cache_read_hits
        wait(sim, device.read(5 * 4096, 4096))
        assert device.stats.cache_read_hits == hits


class TestRequestValidation:
    def test_misaligned_offset_rejected(self):
        _, device = make_device()
        with pytest.raises(ValueError):
            device.read(100, 4096)

    def test_out_of_range_rejected(self):
        _, device = make_device()
        with pytest.raises(ValueError):
            device.read(device.capacity_bytes, 4096)

    def test_zero_size_rejected(self):
        _, device = make_device()
        with pytest.raises(ValueError):
            device.read(0, 0)

    def test_latency_before_completion_raises(self):
        _, device = make_device()
        request = device.read(0, 4096)
        with pytest.raises(RuntimeError):
            _ = request.device_latency_ns


class TestPrecondition:
    def test_fills_logical_space(self):
        _, device = make_device()
        written = device.precondition(1.0)
        assert written == device.logical_pages
        assert device.ftl.mapping.mapped_lpn_count == device.logical_pages

    def test_partial_fill(self):
        _, device = make_device()
        written = device.precondition(0.5)
        assert written == device.logical_pages // 2

    def test_resets_statistics(self):
        _, device = make_device()
        device.precondition(1.0)
        assert device.ftl.host_writes == 0

    def test_fraction_validated(self):
        _, device = make_device()
        with pytest.raises(ValueError):
            device.precondition(1.5)


class TestGarbageCollection:
    def test_sustained_overwrites_trigger_gc_and_stay_consistent(self):
        import numpy as np

        sim, device = make_device()
        device.precondition(1.0)
        rng = np.random.default_rng(5)
        pages = device.logical_pages
        requests = []
        for _ in range(pages * 2):
            offset = int(rng.integers(0, pages)) * 4096
            requests.append(device.write(offset, 4096))
        sim.run()
        assert all(r.done.triggered for r in requests)
        assert len(device.stats.gc_events) > 0
        assert device.ftl.write_amplification() > 1.0
        device.ftl.mapping.check_invariants()

    def test_gc_never_resurrects_stale_data(self):
        """Every LPN still maps to a valid page after heavy GC churn."""
        import numpy as np

        sim, device = make_device()
        device.precondition(1.0)
        rng = np.random.default_rng(6)
        pages = device.logical_pages
        for _ in range(pages * 2):
            device.write(int(rng.integers(0, pages)) * 4096, 4096)
        sim.run()
        for lpn in range(pages):
            assert device.ftl.read_ppa(lpn) is not None


    def test_overwrite_storm_never_starves_a_gc_cycle(self):
        """Overflow host writes used to borrow the open GC block of a
        die whose pool was empty, mid-migration, leaving the cycle no
        room to finish (seed found by the read-your-writes property)."""
        import numpy as np

        seed = 362879
        sim = Simulator()
        device = SsdDevice(sim, tiny_config(), seed=seed % 1000 + 1)
        device.precondition(1.0)
        rng = np.random.default_rng(seed)
        pages = device.logical_pages
        for _ in range(pages):
            device.write(int(rng.integers(0, pages)) * 4096, 4096)
        sim.run()
        device.ftl.mapping.check_invariants()
        assert len(device.stats.gc_events) > 0

class TestMapCache:
    def test_sequential_hits_random_misses(self):
        sim, device = make_device(
            map_cache_segments=2, map_segment_units=16, map_fetch_ns=3_000
        )
        device.precondition(1.0)
        for unit in range(8):  # one segment: at most one miss
            wait(sim, device.read(unit * 4096, 4096))
        sequential_misses = device.stats.map_misses
        assert sequential_misses <= 1
        import numpy as np

        rng = np.random.default_rng(2)
        for _ in range(8):
            offset = int(rng.integers(0, device.logical_pages)) * 4096
            wait(sim, device.read(offset, 4096))
        assert device.stats.map_misses > sequential_misses
