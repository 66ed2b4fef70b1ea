"""Tests for dual write streams (host vs. GC) and GC policies."""

import numpy as np
import pytest

from repro.ftl import (
    BlockAllocator,
    OutOfSpace,
    CostBenefitVictimPolicy,
    FtlLayout,
    PageMappedFtl,
    WriteStream,
)


def make_allocator():
    return BlockAllocator(FtlLayout(dies=1, blocks_per_die=6, pages_per_block=4))


class TestDualStreams:
    def test_streams_use_separate_blocks(self):
        allocator = make_allocator()
        host_page = allocator.allocate_page(0, WriteStream.HOST)
        gc_page = allocator.allocate_page(0, WriteStream.GC)
        layout = allocator.layout
        assert layout.block_of_page(host_page) != layout.block_of_page(gc_page)

    def test_streams_have_independent_write_pointers(self):
        allocator = make_allocator()
        allocator.allocate_page(0, WriteStream.HOST)
        allocator.allocate_page(0, WriteStream.GC)
        second_host = allocator.allocate_page(0, WriteStream.HOST)
        assert second_host % allocator.layout.pages_per_block == 1

    def test_default_stream_is_host(self):
        allocator = make_allocator()
        allocator.allocate_page(0)
        assert allocator.active_block(0, WriteStream.HOST) is not None
        assert allocator.active_block(0, WriteStream.GC) is None

    def test_is_active_covers_both_streams(self):
        allocator = make_allocator()
        allocator.allocate_page(0, WriteStream.HOST)
        allocator.allocate_page(0, WriteStream.GC)
        host_block = allocator.active_block(0, WriteStream.HOST)
        gc_block = allocator.active_block(0, WriteStream.GC)
        assert allocator.is_active(host_block)
        assert allocator.is_active(gc_block)

    def test_can_host_write_keeps_gc_reserve(self):
        allocator = make_allocator()
        # Exhaust down to two pool blocks via the host stream.
        while allocator.free_blocks(0) > 2 or allocator.remaining_in_active(0):
            allocator.allocate_page(0, WriteStream.HOST)
        assert allocator.can_host_write(0)
        allocator.allocate_page(0, WriteStream.HOST)  # opens, pool -> 1
        while allocator.remaining_in_active(0):
            allocator.allocate_page(0, WriteStream.HOST)
        assert not allocator.can_host_write(0)  # last block is GC-only

    def test_pressure_fallback_borrows_gc_room_while_pool_has_a_block(self):
        ftl = PageMappedFtl(FtlLayout(dies=1, blocks_per_die=6, pages_per_block=4))
        allocator = ftl.allocator
        allocator.allocate_page(0, WriteStream.GC)  # open the GC block
        while allocator.free_blocks(0) > 1 or allocator.remaining_in_active(0):
            allocator.allocate_page(0, WriteStream.HOST)
        assert not allocator.can_host_write(0)
        placement = ftl.write(0)
        assert placement.ppa // 4 == allocator.active_block(0, WriteStream.GC)

    def test_pressure_fallback_leaves_an_empty_pool_die_its_gc_room(self):
        """With no erased block left, a die's open GC block is all a
        migration in flight there has: host writes must not borrow it."""
        ftl = PageMappedFtl(FtlLayout(dies=1, blocks_per_die=6, pages_per_block=4))
        allocator = ftl.allocator
        while allocator.free_blocks(0) > 1 or allocator.remaining_in_active(0):
            allocator.allocate_page(0, WriteStream.HOST)
        allocator.allocate_page(0, WriteStream.GC)  # takes the last block
        assert allocator.free_blocks(0) == 0
        assert allocator.remaining_in_active(0, WriteStream.GC) == 3
        with pytest.raises(OutOfSpace):
            ftl.write(0)
        assert allocator.remaining_in_active(0, WriteStream.GC) == 3

    def test_closed_at_tracks_allocation_clock(self):
        allocator = make_allocator()
        for _ in range(4):
            allocator.allocate_page(0, WriteStream.HOST)
        block = next(iter(allocator.closed_blocks(0)))
        assert allocator.closed_at(block) == 4
        assert allocator.sequence == 4


class TestCostBenefitPolicy:
    def make_ftl(self, policy):
        layout = FtlLayout(dies=1, blocks_per_die=8, pages_per_block=4)
        return PageMappedFtl(
            layout, overprovision=0.25, gc_watermark_blocks=2, gc_policy=policy
        )

    def test_policy_selection_by_name(self):
        ftl = self.make_ftl("cost-benefit")
        assert isinstance(ftl.victim_policy, CostBenefitVictimPolicy)
        with pytest.raises(ValueError):
            self.make_ftl("lru")

    def test_prefers_old_cold_block_over_young_equal_block(self):
        ftl = self.make_ftl("cost-benefit")
        # Block A: filled early, 2 valid.  Block B: filled late, 2 valid.
        for lpn in range(8):
            ftl.write_to_die(lpn, 0)  # closes blocks 0 and 1 (A young? no: 0 older)
        for lpn in (0, 1):  # invalidate half of block 0
            ftl.write_to_die(lpn, 0)
        for lpn in (4, 5):  # invalidate half of block 1 (same valid count)
            ftl.write_to_die(lpn, 0)
        victim = ftl.victim_policy.select(0, ftl.mapping, ftl.allocator)
        assert victim == 0  # equal utilization -> the older block wins

    def test_empty_block_is_a_free_win(self):
        ftl = self.make_ftl("cost-benefit")
        for lpn in range(8):
            ftl.write_to_die(lpn, 0)
        for lpn in range(4):  # block 0 fully invalid
            ftl.write_to_die(lpn, 0)
        victim = ftl.victim_policy.select(0, ftl.mapping, ftl.allocator)
        assert victim == 0
        assert ftl.mapping.valid_count(victim) == 0

    def test_fully_valid_blocks_never_selected(self):
        ftl = self.make_ftl("cost-benefit")
        for lpn in range(8):
            ftl.write_to_die(lpn, 0)
        assert ftl.victim_policy.select(0, ftl.mapping, ftl.allocator) is None


class TestStreamSeparationEndToEnd:
    def _skewed_run(self, policy: str) -> PageMappedFtl:
        layout = FtlLayout(dies=2, blocks_per_die=10, pages_per_block=8)
        ftl = PageMappedFtl(
            layout, overprovision=0.25, gc_watermark_blocks=2, gc_policy=policy
        )
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        rng = np.random.default_rng(3)
        hot = max(1, ftl.logical_pages // 5)
        for _ in range(4000):
            while True:
                progressed = False
                for die in ftl.dies_needing_gc():
                    plan = ftl.plan_gc(die)
                    if plan is None:
                        continue
                    for lpn in plan.victim_lpns:
                        if ftl.still_in_block(lpn, plan.victim_block):
                            ftl.relocate(lpn, die)
                    ftl.finish_gc(plan)
                    progressed = True
                if not progressed:
                    break
            if rng.random() < 0.9:
                ftl.write(int(rng.integers(0, hot)))
            else:
                ftl.write(int(rng.integers(hot, ftl.logical_pages)))
        ftl.mapping.check_invariants()
        return ftl

    def test_policies_converge_once_streams_separate(self):
        """With host/GC stream separation, migrated cold data settles in
        near-fully-valid blocks that neither policy ever selects, so
        victims are always freshly-invalidated hot blocks and the two
        policies end up within a few percent of each other — stream
        separation, not victim scoring, carries the skew win."""
        greedy = self._skewed_run("greedy")
        cost_benefit = self._skewed_run("cost-benefit")
        ratio = cost_benefit.write_amplification() / greedy.write_amplification()
        assert 0.85 < ratio < 1.15
        assert greedy.gc_runs > 100 and cost_benefit.gc_runs > 100
