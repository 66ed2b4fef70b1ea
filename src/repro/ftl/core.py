"""The page-mapped FTL facade.

Combines the mapping table, the per-die block allocator, and the greedy
GC policy into the object the SSD controller talks to.  The FTL is pure
*state*: it decides placement and victim sets, while the controller books
the corresponding flash operations on the simulated dies (so all timing
lives in one place).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ftl.allocator import BlockAllocator, OutOfSpace, WriteStream
from repro.ftl.gc import CostBenefitVictimPolicy, GreedyVictimPolicy
from repro.ftl.layout import FtlLayout
from repro.ftl.mapping import UNMAPPED, MappingTable
from repro.ftl.wear import WearTracker


@dataclass(frozen=True)
class WritePlacement:
    """Where a striped host write landed (:meth:`PageMappedFtl.write`)."""

    lpn: int
    ppa: int
    die: int
    previous_ppa: int  # UNMAPPED if this was the first write of the LPN


@dataclass(frozen=True)
class GcPlan:
    """One block reclamation: the victim and the pages to migrate."""

    die: int
    victim_block: int
    victim_lpns: List[int]


class PageMappedFtl:
    """Page-level FTL with striped placement and greedy GC."""

    #: Available victim-selection policies.
    GC_POLICIES = {
        "greedy": GreedyVictimPolicy,
        "cost-benefit": CostBenefitVictimPolicy,
    }

    def __init__(
        self,
        layout: FtlLayout,
        *,
        overprovision: float = 0.125,
        gc_watermark_blocks: int = 2,
        gc_policy: str = "greedy",
    ) -> None:
        if not 0.0 < overprovision < 0.9:
            raise ValueError("overprovision must be in (0, 0.9)")
        if gc_watermark_blocks < 1:
            raise ValueError("gc_watermark_blocks must be >= 1")
        if layout.blocks_per_die <= gc_watermark_blocks + 1:
            raise ValueError(
                "layout too small: need more blocks per die than the GC watermark"
            )
        self.layout = layout
        self.overprovision = overprovision
        self.gc_watermark_blocks = gc_watermark_blocks
        self.logical_pages = int(layout.total_pages * (1.0 - overprovision))
        self.mapping = MappingTable(layout, self.logical_pages)
        self.allocator = BlockAllocator(layout)
        try:
            policy_cls = self.GC_POLICIES[gc_policy]
        except KeyError:
            raise ValueError(
                f"unknown gc_policy {gc_policy!r}; choose from "
                f"{sorted(self.GC_POLICIES)}"
            ) from None
        self.gc_policy = gc_policy
        self.victim_policy = policy_cls(layout)
        self.wear = WearTracker(layout.total_blocks)
        # Statistics.
        self.host_writes = 0
        self.gc_writes = 0
        self.gc_runs = 0
        self.erases = 0

    # ------------------------------------------------------------------
    # Host path
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Host-visible capacity."""
        return self.logical_pages * self.layout.unit_size

    def read_ppa(self, lpn: int) -> Optional[int]:
        """PPA to read for ``lpn``, or ``None`` if never written."""
        ppa = self.mapping.lookup(lpn)
        return None if ppa == UNMAPPED else ppa

    def write(self, lpn: int) -> WritePlacement:
        """Place a host write on the next die in the stripe order.

        Dies whose GC reserve would be consumed are skipped — the
        striping engine steers host data toward dies that still have
        room, leaving every die able to collect itself.
        """
        die, stream = self.host_write_point()
        ppa = self.allocator.allocate_page(die, stream)
        previous = self.mapping.bind(lpn, ppa)
        self.host_writes += 1
        return WritePlacement(lpn=lpn, ppa=ppa, die=die, previous_ppa=previous)

    def host_write_point(self) -> Tuple[int, WriteStream]:
        """The die and write stream the next striped host write uses
        (advances the stripe cursor)."""
        allocator = self.allocator
        for _ in range(self.layout.dies):
            die = allocator.next_die()
            if allocator.can_host_write(die):
                return die, WriteStream.HOST
        # Pressure fallback: every host write point is blocked, but an
        # open GC block may still have room.  Borrowing it sacrifices
        # stream purity, not correctness — and the overwrite it admits
        # invalidates an old page somewhere, which is exactly what GC
        # needs to make progress again.  A die with an empty pool lends
        # nothing: its open GC block is the only room a migration still
        # in flight there has left.
        for die in range(self.layout.dies):
            if (
                allocator.free_blocks(die) > 0
                and allocator.remaining_in_active(die, WriteStream.GC) > 0
            ):
                return die, WriteStream.GC
        raise OutOfSpace(
            "no die can accept a host write; garbage collection is not "
            "keeping up with the overwrite stream"
        )

    def write_to_die(
        self, lpn: int, die: int, stream: WriteStream = WriteStream.HOST
    ) -> None:
        """Place a host write on a specific die's write point (flush
        workers; no placement record is built)."""
        self.mapping.bind(lpn, self.allocator.allocate_page(die, stream))
        self.host_writes += 1

    def fill_sequential(self, count: int) -> int:
        """Apply the exact state ``count`` sequential host writes
        (LPNs ``0..count-1``) leave behind, in bulk.

        Preconditioning writes the drive once before measuring; done
        through :meth:`write` it dominates simulation wall time (it is
        pure metadata churn, no simulated time passes).  On a pristine
        FTL the outcome has a closed form: with every die accepting,
        striping is perfectly round-robin (die = lpn % dies) and each
        die's FIFO pool hands out its blocks in order, so LPN ``lpn``
        lands at ``(lpn % dies) * pages_per_die + lpn // dies``.  The
        form holds while no die is ever deflected by
        :meth:`~repro.ftl.allocator.BlockAllocator.can_host_write`,
        i.e. while the busiest die opens at most ``blocks_per_die - 1``
        blocks; otherwise (or on a non-pristine FTL) this falls back to
        the write loop.  The mapping's share of the closed form is a
        cached template (:func:`repro.ftl.mapping.striped_fill`), so
        every fill of a layout after the first copies buffers.
        Equivalence is pinned by ``tests/test_ftl_fill.py``, which diffs
        the full FTL state against the loop across geometries.
        """
        if count < 0:
            raise ValueError(f"negative fill count: {count}")
        if count > self.logical_pages:
            raise ValueError(
                f"cannot fill {count} pages into {self.logical_pages} "
                "logical pages"
            )
        layout = self.layout
        dies = layout.dies
        # Pages landing on the busiest die (die 0 collects the ceiling).
        busiest = (count + dies - 1) // dies
        opened = (busiest + layout.pages_per_block - 1) // layout.pages_per_block
        if (
            count == 0
            or opened > layout.blocks_per_die - 1
            or not self.mapping.is_pristine()
            or not self.allocator.is_pristine()
        ):
            for lpn in range(count):
                self.write(lpn)
            return count
        self.mapping.fill_sequential_striped(count)
        self.allocator.fill_sequential_striped(count)
        self.host_writes += count
        return count

    def still_in_block(self, lpn: int, block: int) -> bool:
        """True if ``lpn``'s current data still lives inside ``block``."""
        ppa = self.mapping.lookup(lpn)
        if ppa == UNMAPPED:
            return False
        return self.layout.block_of_page(ppa) == block

    def trim(self, lpn: int) -> None:
        """Discard ``lpn``'s data."""
        self.mapping.trim(lpn)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def dies_needing_gc(self) -> List[int]:
        """Dies whose erased-block pool fell below the watermark."""
        return [
            die
            for die in range(self.layout.dies)
            if self.allocator.free_blocks(die) < self.gc_watermark_blocks
        ]

    def plan_gc(self, die: int) -> Optional[GcPlan]:
        """Choose a victim on ``die`` and list the pages to migrate."""
        victim = self.victim_policy.select(die, self.mapping, self.allocator)
        if victim is None:
            return None
        return GcPlan(
            die=die,
            victim_block=victim,
            victim_lpns=self.mapping.valid_lpns_in_block(victim),
        )

    def relocate(self, lpn: int, die: int) -> None:
        """GC migration write of ``lpn`` onto ``die``'s GC stream.

        Migrated (cold-leaning) data lands on a separate write point, so
        it is not re-mixed with fresh host traffic — the hot/cold
        segregation age-aware GC policies rely on.
        """
        self.mapping.bind(lpn, self.allocator.allocate_page(die, WriteStream.GC))
        self.gc_writes += 1

    def finish_gc(self, plan: GcPlan) -> None:
        """Erase the victim and return it to the die's pool.

        Call after every page in ``plan.victim_lpns`` has been relocated
        (or overwritten by the host in the meantime).
        """
        if self.mapping.valid_count(plan.victim_block) != 0:
            raise ValueError("victim still has valid pages; relocate them first")
        self.mapping.erase_block(plan.victim_block)
        self.allocator.release_block(plan.victim_block)
        self.wear.record_erase(plan.victim_block)
        self.gc_runs += 1
        self.erases += 1

    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Zero the write/GC counters (e.g. after preconditioning)."""
        self.host_writes = 0
        self.gc_writes = 0
        self.gc_runs = 0
        self.erases = 0

    def write_amplification(self) -> float:
        """(host + GC writes) / host writes — classic WAF."""
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_writes) / self.host_writes
