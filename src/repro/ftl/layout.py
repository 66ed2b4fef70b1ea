"""The FTL's view of the flash array: dies x blocks x unit pages.

The FTL does not care about channels, planes, or the physical page size;
it allocates *mapping units* (host 4 KB pages) out of blocks that belong
to dies.  The SSD controller decides how a unit maps onto physical flash
operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FtlLayout:
    """Flat description of the space the FTL manages.

    The derived sizes (``total_blocks``, ``total_pages``,
    ``capacity_bytes``) are precomputed once at construction — they sit
    on the mapping/allocator hot paths, where recomputing them per call
    measurably costs (see docs/sim-engine.md on the slot-cache layer).
    """

    dies: int
    blocks_per_die: int
    pages_per_block: int  # mapping units per block
    unit_size: int = 4096  # bytes per mapping unit

    # Derived, filled in by __post_init__; excluded from init/eq/repr
    # so the dataclass surface is unchanged from when these were
    # recomputed-per-call properties.
    total_blocks: int = field(init=False, repr=False, compare=False, default=0)
    total_pages: int = field(init=False, repr=False, compare=False, default=0)
    capacity_bytes: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        for field in ("dies", "blocks_per_die", "pages_per_block", "unit_size"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        total_blocks = self.dies * self.blocks_per_die
        total_pages = total_blocks * self.pages_per_block
        object.__setattr__(self, "total_blocks", total_blocks)
        object.__setattr__(self, "total_pages", total_pages)
        object.__setattr__(self, "capacity_bytes", total_pages * self.unit_size)

    def die_of_block(self, block: int) -> int:
        if not 0 <= block < self.total_blocks:
            raise ValueError(f"block out of range: {block}")
        return block // self.blocks_per_die

    def die_of_page(self, ppa: int) -> int:
        if not 0 <= ppa < self.total_pages:
            raise ValueError(f"page out of range: {ppa}")
        return ppa // self.pages_per_block // self.blocks_per_die

    def block_of_page(self, ppa: int) -> int:
        if not 0 <= ppa < self.total_pages:
            raise ValueError(f"page out of range: {ppa}")
        return ppa // self.pages_per_block

    def first_page_of_block(self, block: int) -> int:
        if not 0 <= block < self.total_blocks:
            raise ValueError(f"block out of range: {block}")
        return block * self.pages_per_block

    def blocks_of_die(self, die: int) -> range:
        if not 0 <= die < self.dies:
            raise ValueError(f"die out of range: {die}")
        first = die * self.blocks_per_die
        return range(first, first + self.blocks_per_die)
