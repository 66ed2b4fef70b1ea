"""Per-die block allocation with striped placement and dual streams.

Each die keeps a FIFO pool of erased blocks and *two* active blocks with
sequential write pointers (flash pages inside a block must be programmed
in order): one for **host** data and one for **GC** migrations.  Keeping
the streams separate is what lets garbage collection segregate cold data
from hot data — if migrations shared the host write point, every
reclaimed cold page would be re-mixed with fresh hot pages and
age-aware victim policies could never pay off.

Host writes stripe round-robin across dies — the channel-level striping
the paper credits for device parallelism.

Internally the write points live in plain lists indexed by die, one pair
of lists per stream — the ``(die, WriteStream)`` tuple keys this module
used to hash on every allocation put enum ``__hash__`` squarely on the
per-write hot path.  :class:`WriteStream` remains the public vocabulary;
stream dispatch is a single identity check.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.ftl.layout import FtlLayout


class OutOfSpace(Exception):
    """Raised when a die has no erased blocks left to open."""


class WriteStream(enum.Enum):
    """Which write point an allocation draws from."""

    HOST = "host"
    GC = "gc"


class BlockAllocator:
    """Erased-block pools and dual active write points, one set per die."""

    def __init__(self, layout: FtlLayout) -> None:
        self.layout = layout
        self._pages_per_block = layout.pages_per_block
        self._free: List[Deque[int]] = []
        for die in range(layout.dies):
            self._free.append(deque(layout.blocks_of_die(die)))
        # Index 0 = HOST, index 1 = GC; each entry is a per-die list.
        self._active: List[List[Optional[int]]] = [
            [None] * layout.dies,
            [None] * layout.dies,
        ]
        self._write_ptr: List[List[int]] = [
            [0] * layout.dies,
            [0] * layout.dies,
        ]
        self._closed: List[Set[int]] = [set() for _ in range(layout.dies)]
        self._next_die = 0
        # Monotonic allocation clock; closed blocks remember when they
        # filled, which age-aware GC policies (cost-benefit) consume.
        self.sequence = 0
        self._closed_at: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def free_blocks(self, die: int) -> int:
        """Erased blocks pooled on ``die`` (excluding active blocks)."""
        return len(self._free[die])

    def min_free_blocks(self) -> int:
        """The scarcest die's pool size — the GC trigger signal."""
        return min(len(pool) for pool in self._free)

    def active_block(
        self, die: int, stream: WriteStream = WriteStream.HOST
    ) -> Optional[int]:
        return self._active[0 if stream is WriteStream.HOST else 1][die]

    def is_active(self, block: int) -> bool:
        die = self.layout.die_of_block(block)
        return self._active[0][die] == block or self._active[1][die] == block

    @property
    def stripe_cursor(self) -> int:
        """The die :meth:`next_die` will return next (read-only)."""
        return self._next_die

    # ------------------------------------------------------------------
    def next_die(self) -> int:
        """Round-robin die choice for the next striped host write."""
        die = self._next_die
        self._next_die = (die + 1) % self.layout.dies
        return die

    def can_host_write(self, die: int) -> bool:
        """True if a host write may land on ``die`` without consuming
        the erased block reserved for garbage collection.

        The last erased block of every die is a GC reserve: migrations
        must always have somewhere to land, otherwise a die that fills
        up with valid data can never be reclaimed (pages cannot migrate
        across dies).
        """
        if self._active[0][die] is not None:
            return True  # an open host block always has >=1 page left
        # Opening a host block must leave at least one erased block in
        # the pool: a GC migration may need a fresh block mid-cycle even
        # while its own write point is partially open.
        return len(self._free[die]) >= 2

    def allocate_page(
        self, die: int, stream: WriteStream = WriteStream.HOST
    ) -> int:
        """Take the next free page on ``die``'s ``stream`` write point;
        opens a new block as needed.

        Raises :class:`OutOfSpace` when the die's pool is empty and the
        stream's active block is full — the caller (GC) must reclaim
        first.
        """
        index = 0 if stream is WriteStream.HOST else 1
        active = self._active[index]
        write_ptr = self._write_ptr[index]
        block = active[die]
        if block is None:
            free = self._free[die]
            if not free:
                raise OutOfSpace(f"die {die} has no erased blocks")
            block = free.popleft()
            active[die] = block
            write_ptr[die] = 0
        ptr = write_ptr[die]
        ppa = block * self._pages_per_block + ptr
        ptr += 1
        write_ptr[die] = ptr
        self.sequence += 1
        if ptr >= self._pages_per_block:
            # Close eagerly: a full block is immediately GC-eligible.
            self._closed[die].add(block)
            self._closed_at[block] = self.sequence
            active[die] = None
        return ppa

    def is_pristine(self) -> bool:
        """True if no page was ever allocated and no block retired:
        every die's pool still holds all of its blocks in order."""
        return self.sequence == 0 and all(
            len(pool) == self.layout.blocks_per_die for pool in self._free
        )

    def fill_sequential_striped(self, count: int) -> None:
        """Apply the allocator state ``count`` round-robin host
        allocations leave behind on a pristine allocator.

        Each die hands out its blocks in pool (= block-number) order;
        the ``k``-th closed block of die ``d`` filled when its last page
        — the ``((k+1) * pages_per_block - 1)``-th page of the die, i.e.
        global allocation ``((k+1) * ppb - 1) * dies + d`` — was taken,
        so its age anchor is that allocation's sequence number.  Guarded
        by the caller (see
        :meth:`repro.ftl.core.PageMappedFtl.fill_sequential`).
        """
        layout = self.layout
        dies = layout.dies
        ppb = self._pages_per_block
        blocks_per_die = layout.blocks_per_die
        active_host = self._active[0]
        ptr_host = self._write_ptr[0]
        closed_at = self._closed_at
        for die in range(dies):
            pages = (count - die + dies - 1) // dies
            if pages <= 0:
                continue
            full, rem = divmod(pages, ppb)
            base = die * blocks_per_die
            consumed = full + (1 if rem else 0)
            self._free[die] = deque(range(base + consumed, base + blocks_per_die))
            if rem:
                active_host[die] = base + full
                ptr_host[die] = rem
            blocks = range(base, base + full)
            self._closed[die].update(blocks)
            stride = ppb * dies  # allocations between two closings
            first = (ppb - 1) * dies + die + 1  # sequence number of the first
            closed_at.update(zip(blocks, range(first, first + full * stride, stride)))
        self.sequence = count
        self._next_die = count % dies

    def closed_blocks(self, die: int) -> frozenset:
        """Fully-programmed blocks on ``die`` — the GC candidate set."""
        return frozenset(self._closed[die])

    def closed_at(self, block: int) -> int:
        """Allocation-clock reading when ``block`` filled (its "age"
        anchor for cost-benefit GC)."""
        return self._closed_at.get(block, 0)

    def release_block(self, block: int) -> None:
        """Return an erased block to its die's pool."""
        die = self.layout.die_of_block(block)
        if block in self._free[die]:
            raise ValueError(f"block {block} already in the free pool")
        if self.is_active(block):
            raise ValueError(f"block {block} is an active block")
        if block not in self._closed[die]:
            raise ValueError(f"block {block} was never fully programmed")
        self._closed[die].discard(block)
        self._free[die].append(block)

    def retire_block(self, die: int) -> Optional[int]:
        """Permanently remove one erased block from ``die``'s pool.

        Models bad-block retirement after a program failure: once the
        failed block's live data has been re-programmed elsewhere, the
        block leaves service for good, shrinking the die's erased pool.
        Refuses (returns ``None``) rather than dip below the two-block
        floor :meth:`can_host_write` relies on — a die cannot retire its
        GC reserve.
        """
        if len(self._free[die]) < 2:
            return None
        return self._free[die].pop()

    def remaining_in_active(
        self, die: int, stream: WriteStream = WriteStream.HOST
    ) -> int:
        """Unwritten pages left in the stream's active block."""
        index = 0 if stream is WriteStream.HOST else 1
        if self._active[index][die] is None:
            return 0
        return self._pages_per_block - self._write_ptr[index][die]
