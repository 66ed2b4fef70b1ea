"""Bad-block management and the super-channel remap checker.

Paper Section II-A2: super-channel striping spreads each host request
across a *pair* of channels at the same block offset.  If a block is worn
out on one channel of the pair, the naive design wastes its twin on the
other channel.  Z-SSD's split-DMA engine embeds a *remap checker* that
transparently redirects a bad physical block to a spare clean block and
exposes a semi-virtual block address space to the flash firmware, so the
full capacity stays usable.

:class:`BadBlockTable` records which physical blocks are factory- or
wear-marked bad; :class:`RemapChecker` provides the semi-virtual view.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np


class BadBlockTable:
    """Set of bad physical blocks, optionally seeded at manufacture."""

    def __init__(
        self,
        total_blocks: int,
        *,
        factory_bad_rate: float = 0.0,
        seed: int = 7,
    ) -> None:
        if total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")
        if not 0.0 <= factory_bad_rate < 1.0:
            raise ValueError("factory_bad_rate must be in [0, 1)")
        self.total_blocks = total_blocks
        self._bad: set = set()
        if factory_bad_rate > 0.0:
            rng = np.random.default_rng(seed)
            count = int(total_blocks * factory_bad_rate)
            for block in rng.choice(total_blocks, size=count, replace=False):
                self._bad.add(int(block))

    def __contains__(self, block: int) -> bool:
        return block in self._bad

    def __len__(self) -> int:
        return len(self._bad)

    def mark_bad(self, block: int) -> None:
        if not 0 <= block < self.total_blocks:
            raise ValueError(f"block out of range: {block}")
        self._bad.add(block)

    def bad_blocks(self) -> Iterable[int]:
        return sorted(self._bad)


class RemapChecker:
    """Semi-virtual block address space over a bad-block table.

    Virtual blocks ``[0, usable)`` map to good physical blocks; spares
    cover the bad ones.  ``resolve`` is what the split-DMA engine does on
    every flash transaction before driving the channel pair.
    """

    def __init__(self, table: BadBlockTable, spare_blocks: int) -> None:
        if spare_blocks < 0:
            raise ValueError("spare_blocks must be >= 0")
        self.table = table
        self.spare_blocks = spare_blocks
        self._remap: Dict[int, int] = {}
        total = table.total_blocks
        self.usable = total - spare_blocks
        spares: List[int] = [
            block for block in range(self.usable, total) if block not in table
        ]
        for block in range(self.usable):
            if block in table:
                if not spares:
                    raise ValueError(
                        "not enough spare blocks to cover the bad-block table"
                    )
                self._remap[block] = spares.pop(0)
        self._spares_left = spares

    @property
    def remapped_count(self) -> int:
        return len(self._remap)

    def resolve(self, virtual_block: int) -> int:
        """Physical block backing ``virtual_block``."""
        if not 0 <= virtual_block < self.usable:
            raise ValueError(f"virtual block out of range: {virtual_block}")
        return self._remap.get(virtual_block, virtual_block)

    def retire(self, virtual_block: int) -> Optional[int]:
        """Grow the table: mark the backing block bad, remap to a spare.

        Returns the new physical block, or ``None`` when no spares
        remain (the device would drop to read-only mode).
        """
        physical = self.resolve(virtual_block)
        self.table.mark_bad(physical)
        if not self._spares_left:
            return None
        replacement = self._spares_left.pop(0)
        self._remap[virtual_block] = replacement
        return replacement
