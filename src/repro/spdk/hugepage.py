"""DPDK-style hugepage memory management.

SPDK maps NVMe BARs and allocates all I/O buffers out of pinned 2 MiB
hugepages so that user-space DMA addresses stay stable (hugepages are
"mostly not swapped out", Section II-B4).  This module models the
allocator: regions are carved from hugepages, pinned, and addressable —
enough substrate for the stack to bind against and for tests to verify
the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

HUGEPAGE_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class HugePageRegion:
    """A pinned allocation inside hugepage-backed memory."""

    base_addr: int
    nbytes: int
    purpose: str

    @property
    def end_addr(self) -> int:
        return self.base_addr + self.nbytes


class HugePageAllocator:
    """Bump allocator over a fixed pool of pinned 2 MiB hugepages."""

    def __init__(self, n_pages: int = 512) -> None:
        if n_pages < 1:
            raise ValueError("need at least one hugepage")
        self.n_pages = n_pages
        self.pool_bytes = n_pages * HUGEPAGE_BYTES
        self._cursor = 0
        self.regions: List[HugePageRegion] = []

    @property
    def free_bytes(self) -> int:
        return self.pool_bytes - self._cursor

    def allocate(self, nbytes: int, purpose: str) -> HugePageRegion:
        """Carve a pinned region; raises MemoryError when the pool is dry."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        # Align to 4 KiB like rte_malloc does for I/O buffers.
        aligned = (nbytes + 4095) & ~4095
        if aligned > self.free_bytes:
            raise MemoryError(
                f"hugepage pool exhausted: want {aligned}, have {self.free_bytes}"
            )
        region = HugePageRegion(
            base_addr=self._cursor, nbytes=aligned, purpose=purpose
        )
        self._cursor += aligned
        self.regions.append(region)
        return region

    def map_bar(self, bar_bytes: int) -> HugePageRegion:
        """Map a PCIe BAR window (doorbells + queues) into the pool."""
        return self.allocate(bar_bytes, purpose="pcie-bar")
