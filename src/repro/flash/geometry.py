"""Physical organization of an SSD's flash array.

The hierarchy follows Section II-A2 of the paper: the device has multiple
*channels* (system buses), each channel hosts several *ways* (dies), each
die has planes, blocks, and pages.  ULL SSDs additionally pair channels
into *super-channels*; that pairing lives in :mod:`repro.ssd.channels`,
not here — geometry only describes the raw array.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlashGeometry:
    """Dimensions of the flash array.

    Addresses used throughout the simulator:

    * a *physical page address* (PPA) is a flat integer in
      ``[0, total_pages)``;
    * a *block address* is a flat integer in ``[0, total_blocks)``;
    * helpers map between the flat forms and (die, plane, block, page)
      coordinates.
    """

    channels: int
    ways_per_channel: int
    planes_per_die: int
    blocks_per_plane: int
    pages_per_block: int
    page_size: int  # bytes

    def __post_init__(self) -> None:
        for field in (
            "channels",
            "ways_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def dies(self) -> int:
        return self.channels * self.ways_per_channel

    @property
    def blocks_per_die(self) -> int:
        return self.planes_per_die * self.blocks_per_plane

    @property
    def total_blocks(self) -> int:
        return self.dies * self.blocks_per_die

    @property
    def pages_per_die(self) -> int:
        return self.blocks_per_die * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.dies * self.pages_per_die

    @property
    def block_size(self) -> int:
        return self.pages_per_block * self.page_size

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def die_of_page(self, ppa: int) -> int:
        self._check_ppa(ppa)
        return ppa // self.pages_per_die

    def channel_of_die(self, die: int) -> int:
        if not 0 <= die < self.dies:
            raise ValueError(f"die out of range: {die}")
        return die % self.channels

    def block_of_page(self, ppa: int) -> int:
        self._check_ppa(ppa)
        return ppa // self.pages_per_block

    def die_of_block(self, block: int) -> int:
        if not 0 <= block < self.total_blocks:
            raise ValueError(f"block out of range: {block}")
        return block // self.blocks_per_die

    def first_page_of_block(self, block: int) -> int:
        if not 0 <= block < self.total_blocks:
            raise ValueError(f"block out of range: {block}")
        return block * self.pages_per_block

    def page_offset_in_block(self, ppa: int) -> int:
        self._check_ppa(ppa)
        return ppa % self.pages_per_block

    def _check_ppa(self, ppa: int) -> None:
        if not 0 <= ppa < self.total_pages:
            raise ValueError(f"physical page address out of range: {ppa}")

    def describe(self) -> str:
        cap_mib = self.capacity_bytes / (1 << 20)
        return (
            f"{self.channels}ch x {self.ways_per_channel}way "
            f"x {self.planes_per_die}pl x {self.blocks_per_plane}blk "
            f"x {self.pages_per_block}pg @ {self.page_size}B "
            f"= {cap_mib:.0f} MiB"
        )
