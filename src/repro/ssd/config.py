"""Device configuration: everything that distinguishes the two SSDs.

All latency fields are integer nanoseconds.  The mapping unit is the
host-visible 4 KB page; ``units_per_program`` captures how many units one
physical program operation commits (physical page size x planes, divided
by the unit size — or the super-channel pair width for Z-NAND).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash.timing import FlashTiming
from repro.ftl.layout import FtlLayout
from repro.ssd.power import PowerParams

UNIT_SIZE = 4096  # host mapping unit (bytes)


@dataclass(frozen=True)
class SsdConfig:
    """Full description of a simulated SSD."""

    name: str
    timing: FlashTiming

    # --- array organization (at the FTL's mapping-unit granularity) ---
    # For a super-channel device, one "die" here is a *pair* of physical
    # dies operating in lockstep and one "channel" is a channel pair.
    channels: int
    ways_per_channel: int
    blocks_per_die: int
    pages_per_block: int  # mapping units per block
    physical_dies_per_die: int = 1  # 2 for super-channel lockstep pairs
    units_per_program: int = 1  # units committed by one program op

    # --- super-channel / split-DMA ---
    super_channel: bool = False
    suspend_resume: bool = False

    # --- channel fabric ---
    channel_mbps: int = 800  # effective per-(super-)channel transfer rate

    # --- controller firmware ---
    read_fw_ns: int = 2_000  # command decode + FTL lookup + dispatch
    write_fw_ns: int = 2_000
    completion_fw_ns: int = 500  # CQ entry build + doorbell update

    # --- DRAM caches ---
    write_buffer_units: int = 1024
    # Flush workers wait this long for more buffered units before
    # programming a partial page (coalescing window).  Keeps trickle
    # writers (sync QD1) from burning a full tPROG per 4 KB unit.
    flush_coalesce_ns: int = 0
    read_cache_units: int = 0  # 0 disables the read cache
    prefetch_ahead: int = 0  # sequential prefetch depth (units)
    dram_hit_ns: int = 1_500  # DRAM access + firmware fast path

    # --- host link ---
    pcie_mbps: int = 3200  # PCIe 3.0 x4 effective payload rate
    pcie_latency_ns: int = 700  # per-transfer PCIe round-trip overhead

    # --- FTL ---
    overprovision: float = 0.125
    gc_watermark_blocks: int = 2
    gc_policy: str = "greedy"  # or "cost-benefit"

    # --- bad blocks / remap checker ---
    factory_bad_rate: float = 0.0
    spare_blocks_per_die: int = 0

    # --- FTL mapping-table cache -------------------------------------
    # Prototype controllers keep only part of the page map in controller
    # SRAM; a lookup outside the cached segments stalls the read while
    # the segment is fetched from DRAM/flash.  Sequential streams stay
    # inside one segment; random reads miss — the paper's 15.9 us random
    # vs. 12.6 us sequential read gap on the ULL SSD.  0 disables.
    map_cache_segments: int = 0
    map_segment_units: int = 1024  # mapping units covered per segment
    map_fetch_ns: int = 0

    # --- tail-latency mechanisms (seeded stochastic device events) ---
    # Rare device-side stalls: ECC read retries / internal housekeeping
    # pauses (metadata checkpoints, cache flushes).  These dominate the
    # five-nines latency on real devices (Fig. 4b: NVMe write tails are
    # 108x the average).
    read_stall_prob: float = 0.0
    read_stall_ns: int = 0
    write_stall_prob: float = 0.0
    write_stall_ns: int = 0

    # --- power ---
    power: PowerParams = field(default_factory=PowerParams)

    def __post_init__(self) -> None:
        if self.channels < 1 or self.ways_per_channel < 1:
            raise ValueError("need at least one channel and one way")
        if self.units_per_program < 1:
            raise ValueError("units_per_program must be >= 1")
        if self.super_channel and self.physical_dies_per_die != 2:
            raise ValueError("super-channel devices pair exactly two dies")
        for prob_field in ("read_stall_prob", "write_stall_prob"):
            if not 0.0 <= getattr(self, prob_field) < 1.0:
                raise ValueError(f"{prob_field} must be in [0, 1)")

    # ------------------------------------------------------------------
    @property
    def dies(self) -> int:
        """Logical dies (super-die pairs count once)."""
        return self.channels * self.ways_per_channel

    def ftl_layout(self) -> FtlLayout:
        return FtlLayout(
            dies=self.dies,
            blocks_per_die=self.blocks_per_die,
            pages_per_block=self.pages_per_block,
            unit_size=UNIT_SIZE,
        )

    @property
    def capacity_bytes(self) -> int:
        """Host-visible capacity (after overprovisioning)."""
        total_units = self.dies * self.blocks_per_die * self.pages_per_block
        return int(total_units * (1.0 - self.overprovision)) * UNIT_SIZE

    def pcie_transfer_ns(self, nbytes: int) -> int:
        """Host link DMA time for ``nbytes``."""
        return self.pcie_latency_ns + int(round(nbytes * 1_000 / self.pcie_mbps))

    def units_of(self, nbytes: int) -> int:
        """Mapping units covered by an ``nbytes`` request."""
        if nbytes <= 0:
            raise ValueError("request size must be positive")
        return (nbytes + UNIT_SIZE - 1) // UNIT_SIZE
