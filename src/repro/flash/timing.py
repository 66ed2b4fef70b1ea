"""Flash timing parameters and the Table I technology presets.

All latencies are integer nanoseconds.  The three 3D technologies come
straight from the paper's Table I (sourced from Cheong et al., ISSCC'18).
The planar MLC inside the Intel 750 comparison device is defined by its
device spec (``devices/intel750.toml``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, NamedTuple

US = 1_000  # ns per microsecond
MS = 1_000_000  # ns per millisecond


class TimingSlots(NamedTuple):
    """The per-op-class latency table a die resolves once at creation.

    Booking an operation used to walk ``die.timing.<field>`` attribute
    chains on every call; the slots tuple is the flat, resolved form the
    hot path reads instead (see :meth:`FlashTiming.slots`).
    """

    read_ns: int
    read_jitter: float
    program_ns: int
    program_jitter: float
    erase_ns: int
    suspend_ns: int
    resume_ns: int
    max_suspends_per_op: int


@dataclass(frozen=True)
class FlashTiming:
    """Per-die operation latencies and interface speed.

    ``bus_mbps`` is the channel interface throughput (MB/s) used to
    compute data-transfer time for a page moving over the channel.
    Suspend/resume overheads only matter when the die model is created
    with suspend support (Z-NAND).
    """

    name: str
    read_ns: int  # tR: cell array -> page register
    program_ns: int  # tPROG
    erase_ns: int  # tBERS
    bus_mbps: int  # channel interface throughput
    suspend_ns: int = 2 * US  # latency to park an in-flight program
    resume_ns: int = 2 * US  # latency to restore the parked program
    max_suspends_per_op: int = 4
    # Per-operation latency variation (word-line position, page type —
    # MLC lower/upper pages differ by ~2x): each read/program takes
    # ``base * (1 + U(-jitter, +jitter))``.
    read_jitter: float = 0.0
    program_jitter: float = 0.0
    # Table I bookkeeping (reporting only)
    layers: int = 0
    die_capacity_gbit: int = 0
    page_size: int = 0

    def __post_init__(self) -> None:
        if min(self.read_ns, self.program_ns, self.erase_ns) <= 0:
            raise ValueError("operation latencies must be positive")
        if self.bus_mbps <= 0:
            raise ValueError("bus throughput must be positive")
        # Transfer sizes are drawn from a handful of constants (unit and
        # physical page sizes), so the ns conversion is memoized.  Not a
        # dataclass field: caches carry no value of their own and stay
        # out of eq/repr/replace.
        object.__setattr__(self, "_transfer_cache", {})

    def transfer_ns(self, nbytes: int) -> int:
        """Time to move ``nbytes`` over the channel interface."""
        cache: Dict[int, int] = self._transfer_cache  # type: ignore[attr-defined]
        cached = cache.get(nbytes)
        if cached is not None:
            return cached
        if nbytes < 0:
            raise ValueError("negative transfer size")
        # MB/s == bytes/us; convert to ns.
        result = int(round(nbytes * 1_000 / self.bus_mbps))
        cache[nbytes] = result
        return result

    def slots(self) -> TimingSlots:
        """The resolved per-op-class latency table for this timing."""
        return TimingSlots(
            read_ns=self.read_ns,
            read_jitter=self.read_jitter,
            program_ns=self.program_ns,
            program_jitter=self.program_jitter,
            erase_ns=self.erase_ns,
            suspend_ns=self.suspend_ns,
            resume_ns=self.resume_ns,
            max_suspends_per_op=self.max_suspends_per_op,
        )

    def with_overrides(self, **kwargs: object) -> "FlashTiming":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)


# ----------------------------------------------------------------------
# Table I: "Analysis of 3D flash characteristics".
# ----------------------------------------------------------------------

Z_NAND = FlashTiming(
    name="Z-NAND",
    read_ns=3 * US,
    program_ns=100 * US,
    erase_ns=1 * MS,
    bus_mbps=1200,  # high-speed DDR interface (Section II-A1)
    suspend_ns=1 * US,
    resume_ns=1 * US,
    read_jitter=0.20,
    program_jitter=0.10,
    layers=48,
    die_capacity_gbit=64,
    page_size=2048,
)

V_NAND = FlashTiming(
    name="V-NAND",
    read_ns=60 * US,
    program_ns=700 * US,
    erase_ns=5 * MS,
    bus_mbps=800,
    layers=64,
    die_capacity_gbit=512,
    page_size=16384,
)

BICS_3D = FlashTiming(
    name="BiCS",
    read_ns=45 * US,
    program_ns=660 * US,
    erase_ns=5 * MS,
    bus_mbps=800,
    layers=48,
    die_capacity_gbit=256,
    page_size=16384,
)

TABLE_I = (BICS_3D, V_NAND, Z_NAND)
