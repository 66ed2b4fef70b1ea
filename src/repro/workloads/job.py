"""Job specification — the subset of fio options the paper exercises.

The paper's fio setup (Section III-A): O_DIRECT (page cache bypassed —
our stacks never model one, matching that flag), libaio for async
queue-depth sweeps, pvsync2 for synchronous completion-method studies,
block sizes 4 KB-1 MB, queue depths 1-256.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class IoEngineKind(enum.Enum):
    """fio ``ioengine=`` values we model."""

    PSYNC = "pvsync2"  # synchronous preadv2/pwritev2
    LIBAIO = "libaio"  # Linux native AIO
    SPDK = "spdk"  # SPDK fio_plugin (always synchronous QD1 here)


@dataclass(frozen=True)
class FioJob:
    """One benchmark job."""

    name: str
    rw: str = "randread"
    block_size: int = 4096
    iodepth: int = 1
    engine: IoEngineKind = IoEngineKind.PSYNC
    io_count: int = 1000
    write_fraction: float = 0.5  # only for rw/randrw
    seed: int = 1234
    region_bytes: Optional[int] = None  # None = whole device
    capture_timeseries: bool = False  # keep (t, latency) pairs (Fig. 7b)

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.block_size % 512:
            raise ValueError("block size must be a positive multiple of 512")
        if self.iodepth < 1:
            raise ValueError("iodepth must be >= 1")
        if self.io_count < 1:
            raise ValueError("io_count must be >= 1")
        if self.engine in (IoEngineKind.PSYNC, IoEngineKind.SPDK) and self.iodepth != 1:
            raise ValueError(f"{self.engine.value} is synchronous: iodepth must be 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")

    @property
    def total_bytes(self) -> int:
        return self.block_size * self.io_count
