"""NVMe command-set constants.

LBAs are 512-byte sectors as in the NVMe specification.  Commands and
completion entries are not objects here: the SQ ring holds the I/O's
:class:`~repro.ssd.device.IoRecord`, and a CQ slot holds a completion
entry's status/phase/command-identifier dword (see
:mod:`repro.nvme.queue`).
"""

from __future__ import annotations

import enum

from repro.units import Bytes

SECTOR_SIZE = 512


class StatusCode(enum.IntEnum):
    """Generic command status (success only — media errors are modeled
    as latency, not failures)."""

    SUCCESS = 0x0


def check_sector_range(offset: Bytes, nbytes: int) -> None:
    """Reject a byte range an SQE cannot encode: its starting LBA and
    0's-based block count are whole, non-negative sector counts."""
    if offset % SECTOR_SIZE or nbytes % SECTOR_SIZE:
        raise ValueError("offset and size must be sector-aligned")
    if offset < 0 or nbytes < SECTOR_SIZE:
        raise ValueError("command fields must be non-negative")
