"""NVMe queue rings and doorbells.

Both queues are circular buffers in host memory (mapped through PCIe
BARs); the host owns the SQ tail and CQ head, the device owns the SQ
head and CQ tail.  New completion entries are detected via the phase
tag, which the device flips on every wrap — exactly the bit the kernel's
``nvme_poll`` and SPDK's ``process_completions`` spin on.

A submission slot holds the I/O's record itself (the SQE's fields are
the record's op, offset and size, plus the command identifier the queue
pair stamped on it).  A completion slot holds the entry's last dword as
the wire carries it: status in bits 31:17, the phase tag in bit 16 and
the command identifier in bits 15:0.  The ring starts zeroed, so every
slot reads as phase 0 until the device's first pass writes phase 1.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.nvme.command import StatusCode
from repro.ssd.device import IoRecord

_CID_MASK = 0xFFFF


class QueueFull(Exception):
    """Submission attempted with no free SQ slot."""


class Doorbell:
    """A doorbell register; writing it notifies the other side."""

    def __init__(self, on_write: Optional[Callable[[int], None]] = None) -> None:
        self.value = 0
        self.writes = 0
        self._on_write = on_write

    def write(self, value: int) -> None:
        self.value = value
        self.writes += 1
        if self._on_write is not None:
            self._on_write(value)


class SubmissionQueue:
    """Host-filled command ring, device-drained FIFO."""

    def __init__(self, depth: int) -> None:
        if depth < 2:
            raise ValueError("queue depth must be >= 2")
        self.depth = depth
        self._ring: List[Optional[IoRecord]] = [None] * depth
        self.tail = 0  # host-owned
        self.head = 0  # device-owned
        self.tail_doorbell = Doorbell()

    def occupancy(self) -> int:
        return (self.tail - self.head) % self.depth

    @property
    def is_full(self) -> bool:
        # One slot is sacrificed to distinguish full from empty.
        return self.occupancy() == self.depth - 1

    @property
    def is_empty(self) -> bool:
        return self.tail == self.head

    def push(self, record: IoRecord) -> None:
        """Host: place a command and ring the tail doorbell."""
        if self.is_full:
            raise QueueFull(f"submission queue full (depth {self.depth})")
        self._ring[self.tail] = record
        self.tail = (self.tail + 1) % self.depth
        self.tail_doorbell.write(self.tail)

    def fetch(self) -> IoRecord:
        """Device: take the oldest command."""
        if self.is_empty:
            raise IndexError("submission queue empty")
        record = self._ring[self.head]
        assert record is not None
        self._ring[self.head] = None
        self.head = (self.head + 1) % self.depth
        return record


class CompletionQueue:
    """Device-filled completion ring with phase-tag detection."""

    def __init__(self, depth: int) -> None:
        if depth < 2:
            raise ValueError("queue depth must be >= 2")
        self.depth = depth
        self._ring: List[int] = [0] * depth
        self.tail = 0  # device-owned
        self.head = 0  # host-owned
        self._device_phase = 1
        self._host_phase = 1
        self.head_doorbell = Doorbell()

    def post(self, cid: int, status: StatusCode = StatusCode.SUCCESS) -> None:
        """Device: write a completion entry with the current phase."""
        self._ring[self.tail] = (
            (int(status) << 17) | (self._device_phase << 16) | cid
        )
        self.tail = (self.tail + 1) % self.depth
        if self.tail == 0:
            self._device_phase ^= 1

    def peek(self) -> Optional[int]:
        """Host: the command identifier of a new entry at the head, if
        its phase tag matches the expected phase."""
        entry = self._ring[self.head]
        if (entry >> 16) & 1 != self._host_phase:
            return None
        return entry & _CID_MASK

    def reap(self) -> Optional[int]:
        """Host: consume the entry at the head and ring the doorbell;
        returns its command identifier."""
        cid = self.peek()
        if cid is None:
            return None
        self.head = (self.head + 1) % self.depth
        if self.head == 0:
            self._host_phase ^= 1
        self.head_doorbell.write(self.head)
        return cid
