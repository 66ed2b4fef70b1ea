"""blk-mq: the multi-queue block layer (Section II-B1).

Structure follows Bjorling et al. [11]: a *software queue* per CPU core
accepts file-system block requests; *hardware queues* map one-to-one
onto the NVMe driver's queue pairs.  Submission tags the request's
:class:`~repro.ssd.device.IoRecord` with its hardware queue and tag —
the pair ``blk_mq_poll`` later uses to find the completion queue to spin
on (the kernel's *cookie*).

The timing of these steps is charged by the stack layer; this module is
the structural substrate (queues, tags) that the driver and completion
engines operate on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ssd.device import IoRecord


class SoftwareQueue:
    """Per-CPU staging queue (struct blk_mq_ctx)."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.queued = 0  # lifetime count; requests pass straight through


class HardwareQueue:
    """Dispatch queue mapped to one NVMe queue pair (struct blk_mq_hw_ctx)."""

    def __init__(self, index: int, tag_count: int) -> None:
        if tag_count < 1:
            raise ValueError("need at least one tag")
        self.index = index
        self.tag_count = tag_count
        self._free_tags: List[int] = list(range(tag_count))
        self.inflight: Dict[int, IoRecord] = {}

    def allocate(self, record: IoRecord) -> None:
        """Tag ``record`` into this queue."""
        if not self._free_tags:
            raise RuntimeError(f"hardware queue {self.index} out of tags")
        tag = self._free_tags.pop()
        record.hw_queue = self.index
        record.tag = tag
        self.inflight[tag] = record

    def complete(self, record: IoRecord) -> None:
        """Retire ``record`` and free its tag."""
        tag = record.tag
        if self.inflight.get(tag) is not record:
            raise KeyError(f"no in-flight request with tag {tag}")
        del self.inflight[tag]
        record.completed = True
        self._free_tags.append(tag)


class BlkMq:
    """The multi-queue block layer: software queues x hardware queues."""

    def __init__(self, *, cpus: int = 1, hw_queues: int = 1, tags_per_queue: int = 1024) -> None:
        if cpus < 1 or hw_queues < 1:
            raise ValueError("need at least one CPU and one hardware queue")
        self.software_queues = [SoftwareQueue(cpu) for cpu in range(cpus)]
        self.hardware_queues = [
            HardwareQueue(index, tags_per_queue) for index in range(hw_queues)
        ]

    def map_queue(self, cpu: int) -> HardwareQueue:
        """CPU -> hardware queue mapping (round-robin like blk_mq_map_queue)."""
        if not 0 <= cpu < len(self.software_queues):
            raise ValueError(f"cpu out of range: {cpu}")
        return self.hardware_queues[cpu % len(self.hardware_queues)]

    def submit(self, cpu: int, record: IoRecord) -> None:
        """The blk_mq_make_request path: stage, tag, dispatch."""
        if record.offset < 0 or record.nbytes <= 0:
            raise ValueError("a block request must cover a positive byte range")
        hardware_queue = self.map_queue(cpu)
        self.software_queues[cpu].queued += 1
        hardware_queue.allocate(record)

    def complete(self, record: IoRecord) -> None:
        self.hardware_queues[record.hw_queue].complete(record)
