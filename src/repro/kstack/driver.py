"""The kernel NVMe driver: submission and ``nvme_poll``.

Binds a blk-mq hardware queue to an NVMe queue pair.  ``submit`` tags a
block request through blk-mq and submits it as an SQE; ``nvme_poll`` is
the literal CQ check the kernel's polled mode iterates — it peeks the
completion queue's head entry and compares the phase tag (Section
II-B3).

The completion *engines* charge the CPU/instruction cost of calling
these functions; the driver itself is the functional substrate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.kstack.blkmq import BlkMq
from repro.ssd.device import IoOp, IoRecord
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.nvme.controller import NvmeQueuePair
    from repro.nvme.lightweight import LightQueuePair
    from repro.obs.tracer import IoTrace


class KernelNvmeDriver:
    """One hardware-queue <-> queue-pair binding."""

    def __init__(
        self, blkmq: BlkMq, qpair: "Union[NvmeQueuePair, LightQueuePair]"
    ) -> None:
        self.blkmq = blkmq
        self.qpair = qpair
        self._outstanding = 0
        #: Outstanding requests by command identifier (the ISR's lookup).
        self._by_cid: Dict[int, IoRecord] = {}
        index = getattr(qpair, "index", 0)
        self._t_inflight = qpair.sim.obs.telemetry.series(
            f"kstack.hwq{index}.inflight", "level", unit="reqs"
        )

    @property
    def outstanding(self) -> int:
        return self._outstanding

    # ------------------------------------------------------------------
    def submit(self, cpu: int, op: IoOp, offset: Bytes, nbytes: int, *,
               hipri: bool = False,
               trace: "Optional[IoTrace]" = None) -> IoRecord:
        """Tag a block request through blk-mq and submit the NVMe command."""
        qpair = self.qpair
        record = IoRecord(qpair.sim, op, offset, nbytes, trace)
        record.hipri = hipri
        self.blkmq.submit(cpu, record)
        qpair.submit_record(record)
        self._by_cid[record.cid] = record
        self._outstanding += 1
        self._t_inflight.record(qpair.sim.now, self._outstanding)
        return record

    # ------------------------------------------------------------------
    def nvme_poll(self, record: IoRecord) -> Optional[IoRecord]:
        """One CQ check: is ``record`` complete?

        Mirrors the kernel function: load the CQ head entry, compare the
        phase tag, and if it is ours, complete the request through
        blk-mq.  Returns the completed request or ``None``.
        """
        if record.cqe_ns is None:
            return None
        return self._complete(record)

    def complete_by_cid(self, cid: int) -> IoRecord:
        """ISR path: MSI names the queue; the CQE names the command."""
        record = self._by_cid.get(cid)
        if record is None:
            raise KeyError(f"no outstanding command with cid {cid}")
        return self._complete(record)

    def _complete(self, record: IoRecord) -> IoRecord:
        self.blkmq.complete(record)  # KeyError unless outstanding
        # Shallow queues recycle cids; only drop the mapping if it still
        # points at this request.
        if self._by_cid.get(record.cid) is record:
            del self._by_cid[record.cid]
        self._outstanding -= 1
        self._t_inflight.record(self.qpair.sim.now, self._outstanding)
        return record
