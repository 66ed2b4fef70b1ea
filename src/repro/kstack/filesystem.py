"""An ext4-like file-system cost model.

Used by the server-client NBD experiments (Fig. 23), where the client's
file system *cannot* be bypassed: reads only touch cached metadata (an
atime update deferred to writeback), while writes must update inodes and
block bitmaps and push a journal commit — extra CPU work and extra block
I/Os that dilute whatever the server-side kernel bypass saves.  That
asymmetry is the paper's explanation for SPDK NBD helping reads by ~39 %
but writes by under 5 %.

The model charges CPU steps for in-memory metadata work and issues real
block I/Os (through whatever block path it is mounted on) for cold
metadata reads, metadata writeback, and journal commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import StepCost
from repro.sim.engine import Simulator
from repro.sim.events import Sleep, Wait
from repro.sim.rng import UniformStream
from repro.ssd.device import IoOp
from repro.units import Bytes


@dataclass(frozen=True)
class FsCosts:
    """ext4 path costs (CPU) and amplification policy (extra I/Os)."""

    # In-memory work.
    inode_lookup: StepCost = StepCost(ns=600, loads=110, stores=45)
    atime_update: StepCost = StepCost(ns=250, loads=35, stores=40)
    write_prepare: StepCost = StepCost(ns=1_500, loads=260, stores=210)  # alloc + bitmap/inode dirtying
    journal_memcpy: StepCost = StepCost(ns=1_800, loads=320, stores=380)

    # Extra block traffic.
    metadata_miss_prob: float = 0.02  # cold inode/extent block read
    metadata_block_bytes: int = 4096
    journal_commit_interval: int = 8  # data writes per jbd2 commit
    journal_commit_bytes: int = 16_384  # descriptor + metadata + commit blocks
    metadata_writeback_interval: int = 16  # writes per inode/bitmap writeback

    def __post_init__(self) -> None:
        if not 0.0 <= self.metadata_miss_prob < 1.0:
            raise ValueError("metadata_miss_prob must be in [0, 1)")
        if self.journal_commit_interval < 1 or self.metadata_writeback_interval < 1:
            raise ValueError("intervals must be >= 1")


class Ext4Model:
    """File-system layer over a block I/O path.

    ``block_io`` is a generator function ``(op, offset, nbytes) ->
    latency_ns`` — a :class:`~repro.kstack.stack.KernelStack.sync_io`,
    an NBD round trip, or anything with the same contract.
    """

    #: Fraction of the device reserved (at the front) for metadata and
    #: the journal, so amplification I/Os never collide with file data.
    METADATA_REGION = 0.05

    def __init__(
        self,
        sim: Simulator,
        accounting: CpuAccounting,
        block_io: Callable,
        capacity_bytes: int,
        *,
        costs: FsCosts = FsCosts(),
        seed: int = 23,
    ) -> None:
        self.sim = sim
        self.accounting = accounting
        self.block_io = block_io
        self.costs = costs
        self.capacity_bytes = capacity_bytes
        # Metadata-miss rolls are this stream's only draw kind.
        self._rng = UniformStream(seed)
        self._writes_since_commit = 0
        self._writes_since_writeback = 0
        meta_bytes = int(capacity_bytes * self.METADATA_REGION)
        self._meta_blocks = max(1, meta_bytes // costs.metadata_block_bytes)
        # Statistics.
        self.journal_commits = 0
        self.metadata_reads = 0
        self.metadata_writebacks = 0

    # ------------------------------------------------------------------
    @property
    def data_base(self) -> int:
        """First byte usable for file data."""
        return self._meta_blocks * self.costs.metadata_block_bytes

    def _charge_and_wait(self, step: StepCost, function: str) -> Sleep:
        self.accounting.charge(
            step.ns,
            ExecMode.KERNEL,
            "ext4",
            function,
            loads=step.loads,
            stores=step.stores,
        )
        return self.sim.sleep(step.ns)

    def _meta_offset(self, key: int) -> int:
        block = key % self._meta_blocks
        return block * self.costs.metadata_block_bytes

    # ------------------------------------------------------------------
    def read(self, offset: Bytes, nbytes: int) -> Generator[Wait, Any, int]:
        """Process: file read.  Returns application latency (ns)."""
        costs = self.costs
        started = self.sim.now
        yield self._charge_and_wait(costs.inode_lookup, "ext4_file_read_iter")
        if self._rng.random() < costs.metadata_miss_prob:
            self.metadata_reads += 1
            yield from self.block_io(
                IoOp.READ, self._meta_offset(offset), costs.metadata_block_bytes
            )
        yield from self.block_io(IoOp.READ, self.data_base + offset, nbytes)
        yield self._charge_and_wait(costs.atime_update, "ext4_update_atime")
        return self.sim.now - started

    def write(self, offset: Bytes, nbytes: int) -> Generator[Wait, Any, int]:
        """Process: file write with journaling.  Returns latency (ns)."""
        costs = self.costs
        started = self.sim.now
        yield self._charge_and_wait(costs.inode_lookup, "ext4_file_write_iter")
        yield self._charge_and_wait(costs.write_prepare, "ext4_map_blocks")
        yield self._charge_and_wait(costs.journal_memcpy, "jbd2_journal_dirty")
        yield from self.block_io(IoOp.WRITE, self.data_base + offset, nbytes)
        self._writes_since_commit += 1
        self._writes_since_writeback += 1
        if self._writes_since_commit >= costs.journal_commit_interval:
            self._writes_since_commit = 0
            self.journal_commits += 1
            yield from self.block_io(
                IoOp.WRITE, self._meta_offset(self.journal_commits),
                costs.journal_commit_bytes,
            )
        if self._writes_since_writeback >= costs.metadata_writeback_interval:
            self._writes_since_writeback = 0
            self.metadata_writebacks += 1
            yield from self.block_io(
                IoOp.WRITE, self._meta_offset(offset), costs.metadata_block_bytes
            )
        return self.sim.now - started
