"""The Linux NVMe storage stack (kernel 4.14-era), as a simulation.

Models the path the paper profiles: syscall -> VFS -> blk-mq software
and hardware queues -> kernel NVMe driver -> queue pair, with three
I/O completion methods (Section II-B3):

* interrupt-driven (MSI -> ISR -> context switch back),
* polled mode (``blk_mq_poll``/``nvme_poll`` spin, Linux 4.4+),
* hybrid polling (sleep half the mean completion time, Linux 4.10+).

Plus an ext4-like file-system cost model used by the server-client NBD
experiments (Fig. 23).
"""

from repro.kstack.blkmq import BlkMq
from repro.kstack.driver import KernelNvmeDriver
from repro.kstack.completion import (
    CompletionMethod,
    HybridPollEngine,
    InterruptEngine,
    PollEngine,
    make_engine,
)
from repro.kstack.filesystem import Ext4Model, FsCosts
from repro.kstack.stack import KernelStack

__all__ = [
    "BlkMq",
    "KernelNvmeDriver",
    "CompletionMethod",
    "InterruptEngine",
    "PollEngine",
    "HybridPollEngine",
    "make_engine",
    "Ext4Model",
    "FsCosts",
    "KernelStack",
]
