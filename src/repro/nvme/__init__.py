"""NVMe protocol substrate.

Faithful-enough models of the structures the paper describes in Section
II-B2: submission/completion queue rings with phase tags, doorbell
registers mapped through PCIe BARs, MSI completion signalling, and a
controller front-end that fetches commands and posts completions with
protocol-level latencies.
"""

from repro.nvme.command import StatusCode
from repro.nvme.queue import CompletionQueue, Doorbell, QueueFull, SubmissionQueue
from repro.nvme.controller import NvmeController, NvmeQueuePair, NvmeTimings
from repro.nvme.lightweight import LightQueuePair, LightQueueTimings

__all__ = [
    "StatusCode",
    "SubmissionQueue",
    "CompletionQueue",
    "Doorbell",
    "QueueFull",
    "NvmeController",
    "NvmeQueuePair",
    "NvmeTimings",
    "LightQueuePair",
    "LightQueueTimings",
]
