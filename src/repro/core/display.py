"""Shared display vocabulary for the figure modules.

The paper's figures all speak the same axis language: the two devices,
the four fio access patterns with their plot labels, and block sizes
named in KB.
Keeping these here (rather than in one figure module) lets every
figure module import them without reaching into a sibling.
"""

from __future__ import annotations

#: The paper's two devices (registry preset aliases), ULL first.
PAPER_DEVICES = ("ull", "nvme")

#: fio ``rw=`` values the paper sweeps, in presentation order.
PATTERNS = ("read", "randread", "write", "randwrite")

#: Plot labels for each pattern (paper figure legends).
PATTERN_LABELS = {
    "read": "SeqRd",
    "randread": "RndRd",
    "write": "SeqWr",
    "randwrite": "RndWr",
}

#: Block-size axis labels.
KB = {
    4096: "4KB", 8192: "8KB", 16384: "16KB", 32768: "32KB",
    65536: "64KB", 131072: "128KB", 262144: "256KB",
    524288: "512KB", 1048576: "1MB",
}

#: Nanoseconds per microsecond (y-axis conversions).
US = 1_000.0
