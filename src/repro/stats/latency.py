"""Latency distribution summaries.

The paper reports average latency and the 99.999th ("five nines")
percentile.  :func:`summarize` reduces raw samples (nanoseconds, one per
I/O) to an immutable :class:`LatencySummary`, the result object used in
experiment reports.  Samples stay raw because the experiments need exact
extreme percentiles from modest sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

NS_PER_US = 1_000.0


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency distribution, in nanoseconds."""

    count: int
    mean_ns: float
    min_ns: float
    max_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    p9999_ns: float
    p99999_ns: float
    stdev_ns: float

    @property
    def mean_us(self) -> float:
        return self.mean_ns / NS_PER_US

    @property
    def p99999_us(self) -> float:
        return self.p99999_ns / NS_PER_US

    @property
    def p99_us(self) -> float:
        return self.p99_ns / NS_PER_US

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean_us:.1f}us "
            f"p99={self.p99_us:.1f}us p99.999={self.p99999_us:.1f}us"
        )


EMPTY_SUMMARY = LatencySummary(
    count=0, mean_ns=0.0, min_ns=0.0, max_ns=0.0, p50_ns=0.0,
    p95_ns=0.0, p99_ns=0.0, p9999_ns=0.0, p99999_ns=0.0, stdev_ns=0.0,
)


def summarize(samples: ArrayLike) -> LatencySummary:
    """Summarize latency ``samples`` (nanoseconds); empty gives zeros.

    Percentiles use the *higher* interpolation so that extreme
    percentiles from small sample counts report an actually observed
    latency rather than an interpolated value below the tail.
    """
    data = np.asarray(samples, dtype=np.float64)
    if not len(data):
        return EMPTY_SUMMARY
    pcts = np.percentile(data, [50, 95, 99, 99.99, 99.999], method="higher")
    return LatencySummary(
        count=len(data),
        mean_ns=float(np.mean(data)),
        min_ns=float(np.min(data)),
        max_ns=float(np.max(data)),
        p50_ns=float(pcts[0]),
        p95_ns=float(pcts[1]),
        p99_ns=float(pcts[2]),
        p9999_ns=float(pcts[3]),
        p99999_ns=float(pcts[4]),
        stdev_ns=float(np.std(data)),
    )
