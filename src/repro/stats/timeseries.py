"""Time series for the GC / power experiments (Figs. 7b and 8).

:class:`Points` holds raw ``(time, value)`` samples.
:class:`WindowedAverage` buckets points into fixed windows and reports the
per-window mean — exactly how the paper's time-series plots are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


@dataclass(frozen=True, eq=False)
class Points:
    """Raw ``(t_ns, value)`` samples over non-decreasing times: int64
    ``times`` and float64 ``values`` (16 bytes a point)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if len(times) != len(values):
            raise ValueError("times and values differ in length")
        if np.any(times[1:] < times[:-1]):
            raise ValueError("time series points must be non-decreasing in time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.times)

    def windowed(self, window_ns: int) -> "WindowedAverage":
        """Aggregate into ``window_ns``-wide buckets of per-window means."""
        return WindowedAverage.from_points(self.times, self.values, window_ns)


@dataclass(frozen=True)
class WindowedAverage:
    """Per-window mean values; the x axis of a time-series figure."""

    window_ns: int
    starts_ns: Tuple[int, ...]
    means: Tuple[float, ...]

    @classmethod
    def from_points(
        cls, times: ArrayLike, values: ArrayLike, window_ns: int
    ) -> "WindowedAverage":
        """Bucket non-decreasing ``times`` into ``window_ns`` windows.

        Each window's points are one contiguous slice, so its mean is
        taken over a view: no per-point temporaries, whatever the series
        length (a power series runs to millions of points).
        """
        if window_ns <= 0:
            raise ValueError("window must be positive")
        times_arr = np.asarray(times, dtype=np.int64)
        values_arr = np.asarray(values, dtype=np.float64)
        starts: List[int] = []
        means: List[float] = []
        lo, count = 0, len(times_arr)
        while lo < count:
            start = int(times_arr[lo]) // window_ns * window_ns
            hi = int(np.searchsorted(times_arr, start + window_ns, side="left"))
            starts.append(start)
            means.append(float(values_arr[lo:hi].mean()))
            lo = hi
        return cls(window_ns=window_ns, starts_ns=tuple(starts), means=tuple(means))

    def __len__(self) -> int:
        return len(self.starts_ns)
