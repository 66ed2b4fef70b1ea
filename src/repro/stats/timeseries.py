"""Time-series recording for the GC / power experiments (Figs. 7b and 8).

:class:`TimeSeries` stores raw ``(time, value)`` points.
:class:`WindowedAverage` buckets points into fixed windows and reports the
per-window mean — exactly how the paper's time-series plots are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


class TimeSeries:
    """Raw ``(t_ns, value)`` samples in arrival order.

    A series either grows point by point through :meth:`record` (list
    backed) or is built whole by :meth:`from_arrays` (int64/float64
    backed, read-only; 16 bytes a point instead of two boxed numbers).
    """

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self._times: Union[List[int], np.ndarray] = []
        self._values: Union[List[float], np.ndarray] = []

    @classmethod
    def from_arrays(
        cls, name: str, times: ArrayLike, values: ArrayLike
    ) -> "TimeSeries":
        """A read-only series over non-decreasing ``times``."""
        series = cls(name)
        series._times = np.asarray(times, dtype=np.int64)
        series._values = np.asarray(values, dtype=np.float64)
        return series

    def record(self, t_ns: int, value: float) -> None:
        if not isinstance(self._times, list) or not isinstance(self._values, list):
            raise TypeError("an array-backed time series is read-only")
        if self._times and t_ns < self._times[-1]:
            raise ValueError("time series records must be non-decreasing in time")
        self._times.append(int(t_ns))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def windowed(self, window_ns: int) -> "WindowedAverage":
        """Aggregate into ``window_ns``-wide buckets of per-window means."""
        return WindowedAverage.from_points(self._times, self._values, window_ns)


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
