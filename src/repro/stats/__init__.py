"""Measurement utilities: latency summaries and time series."""

from repro.stats.latency import LatencySummary, summarize
from repro.stats.timeseries import Points, WindowedAverage

__all__ = [
    "LatencySummary",
    "Points",
    "WindowedAverage",
    "summarize",
]
