"""The metrics registry: counters, time-weighted gauges, histograms.

Layers register named instruments once (at construction) and update
them on their fast paths.  The null registry hands back shared no-op
instruments, so instrumented code never branches on whether metrics are
being collected — with observability disabled every update is a single
no-op method call.

Naming convention: ``<layer>.<object>.<quantity>`` with unit suffixes
carried in the instrument's ``unit`` field (``ns``, ``us``, ``units``,
``cmds``, plain counts have no unit).  Histograms are log2-bucketed
:class:`~repro.obs.telemetry.TailDigest` objects, the same digest
telemetry series and blame groups keep.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.obs.telemetry import TailDigest


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "unit", "help", "value")

    def __init__(self, name: str, unit: str = "", help: str = "") -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A sampled level with a time-weighted mean and a high-water mark.

    ``set``/``add`` take the simulation timestamp so the mean weights
    each level by how long it was held (queue depths, occupancies).
    Timestamps from a fresh simulator (clock restarted at zero) simply
    stop accumulating area for the backwards jump; the level itself is
    always current.
    """

    kind = "gauge"
    __slots__ = ("name", "unit", "help", "value", "max_value", "_last_ns", "_area")

    def __init__(self, name: str, unit: str = "", help: str = "") -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.value = 0.0
        self.max_value = 0.0
        self._last_ns = 0
        self._area = 0.0

    def set(self, value: float, at_ns: int) -> None:
        at_ns = int(at_ns)
        if at_ns > self._last_ns:
            self._area += self.value * (at_ns - self._last_ns)
            self._last_ns = at_ns
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float, at_ns: int) -> None:
        self.set(self.value + delta, at_ns)

    def time_mean(self, until_ns: Optional[int] = None) -> float:
        until = self._last_ns if until_ns is None else int(until_ns)
        area = self._area + self.value * max(0, until - self._last_ns)
        return area / until if until > 0 else float(self.value)


#: Any concrete instrument (the registry is heterogeneous by design).
Metric = Union[Counter, Gauge, TailDigest]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": TailDigest}


class MetricsRegistry:
    """Named instruments, get-or-create, insertion-ordered."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, unit: str, help: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = _KINDS[kind](name, unit, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, unit: str = "", help: str = "") -> Counter:
        metric = self._get_or_create("counter", name, unit, help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, unit: str = "", help: str = "") -> Gauge:
        metric = self._get_or_create("gauge", name, unit, help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, unit: str = "", help: str = "") -> TailDigest:
        metric = self._get_or_create("histogram", name, unit, help)
        assert isinstance(metric, TailDigest)
        return metric

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    def absorb(self, other: "MetricsRegistry") -> None:
        """Merge another registry's instruments into this one.

        Counters add; histograms merge counts, extremes, and buckets.
        Gauges concatenate their timelines — areas and elapsed times
        both add, so the time-weighted mean becomes the average level
        across all absorbed measurements (each measurement runs on a
        fresh simulator clock, so the windows are sequential, not
        overlapping) — keep the higher high-water mark, and take the
        absorbed (later) level.  Instruments absent here are created
        first, so insertion order follows the absorb order
        deterministically.
        """
        for metric in other:
            mine = self._get_or_create(
                metric.kind, metric.name, metric.unit, metric.help
            )
            if isinstance(metric, Counter):
                assert isinstance(mine, Counter)
                mine.value += metric.value
            elif isinstance(metric, Gauge):
                assert isinstance(mine, Gauge)
                mine._area += metric._area
                mine._last_ns += metric._last_ns
                mine.max_value = max(mine.max_value, metric.max_value)
                mine.value = metric.value
            else:
                assert isinstance(mine, TailDigest)
                mine.merge(metric)

    # ------------------------------------------------------------------
    def snapshot(self, now_ns: Optional[int] = None) -> List[dict]:
        """One dict per instrument (the exporters' common substrate)."""
        rows: List[dict] = []
        for metric in self._metrics.values():
            row: dict = {"name": metric.name, "kind": metric.kind, "unit": metric.unit}
            if isinstance(metric, Counter):
                row["value"] = metric.value
            elif isinstance(metric, Gauge):
                row["value"] = metric.value
                row["max"] = metric.max_value
                row["time_mean"] = metric.time_mean(now_ns)
            else:
                row["count"] = metric.count
                row["mean"] = metric.mean
                row["min"] = metric.min if metric.min is not None else 0.0
                row["max"] = metric.max if metric.max is not None else 0.0
                row["p50"] = metric.quantile(0.50)
                row["p99"] = metric.quantile(0.99)
            rows.append(row)
        return rows


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()
    kind = "null"
    name = ""
    unit = ""
    value = 0
    max_value = 0.0
    count = 0
    total = 0.0
    mean = 0.0
    min = None
    max = None

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float, at_ns: int = 0) -> None:
        pass

    def add(self, delta: float, at_ns: int = 0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time_mean(self, until_ns: Optional[int] = None) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Hands back shared no-op instruments; collects nothing."""

    enabled = False

    def counter(self, name: str, unit: str = "", help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, unit: str = "", help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str, unit: str = "", help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self, now_ns: Optional[int] = None) -> List[dict]:
        return []

    def __iter__(self) -> Iterator[Metric]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False


NULL_REGISTRY = NullRegistry()
