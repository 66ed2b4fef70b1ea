"""Time-series telemetry: periodic resource sampling on the sim clock.

The span tracer answers "what happened to this I/O"; the metrics
registry answers "how much happened overall".  Neither answers *when* a
resource saturated — when the write buffer filled, when GC kicked in,
when the poll loop started burning a whole core.  This module does:
layers feed per-resource updates into named :class:`TimeSeries` objects,
and each series folds those updates into fixed-period samples on the
simulation clock — the periodic per-resource accounting full-system SSD
simulators (SimpleSSD, Amber) emit as a first-class output.

Three series kinds cover every instrumented resource:

* ``level`` — a held value (queue depth, buffer occupancy).  Updates are
  ``record(t, value)`` transitions; each period's sample is the
  *time-weighted mean* level across that period, exactly like the
  registry's gauges but resolved in time.
* ``rate`` — discrete occurrences (pages migrated, faults injected).
  Updates are ``add(t, n)``; each sample is the count in that period.
* ``busy`` — resource occupation intervals (die/channel busy windows,
  poll-loop spins).  Updates are ``add_interval(t0, t1)``; each sample
  is the fraction of the period the resource was busy, divided by
  ``scale`` parallel instances when the series aggregates several
  (e.g. one ``ssd.dies.busy`` series over all dies).

Samples live in a bounded ring: when a series outgrows ``capacity``
periods the oldest samples are evicted (``dropped`` counts them) into a
streaming :class:`TailDigest` — log2-bucketed quantiles (p50/p95/p99/
p99.9) over *every* sample ever taken, without storing raw samples, so
tail statistics survive ring truncation.

Determinism contract: series content is a pure function of the update
stream, which is a pure function of the simulation — so serial and
parallel sweep runs produce byte-identical telemetry once worker
recorders are absorbed in point order (see
:meth:`Telemetry.absorb`).  Like the tracer's spans, each fresh
simulator's series get its own ``pid`` (from the bundle's
:class:`~repro.obs.scope.RunScope`) so back-to-back measurement runs
(each restarting the clock at zero) never alias on the time axis.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.scope import Offsets, RunScope

#: Default sampling period: 10 us resolves queue ramps and GC cycles on
#: runs whose interesting dynamics play out over milliseconds.
DEFAULT_PERIOD_NS = 10_000

#: Default ring capacity in periods (~40 ms of history at the default
#: period); older samples fold into the digest.
DEFAULT_CAPACITY = 4096

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


class TailDigest:
    """Streaming log2-bucket quantile digest.

    Positive samples land in power-of-two buckets keyed by their binary
    exponent; zeros (ubiquitous in idle periods) get their own bucket.
    Quantiles return the covering bucket's midpoint, so any reported
    quantile q satisfies ``q/true in [0.75, 1.5]`` — coarse but
    allocation-free and exactly mergeable across shards.

    It is also the metrics registry's histogram instrument, which is why
    it carries a ``name``/``unit``/``help`` and a ``kind``; ``min`` and
    ``max`` keep samples as observed (an ``int`` stays an ``int`` in
    the metrics CSV).
    """

    kind = "histogram"
    __slots__ = (
        "name", "unit", "help", "count", "total", "min", "max", "_zeros", "_buckets"
    )

    def __init__(self, name: str = "", unit: str = "", help: str = "") -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._zeros = 0
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.observe_many(value, 1)

    def observe_many(self, value: float, n: int) -> None:
        """Fold ``n`` identical samples in (bulk path for idle runs)."""
        if n <= 0:
            return
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self._zeros += n
            return
        exponent = _frexp_exponent(value)
        self._buckets[exponent] = self._buckets.get(exponent, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        if self._zeros >= target:
            return 0.0
        seen = self._zeros
        for exponent in sorted(self._buckets):
            seen += self._buckets[exponent]
            if seen >= target:
                low = 2.0 ** (exponent - 1)
                high = 2.0 ** exponent
                return (low + high) / 2.0
        return float(self.max or 0.0)

    def merge(self, other: "TailDigest") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        self._zeros += other._zeros
        for exponent, count in other._buckets.items():
            self._buckets[exponent] = self._buckets.get(exponent, 0) + count

    def copy(self) -> "TailDigest":
        clone = TailDigest(self.name, self.unit, self.help)
        clone.merge(self)
        return clone

    def to_dict(self) -> Dict[str, float]:
        row: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }
        for name, q in _QUANTILES:
            row[name] = self.quantile(q)
        return row


def _frexp_exponent(value: float) -> int:
    import math

    return math.frexp(value)[1]


_KINDS = ("level", "rate", "busy")


class TimeSeries:
    """One named resource series: bounded per-period samples + digest.

    Buckets are indexed by ``t // period_ns``.  Update state accumulates
    per open bucket in a dict (out-of-order arrivals within the retained
    window are fine — analytic bookings land in the near future); when
    more than ``capacity`` buckets are held, the oldest are *sealed*:
    their sample value moves into the digest and the ``dropped`` count,
    and the bucket is discarded.  ``samples()`` is non-destructive — it
    renders the retained buckets (plus, for level series, the implied
    idle gaps) without mutating update state, so it can be called at any
    point and again later.
    """

    __slots__ = (
        "name",
        "kind",
        "unit",
        "pid",
        "period_ns",
        "capacity",
        "scale",
        "dropped",
        "_digest",
        "_buckets",
        "_level",
        "_last_t",
        "_max_bucket",
        "_onset_ns",
    )

    def __init__(
        self,
        name: str,
        kind: str = "level",
        unit: str = "",
        *,
        pid: int = 1,
        period_ns: int = DEFAULT_PERIOD_NS,
        capacity: int = DEFAULT_CAPACITY,
        scale: int = 1,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown series kind {kind!r}; choose from {_KINDS}")
        if period_ns <= 0:
            raise ValueError("sample period must be positive")
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.name = name
        self.kind = kind
        self.unit = unit
        self.pid = pid
        self.period_ns = int(period_ns)
        self.capacity = int(capacity)
        self.scale = max(1, int(scale))
        self.dropped = 0
        self._digest = TailDigest()
        #: bucket index -> accumulated state: weighted level area (level),
        #: occurrence count (rate), or busy nanoseconds (busy).
        self._buckets: Dict[int, float] = {}
        self._level = 0.0
        self._last_t = 0
        self._max_bucket = -1
        self._onset_ns: Optional[int] = None

    enabled = True

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def record(self, t_ns: int, value: float) -> None:
        """Level transition: the series holds ``value`` from ``t_ns`` on."""
        t_ns = int(t_ns)
        if t_ns < self._last_t:
            t_ns = self._last_t  # clamp, like Gauge.set
        if self._level != 0.0:
            self._spread(self._last_t, t_ns, self._level)
        elif t_ns > self._last_t:
            # Holding zero still advances coverage so later samples know
            # the gap was observed-idle, not unobserved.
            self._touch(t_ns)
        self._level = float(value)
        self._last_t = t_ns
        if value:
            self._mark_onset(t_ns)
        self._touch(t_ns)
        self._seal_excess()

    def add(self, t_ns: int, n: float = 1.0) -> None:
        """Rate occurrence: ``n`` events at ``t_ns``."""
        bucket = int(t_ns) // self.period_ns
        self._buckets[bucket] = self._buckets.get(bucket, 0.0) + float(n)
        if n:
            self._mark_onset(int(t_ns))
        if bucket > self._max_bucket:
            self._max_bucket = bucket
        self._seal_excess()

    def add_interval(self, start_ns: int, end_ns: int) -> None:
        """Busy window: the resource was occupied over [start, end)."""
        if end_ns > start_ns:
            self._mark_onset(int(start_ns))
            self._spread(int(start_ns), int(end_ns), 1.0)
            self._seal_excess()

    def _mark_onset(self, t_ns: int) -> None:
        period_start = (t_ns // self.period_ns) * self.period_ns
        if self._onset_ns is None or period_start < self._onset_ns:
            self._onset_ns = period_start

    # ------------------------------------------------------------------
    def _spread(self, start: int, end: int, weight: float) -> None:
        """Accumulate ``weight`` x time over [start, end) into buckets.

        Buckets that would fall straight off the ring (the update spans
        more than ``capacity`` periods) are folded into the digest
        without ever being allocated — a level held across seconds of
        idle time must not materialize millions of dict entries.
        """
        period = self.period_ns
        first = start // period
        last = (end - 1) // period
        if last > self._max_bucket:
            self._max_bucket = last
        retain_from = self._max_bucket - self.capacity + 1
        if first < retain_from:
            seal_hi = min(retain_from, last + 1)
            # Boundary buckets are partially covered (or already hold
            # accumulated state); everything between them is a run of
            # identical fully-covered periods — digest those in bulk.
            boundary = {
                k for k in self._buckets if first <= k < seal_hi
            }
            boundary.update(b for b in (first, last) if b < seal_hi)
            plain = (seal_hi - first) - len(boundary)
            self._digest.observe_many(self._seal_value(weight * period), plain)
            self.dropped += max(0, plain)
            for b in sorted(boundary):
                accum = self._buckets.pop(b, 0.0) + weight * (
                    min(end, (b + 1) * period) - max(start, b * period)
                )
                self._digest.observe(self._seal_value(accum))
                self.dropped += 1
            first = seal_hi
        for b in range(first, last + 1):
            span_start = max(start, b * period)
            span_end = min(end, (b + 1) * period)
            self._buckets[b] = self._buckets.get(b, 0.0) + weight * (
                span_end - span_start
            )

    def _touch(self, t_ns: int) -> None:
        bucket = t_ns // self.period_ns
        if bucket > self._max_bucket:
            self._max_bucket = bucket
            self._buckets.setdefault(bucket, 0.0)

    def _value_of(self, bucket: int, accum: float) -> float:
        if self.kind == "rate":
            return accum
        if self.kind == "busy":
            return accum / (self.period_ns * self.scale)
        # level: time-weighted mean over the period.  The final bucket
        # may be partially covered; normalize by observed coverage.
        covered = self.period_ns
        if bucket == self._last_t // self.period_ns:
            covered = self._last_t - bucket * self.period_ns
            if covered <= 0:
                return self._level
            # Extend the held level to the last update so the partial
            # bucket reflects it.
        return accum / covered

    def _seal_value(self, accum: float) -> float:
        """A sealed (fully past) bucket's sample value from its accum."""
        if self.kind == "rate":
            return accum
        if self.kind == "busy":
            return accum / (self.period_ns * self.scale)
        return accum / self.period_ns

    def _seal_excess(self) -> None:
        if len(self._buckets) <= self.capacity:
            return
        threshold = self._max_bucket - self.capacity + 1
        for b in sorted(k for k in self._buckets if k < threshold):
            self._digest.observe(self._seal_value(self._buckets.pop(b)))
            self.dropped += 1

    # ------------------------------------------------------------------
    # Read side (non-destructive)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buckets)

    def samples(self) -> List[Tuple[int, float]]:
        """Retained ``(t_start_ns, value)`` samples, time-ascending.

        Only buckets that saw an update (or observed-idle coverage) are
        rendered; gaps between them are unobserved, not zero.
        """
        return [
            (bucket * self.period_ns, self._value_of(bucket, accum))
            for bucket, accum in sorted(self._buckets.items())
        ]

    def digest(self) -> TailDigest:
        """Digest over *all* samples: sealed ones plus the retained ring."""
        full = self._digest.copy()
        for bucket, accum in sorted(self._buckets.items()):
            full.observe(self._value_of(bucket, accum))
        return full

    def first_active_ns(self) -> Optional[int]:
        """Start of the first period that ever saw a nonzero update.

        Tracked at update time, so it survives ring eviction — the
        GC-onset timestamp is readable even when the onset itself has
        scrolled out of the retained window.
        """
        return self._onset_ns


class TelemetryConfig:
    """What to sample and how finely.

    ``series`` restricts recording to names matching any of the given
    prefixes (``None`` = record everything).
    """

    __slots__ = ("period_ns", "capacity", "series")

    def __init__(
        self,
        period_ns: int = DEFAULT_PERIOD_NS,
        capacity: int = DEFAULT_CAPACITY,
        series: Optional[Tuple[str, ...]] = None,
    ) -> None:
        if period_ns <= 0:
            raise ValueError("sample period must be positive")
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.period_ns = int(period_ns)
        self.capacity = int(capacity)
        self.series = tuple(series) if series is not None else None

    def wants(self, name: str) -> bool:
        if self.series is None:
            return True
        return any(name.startswith(prefix) for prefix in self.series)


class Telemetry:
    """The recorder: named series scoped per simulator run (pid).

    Layers call ``series(...)`` at construction and feed updates on
    their fast paths; with telemetry disabled they get the shared
    :data:`NULL_SERIES` instead, so every update is one no-op call.
    """

    enabled = True

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        scope: Optional[RunScope] = None,
    ) -> None:
        self.config = config or TelemetryConfig()
        #: Whose pid new series get (see :mod:`repro.obs.scope`).
        self.scope = scope if scope is not None else RunScope()
        self._series: "Dict[Tuple[int, str], TimeSeries]" = {}

    # ------------------------------------------------------------------
    def series(
        self, name: str, kind: str = "level", unit: str = "", *, scale: int = 1
    ) -> Union[TimeSeries, "_NullSeries"]:
        """Get-or-create the series ``name`` for the current sim."""
        if not self.config.wants(name):
            return NULL_SERIES
        pid = self.scope.pid
        key = (pid, name)
        existing = self._series.get(key)
        if existing is not None:
            if existing.kind != kind:
                raise TypeError(
                    f"series {name!r} already registered as {existing.kind}"
                )
            return existing
        series = TimeSeries(
            name,
            kind,
            unit,
            pid=pid,
            period_ns=self.config.period_ns,
            capacity=self.config.capacity,
            scale=scale,
        )
        self._series[key] = series
        return series

    def get(self, name: str, pid: Optional[int] = None) -> TimeSeries:
        """Lookup by name (and pid; defaults to the only/first match)."""
        if pid is not None:
            return self._series[(pid, name)]
        for (series_pid, series_name), series in sorted(self._series.items()):
            if series_name == name:
                return series
        raise KeyError(f"no telemetry series named {name!r}")

    def names(self) -> List[str]:
        """Distinct series names, sorted."""
        return sorted({name for _pid, name in self._series})

    def __iter__(self) -> Iterator[TimeSeries]:
        """All series, ordered by (pid, name) — the export order."""
        return iter(
            series for _key, series in sorted(self._series.items())
        )

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    def digest(self, name: str) -> TailDigest:
        """Merged digest for ``name`` across every sim that recorded it."""
        merged = TailDigest()
        found = False
        for (pid, series_name), series in sorted(self._series.items()):
            if series_name == name:
                merged.merge(series.digest())
                found = True
        if not found:
            raise KeyError(f"no telemetry series named {name!r}")
        return merged

    # ------------------------------------------------------------------
    def absorb(self, other: "Telemetry", base: Offsets) -> None:
        """Add a worker recorder's series, their pids moved up by
        ``base.pid`` (from :meth:`RunScope.absorb`).

        A worker's pids are all new here, so no key can collide: serial
        and parallel telemetry are byte-identical by construction.
        """
        for (pid, name), series in other._series.items():
            series.pid = pid + base.pid
            key = (series.pid, name)
            assert key not in self._series, f"telemetry series {key} absorbed twice"
            self._series[key] = series


class _NullSeries:
    """Shared no-op series: every update is one cheap call."""

    __slots__ = ()
    enabled = False
    name = ""
    kind = "null"
    unit = ""
    pid = 0
    dropped = 0

    def record(self, t_ns: int, value: float) -> None:
        pass

    def add(self, t_ns: int, n: float = 1.0) -> None:
        pass

    def add_interval(self, start_ns: int, end_ns: int) -> None:
        pass

    def samples(self) -> List[Tuple[int, float]]:
        return []

    def digest(self) -> TailDigest:
        return TailDigest()

    def first_active_ns(self) -> Optional[int]:
        return None

    def __len__(self) -> int:
        return 0


NULL_SERIES = _NullSeries()


class NullTelemetry:
    """The zero-cost default recorder."""

    enabled = False
    config: Optional[TelemetryConfig] = None

    def series(
        self, name: str, kind: str = "level", unit: str = "", *, scale: int = 1
    ) -> _NullSeries:
        return NULL_SERIES

    def names(self) -> List[str]:
        return []

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_TELEMETRY = NullTelemetry()
