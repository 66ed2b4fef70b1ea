"""Tail-latency forensics: per-I/O wait-for blame attribution.

The span tracer answers *how long* each layer took; telemetry answers
*what resources looked like over time*.  Neither answers the question
that actually matters at the tail — **what was this slow request
waiting on, and who was occupying that resource?**  This module does.

Every layer that can make an I/O wait emits :class:`WaitEdge` records
``(resource, holder, start_ns, end_ns)`` on the I/O's trace context
(see :meth:`repro.obs.tracer.IoTrace.wait`): the kernel stack on
requeue backoff, the NVMe controller on SQ backlog and timeout
recovery, the SSD on die/channel busy, write-buffer-full and
program-suspend windows (with GC named as the holder when a collection
is in flight), the SPDK poller on its completion-detection gap, and the
NBD client on link outages.  :meth:`BlameReport.from_tracer` reads
those edges off a traced run's finished I/Os, after the fact, and
keeps:

* a bounded **top-K reservoir** of the slowest requests per
  ``(device, op)`` group, each captured as a detached, pickle-safe
  :class:`OutlierRecord` with its full phase timeline and wait chain;
* per-group latency :class:`TailDigest` quantiles over *all* I/Os;
* aggregate wait time per ``(resource, holder)`` pair;
* an **SLO monitor**: per-:class:`SloSpec` attainment counters plus
  rolling burn-rate :class:`TimeSeries` (misses and checks per period).

Conservation invariant
----------------------
Wait edges may overlap (an NVMe timeout-recovery window can contain a
die wait for the retried command), so wall-clock wait time is the
length of the **union** of a request's clamped edges; service time is
defined as end-to-end latency minus that union.  Every captured
outlier therefore satisfies, exactly and in integer nanoseconds::

    wait_ns + service_ns == end_ns - start_ns
    wait_ns == |union(edges)|        (edges clamped to [start, end])

:func:`verify_blame_conservation` re-derives both from the stored edge
list and raises if any record disagrees — the same style of
to-the-nanosecond check :func:`repro.obs.anatomy.verify_conservation`
applies to phase tiling.

Like the anatomy report, blame is a view of the trace built after the
run, so it cannot perturb simulated time; and since the sweep engine
appends worker traces at the offsets the bundle's scope hands them, a
``--jobs N`` report is byte-identical to serial.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.telemetry import DEFAULT_PERIOD_NS, TailDigest, TimeSeries
from repro.obs.tracer import WaitEdge

if TYPE_CHECKING:
    from repro.obs.tracer import IoTrace, SpanTracer

#: Default outlier reservoir size per (device, op) group.
DEFAULT_TOP = 10

_DURATION_UNITS: Tuple[Tuple[str, int], ...] = (
    ("ns", 1),
    ("us", 1_000),
    ("ms", 1_000_000),
    ("s", 1_000_000_000),
)


def parse_duration_ns(text: str) -> int:
    """Parse ``150us`` / ``1.5ms`` / ``800`` (bare = ns) into integer ns."""
    raw = text.strip().lower()
    for suffix, mult in sorted(_DURATION_UNITS, key=lambda u: -len(u[0])):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            break
    else:
        number, mult = raw, 1
    try:
        value = float(number)
    except ValueError:
        raise ValueError(
            f"bad duration {text!r}: expected NUMBER[ns|us|ms|s]"
        ) from None
    if value <= 0:
        raise ValueError(f"bad duration {text!r}: must be positive")
    return int(round(value * mult))


def format_ns(ns: float) -> str:
    """Render a nanosecond quantity with a human unit (deterministic)."""
    ns = float(ns)
    if ns >= 1_000_000_000:
        return f"{ns / 1_000_000_000:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:.2f}ms"
    if ns >= 1_000:
        return f"{ns / 1_000:.1f}us"
    return f"{ns:.0f}ns"


class SloSpec:
    """One latency objective: ``OP:LATENCY[@OBJECTIVE]``.

    ``read:150us@0.999`` means "99.9% of reads complete within 150 us".
    ``OP`` is ``read``, ``write`` or ``*`` (all ops); ``OBJECTIVE``
    defaults to 0.999 and accepts either a fraction (``0.999``) or a
    percentage (``99.9%``).
    """

    __slots__ = ("op", "threshold_ns", "objective")

    def __init__(self, op: str, threshold_ns: int, objective: float = 0.999) -> None:
        op = op.strip().lower()
        if not op:
            raise ValueError("SLO op must be non-empty ('read', 'write' or '*')")
        if threshold_ns <= 0:
            raise ValueError("SLO latency threshold must be positive")
        if not 0.0 < objective < 1.0:
            raise ValueError("SLO objective must be a fraction in (0, 1)")
        self.op = op
        self.threshold_ns = int(threshold_ns)
        self.objective = float(objective)

    @classmethod
    def parse(cls, text: str) -> "SloSpec":
        body, at, objective_text = text.partition("@")
        op, colon, threshold_text = body.partition(":")
        if not colon or not op.strip() or not threshold_text.strip():
            raise ValueError(
                f"bad SLO spec {text!r}: expected OP:LATENCY[@OBJECTIVE], "
                "e.g. read:150us@0.999"
            )
        objective = 0.999
        if at:
            raw = objective_text.strip()
            try:
                if raw.endswith("%"):
                    objective = float(raw[:-1]) / 100.0
                else:
                    objective = float(raw)
            except ValueError:
                raise ValueError(
                    f"bad SLO objective {objective_text!r} in {text!r}"
                ) from None
        return cls(op, parse_duration_ns(threshold_text), objective)

    def matches(self, op: str) -> bool:
        return self.op == "*" or self.op == op

    @property
    def label(self) -> str:
        pct = self.objective * 100.0
        return f"{self.op}<={format_ns(self.threshold_ns)}@{pct:g}%"

    def __repr__(self) -> str:
        return f"SloSpec({self.label})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SloSpec)
            and self.op == other.op
            and self.threshold_ns == other.threshold_ns
            and self.objective == other.objective
        )

    def __hash__(self) -> int:
        return hash((self.op, self.threshold_ns, self.objective))


class OutlierRecord:
    """A captured slow request, detached from its trace (pickle-safe).

    ``phases`` is the tiled top-level timeline as ``(name, start_ns,
    end_ns)`` tuples; ``edges`` is the clamped, time-sorted wait chain.
    ``wait_ns`` is the union length of ``edges`` and ``service_ns`` the
    exact remainder — see the module docstring's conservation
    invariant.
    """

    __slots__ = (
        "io_id",
        "pid",
        "device",
        "op",
        "offset",
        "nbytes",
        "start_ns",
        "end_ns",
        "latency_ns",
        "wait_ns",
        "service_ns",
        "phases",
        "edges",
    )

    def __init__(
        self,
        io_id: int,
        pid: int,
        device: str,
        op: str,
        offset: int,
        nbytes: int,
        start_ns: int,
        end_ns: int,
        wait_ns: int,
        phases: Tuple[Tuple[str, int, int], ...],
        edges: Tuple[WaitEdge, ...],
    ) -> None:
        self.io_id = io_id
        self.pid = pid
        self.device = device
        self.op = op
        self.offset = offset
        self.nbytes = nbytes
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.latency_ns = end_ns - start_ns
        self.wait_ns = wait_ns
        self.service_ns = self.latency_ns - wait_ns
        self.phases = phases
        self.edges = edges

    def blamed_shares(self) -> List[Tuple[str, str, float]]:
        """Per (resource, holder) share of this record's latency.

        Raw edge durations are scaled so they sum to the union wait
        time (overlap is split proportionally), so the returned shares
        plus the service share sum to exactly 1.
        """
        if self.latency_ns <= 0 or not self.edges:
            return []
        raw: Dict[Tuple[str, str], int] = {}
        for edge in self.edges:
            key = (edge.resource, edge.holder)
            raw[key] = raw.get(key, 0) + edge.duration_ns
        raw_total = sum(raw.values())
        if raw_total <= 0:
            return []
        factor = self.wait_ns / raw_total / self.latency_ns
        return [
            (resource, holder, duration * factor)
            for (resource, holder), duration in sorted(raw.items())
        ]


def union_ns(edges: Tuple[WaitEdge, ...]) -> int:
    """Total length of the union of (already sorted) edge intervals."""
    total = 0
    cursor: Optional[int] = None
    high = 0
    for edge in edges:
        if cursor is None or edge.start_ns > high:
            if cursor is not None:
                total += high - cursor
            cursor, high = edge.start_ns, edge.end_ns
        elif edge.end_ns > high:
            high = edge.end_ns
    if cursor is not None:
        total += high - cursor
    return total


def _clamped_edges(trace: "IoTrace") -> Tuple[WaitEdge, ...]:
    """The trace's wait edges clamped to its window, time-sorted."""
    start_ns = trace.start_ns
    end_ns = trace.end_ns
    assert end_ns is not None
    return tuple(
        sorted(
            (
                WaitEdge(
                    e.resource,
                    e.holder,
                    max(e.start_ns, start_ns),
                    min(e.end_ns, end_ns),
                )
                for e in trace._waits
                if min(e.end_ns, end_ns) > max(e.start_ns, start_ns)
            ),
            key=lambda e: (e.start_ns, e.end_ns, e.resource, e.holder),
        )
    )


def _outlier(trace: "IoTrace", device: str) -> OutlierRecord:
    """Capture a finished trace as a detached outlier record."""
    assert trace.end_ns is not None
    edges = _clamped_edges(trace)
    return OutlierRecord(
        io_id=trace.io_id,
        pid=trace.pid,
        device=device,
        op=trace.op,
        offset=trace.offset,
        nbytes=trace.nbytes,
        start_ns=trace.start_ns,
        end_ns=trace.end_ns,
        wait_ns=union_ns(edges),
        phases=tuple(
            (span.name, span.start_ns, span.end_ns) for span in trace.phases()
        ),
        edges=edges,
    )


class BlameReport:
    """Outliers, aggregates and SLOs over a tracer's finished I/Os.

    A pure view: :meth:`from_tracer` makes one pass over
    ``tracer.finished_ios`` in list order.  A sweep worker's traces are
    appended to that list at the pid and io-id offsets its scope hands
    them, and every aggregate here is either order-independent or kept
    per pid, so a ``--jobs N`` report equals the serial one.
    """

    def __init__(self, top: int = DEFAULT_TOP, slos: Tuple[SloSpec, ...] = ()) -> None:
        if top < 1:
            raise ValueError("outlier reservoir size must be >= 1")
        self.top = int(top)
        self.slos = tuple(slos)
        self.observed = 0
        #: (device, op) -> top-K outliers, slowest first.
        self._groups: Dict[Tuple[str, str], List[OutlierRecord]] = {}
        #: (device, op) -> latency digest over every I/O in the group.
        self._digests: Dict[Tuple[str, str], TailDigest] = {}
        #: (resource, holder) -> [total wait ns, edge count] over all I/Os.
        self._resources: Dict[Tuple[str, str], List[int]] = {}
        self._slo_total: List[int] = [0] * len(self.slos)
        self._slo_miss: List[int] = [0] * len(self.slos)
        #: (pid, spec index, "checked"|"misses") -> burn-rate series.
        self._slo_series: Dict[Tuple[int, int, str], TimeSeries] = {}

    @classmethod
    def from_tracer(
        cls,
        tracer: "SpanTracer",
        *,
        top: int = DEFAULT_TOP,
        slos: Tuple[SloSpec, ...] = (),
    ) -> "BlameReport":
        """Blame every finished I/O of ``tracer``; keep ``top`` outliers
        per (device, op) group and monitor each of ``slos``."""
        report = cls(top, slos)
        report.observed = len(tracer.finished_ios)
        labels = tracer.scope.device_labels
        # (device, op) -> every finished trace of the group.
        members: Dict[Tuple[str, str], List["IoTrace"]] = {}
        for trace in tracer.finished_ios:
            end_ns = trace.end_ns
            assert end_ns is not None
            latency_ns = end_ns - trace.start_ns
            edges = _clamped_edges(trace)
            device = labels.get(trace.pid) or f"sim{trace.pid}"
            group_key = (device, trace.op)
            members.setdefault(group_key, []).append(trace)

            digest = report._digests.get(group_key)
            if digest is None:
                digest = report._digests[group_key] = TailDigest()
            digest.observe(float(latency_ns))

            for edge in edges:
                cell = report._resources.setdefault((edge.resource, edge.holder), [0, 0])
                cell[0] += edge.duration_ns
                cell[1] += 1

            for index, spec in enumerate(report.slos):
                if not spec.matches(trace.op):
                    continue
                report._slo_total[index] += 1
                report._burn_series(trace.pid, index, "checked").add(end_ns, 1)
                if latency_ns > spec.threshold_ns:
                    report._slo_miss[index] += 1
                    report._burn_series(trace.pid, index, "misses").add(end_ns, 1)

        for (device, op), group in members.items():
            slowest = heapq.nsmallest(
                report.top,
                group,
                key=lambda trace: (-trace.latency_ns, trace.pid, trace.io_id),
            )
            report._groups[(device, op)] = [_outlier(t, device) for t in slowest]
        return report

    def _burn_series(self, pid: int, index: int, which: str) -> TimeSeries:
        key = (pid, index, which)
        series = self._slo_series.get(key)
        if series is None:
            series = TimeSeries(
                f"slo.{self.slos[index].label}.{which}",
                "rate",
                "ios",
                pid=pid,
                period_ns=DEFAULT_PERIOD_NS,
            )
            self._slo_series[key] = series
        return series

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def groups(self) -> List[Tuple[Tuple[str, str], List[OutlierRecord]]]:
        """All (device, op) groups with their outliers, sorted by key."""
        return [(key, list(self._groups[key])) for key in sorted(self._groups)]

    def group_digest(self, device: str, op: str) -> TailDigest:
        return self._digests[(device, op)]

    def resource_totals(self) -> List[Tuple[str, str, int, int]]:
        """``(resource, holder, total_wait_ns, edges)`` rows, biggest first."""
        return sorted(
            (
                (resource, holder, cell[0], cell[1])
                for (resource, holder), cell in self._resources.items()
            ),
            key=lambda row: (-row[2], row[0], row[1]),
        )

    def tail_blame(
        self, device: str, op: str
    ) -> List[Tuple[str, str, float]]:
        """Blame shares of the group's captured tail, biggest first.

        Aggregates :meth:`OutlierRecord.blamed_shares` across the
        group's reservoir, weighted by each outlier's latency; the
        residual (1 minus the sum) is pure service time.  This is the
        "p99.9 is 71% die-busy-under-GC" number.
        """
        group = self._groups.get((device, op), [])
        total_latency = sum(r.latency_ns for r in group)
        if total_latency <= 0:
            return []
        shares: Dict[Tuple[str, str], float] = {}
        for record in group:
            for resource, holder, share in record.blamed_shares():
                key = (resource, holder)
                shares[key] = shares.get(key, 0.0) + share * record.latency_ns
        return sorted(
            (
                (resource, holder, weighted / total_latency)
                for (resource, holder), weighted in shares.items()
            ),
            key=lambda row: (-row[2], row[0], row[1]),
        )

    def slo_rows(self) -> List[Dict[str, Any]]:
        """One summary row per monitored SLO."""
        rows: List[Dict[str, Any]] = []
        for index, spec in enumerate(self.slos):
            total = self._slo_total[index]
            misses = self._slo_miss[index]
            attainment = 1.0 - (misses / total) if total else 1.0
            rows.append(
                {
                    "spec": spec,
                    "label": spec.label,
                    "checked": total,
                    "misses": misses,
                    "attainment": attainment,
                    "met": attainment >= spec.objective,
                    "peak_burn": self._peak_burn(index, spec),
                }
            )
        return rows

    def _peak_burn(self, index: int, spec: SloSpec) -> float:
        """Max per-period burn rate: miss fraction / error budget."""
        budget = 1.0 - spec.objective
        peak = 0.0
        for pid in sorted({p for p, i, _w in self._slo_series if i == index}):
            checked = self._slo_series.get((pid, index, "checked"))
            misses = self._slo_series.get((pid, index, "misses"))
            if checked is None or misses is None:
                continue
            checks = dict(checked.samples())
            for t_ns, missed in misses.samples():
                total = checks.get(t_ns, 0.0)
                if total > 0 and missed > 0:
                    peak = max(peak, (missed / total) / budget)
        return peak

    def burn_series(self, index: int) -> List[TimeSeries]:
        """The raw burn-rate series for SLO ``index`` (checked+misses)."""
        return [
            self._slo_series[key]
            for key in sorted(self._slo_series)
            if key[1] == index
        ]


# ----------------------------------------------------------------------
# Invariant check
# ----------------------------------------------------------------------
def verify_blame_conservation(report: BlameReport) -> int:
    """Assert the conservation invariant on every captured outlier.

    For each record: the stored wait is exactly the union of its edge
    intervals, wait + service is exactly the end-to-end latency, every
    edge lies inside the request window, and (when the trace recorded
    phases) the phase tiling also sums to the latency.  Returns the
    number of records checked.
    """
    checked = 0
    for (device, op), records in report.groups():
        for record in records:
            where = f"io {record.io_id} (pid {record.pid}, {device}/{op})"
            latency = record.end_ns - record.start_ns
            assert record.latency_ns == latency, where
            assert record.wait_ns == union_ns(record.edges), (
                f"{where}: stored wait {record.wait_ns} != edge union "
                f"{union_ns(record.edges)}"
            )
            assert record.wait_ns + record.service_ns == latency, (
                f"{where}: wait {record.wait_ns} + service "
                f"{record.service_ns} != latency {latency}"
            )
            for edge in record.edges:
                assert (
                    record.start_ns <= edge.start_ns < edge.end_ns <= record.end_ns
                ), f"{where}: edge {edge} escapes [{record.start_ns}, {record.end_ns}]"
            if record.phases:
                tiled = sum(end - start for _name, start, end in record.phases)
                assert tiled == latency, (
                    f"{where}: phases tile {tiled} ns != latency {latency}"
                )
            checked += 1
    return checked


# ----------------------------------------------------------------------
# Text report
# ----------------------------------------------------------------------
def blame_table(report: BlameReport, top_resources: int = 12) -> str:
    """The blame report: per-group tail attribution + SLO attainment."""
    lines: List[str] = []
    lines.append("Blame: tail-latency wait-for attribution")
    lines.append("=" * 40)
    lines.append(
        f"  I/Os observed: {report.observed}"
        f"    outliers kept: top {report.top} per (device, op)"
    )
    if not report.observed:
        lines.append("  (no I/Os observed)")
        return "\n".join(lines)
    for (device, op), records in report.groups():
        digest = report.group_digest(device, op)
        lines.append("")
        lines.append(f"{device} / {op}  ({digest.count} I/Os)")
        lines.append(
            "  latency: "
            + "  ".join(
                f"{name} {format_ns(digest.quantile(q))}"
                for name, q in (
                    ("p50", 0.50),
                    ("p99", 0.99),
                    ("p99.9", 0.999),
                )
            )
            + f"  max {format_ns(digest.max or 0.0)}"
        )
        shares = report.tail_blame(device, op)
        if shares:
            resource, holder, share = shares[0]
            lines.append(
                f"  p99.9 is {share * 100.0:.1f}% {resource} (held by {holder})"
            )
            lines.append(f"  captured tail blame ({len(records)} outliers):")
            service = 1.0 - sum(s for _r, _h, s in shares)
            for resource, holder, share in shares:
                lines.append(
                    f"    {share * 100.0:5.1f}%  wait     {resource} <- {holder}"
                )
            lines.append(f"    {service * 100.0:5.1f}%  service")
        else:
            lines.append("  (no wait edges recorded for this group)")
        worst = records[0]
        lines.append(
            f"  slowest: io {worst.io_id} {format_ns(worst.latency_ns)}"
            f" (wait {format_ns(worst.wait_ns)}"
            f" = {worst.wait_ns / worst.latency_ns * 100.0:.1f}%)"
            if worst.latency_ns
            else f"  slowest: io {worst.io_id} 0ns"
        )
    totals = report.resource_totals()
    if totals:
        lines.append("")
        lines.append("wait time by resource (all I/Os)")
        lines.append(f"  {'resource':<24}{'holder':<20}{'total':>10}{'edges':>8}")
        for resource, holder, total, count in totals[:top_resources]:
            lines.append(
                f"  {resource:<24}{holder:<20}{format_ns(total):>10}{count:>8}"
            )
        if len(totals) > top_resources:
            lines.append(f"  ... and {len(totals) - top_resources} more")
    rows = report.slo_rows()
    if rows:
        lines.append("")
        lines.append("SLO attainment")
        for row in rows:
            verdict = "MET" if row["met"] else "MISSED"
            lines.append(
                f"  {row['label']:<28} {row['checked'] - row['misses']}/"
                f"{row['checked']} ok  attainment {row['attainment'] * 100.0:.3f}%"
                f"  ({verdict}; peak burn {row['peak_burn']:.1f}x)"
            )
    return "\n".join(lines)
