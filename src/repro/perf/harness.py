"""Wall-clock self-profiling and the perf-regression harness.

The simulator is the product here, so its *throughput* — simulated
events executed per wall-clock second — is a first-class output next to
the figures themselves.  :class:`PerfSession` times each benchmark
figure (wall seconds, sim events, sweep-engine cache state) and
aggregates the records into a ``BENCH_<date>.json`` document; `compare
<compare_docs>` diffs two documents and flags figures whose wall time
regressed past a configurable threshold, which is what the CI
``perf-smoke`` job and ``python -m repro perf --compare`` gate on.

Cache state matters when comparing: a warm-cache run executes zero
simulations and its wall time says nothing about simulator throughput,
so comparisons only gate figures whose cache states match.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, Dict, List, Optional, Tuple, Union

from repro.obs.export import atomic_write_text

#: Bump when the document layout changes incompatibly.
SCHEMA = 1

#: Default slowdown gate: new wall time > (1 + threshold) x old fails.
DEFAULT_THRESHOLD = 0.30


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class BenchRecord:
    """One figure's timing: what ran, how long, and out of which cache."""

    figure_id: str
    wall_s: float
    sim_events: int
    points: int = 0
    executed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    #: Optional per-figure hotspot rows from the self-profiler
    #: (``repro.obs.prof.bench_hotspots``): ({"site", "events", "share"}, ...).
    hotspots: Tuple[dict, ...] = ()

    @property
    def events_per_s(self) -> float:
        return self.sim_events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cache(self) -> str:
        """``cold`` (all points simulated), ``warm`` (none), or ``mixed``."""
        if self.points == 0:
            return "none"
        if self.executed == 0:
            return "warm"
        if self.executed >= self.points:
            return "cold"
        return "mixed"

    def to_dict(self) -> dict:
        doc = {
            "figure_id": self.figure_id,
            "wall_s": round(self.wall_s, 4),
            "sim_events": self.sim_events,
            "events_per_s": round(self.events_per_s, 1),
            "points": self.points,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "cache": self.cache,
        }
        if self.hotspots:
            doc["hotspots"] = [dict(row) for row in self.hotspots]
        return doc

    @classmethod
    def from_dict(cls, row: dict) -> "BenchRecord":
        return cls(
            figure_id=row["figure_id"],
            wall_s=float(row["wall_s"]),
            sim_events=int(row.get("sim_events", 0)),
            points=int(row.get("points", 0)),
            executed=int(row.get("executed", 0)),
            memo_hits=int(row.get("memo_hits", 0)),
            disk_hits=int(row.get("disk_hits", 0)),
            hotspots=tuple(row.get("hotspots", ())),
        )


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class PerfSession:
    """Collects per-figure timing over a run of benchmark figures.

    Use either the :meth:`measure` context manager around each figure,
    or the lower-level :meth:`mark`/:meth:`lap` pair when the figure
    call happens elsewhere (the pytest benchmarks).  Repeated laps for
    the same figure accumulate.
    """

    def __init__(self, engine: Any = None) -> None:
        if engine is None:
            from repro.core import sweep

            engine = sweep.default_engine()
        self.engine = engine
        self.records: Dict[str, BenchRecord] = {}

    # -- low-level marks ------------------------------------------------
    def mark(self) -> Tuple[float, int, dict]:
        from repro.sim import engine as sim_engine

        return (
            time.perf_counter(),
            sim_engine.events_executed_total,
            self.engine.stats.snapshot(),
        )

    def lap(
        self, figure_id: str, mark: Tuple[float, int, dict]
    ) -> Tuple[float, int, dict]:
        """Close the window opened by ``mark`` and book it to ``figure_id``;
        returns a fresh mark for the next window."""
        now = self.mark()
        wall_s = now[0] - mark[0]
        sim_events = now[1] - mark[1]
        stats = {key: now[2][key] - mark[2][key] for key in now[2]}
        record = self.records.get(figure_id)
        if record is None:
            self.records[figure_id] = BenchRecord(
                figure_id=figure_id,
                wall_s=wall_s,
                sim_events=sim_events,
                points=stats.get("points", 0),
                executed=stats.get("executed", 0),
                memo_hits=stats.get("memo_hits", 0),
                disk_hits=stats.get("disk_hits", 0),
            )
        else:
            record.wall_s += wall_s
            record.sim_events += sim_events
            record.points += stats.get("points", 0)
            record.executed += stats.get("executed", 0)
            record.memo_hits += stats.get("memo_hits", 0)
            record.disk_hits += stats.get("disk_hits", 0)
        return now

    # -- context-manager form -------------------------------------------
    def measure(self, figure_id: str) -> "ContextManager[PerfSession]":
        session = self

        class _Measure:
            def __enter__(self) -> "PerfSession":
                self._mark = session.mark()
                return session

            def __exit__(self, *exc: object) -> bool:
                if exc[0] is None:
                    session.lap(figure_id, self._mark)
                return False

        return _Measure()

    # -- aggregation ----------------------------------------------------
    def to_doc(self, date: Optional[str] = None, **meta: Any) -> dict:
        return {
            "schema": SCHEMA,
            "date": date or time.strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "jobs": self.engine.jobs,
            **meta,
            "figures": {
                figure_id: record.to_dict()
                for figure_id, record in sorted(self.records.items())
            },
        }


def bench_filename(date: Optional[str] = None) -> str:
    return f"BENCH_{date or time.strftime('%Y%m%d')}.json"


def write_bench(doc: dict, path: Union[str, Path, None] = None) -> Path:
    """Write a bench document atomically; defaults to ``BENCH_<date>.json``
    in the current directory.  Returns the path written."""
    target = Path(path) if path is not None else Path(bench_filename())
    atomic_write_text(target, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return target


def load_bench(path: Union[str, Path]) -> dict:
    """Read a bench document.  A file that is not JSON, or not a bench
    document of this schema, raises ``ValueError`` naming ``path``; a
    missing or unreadable file raises ``OSError``."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON document ({exc})") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"{path}: unsupported bench schema {schema!r}")
    return doc


# ----------------------------------------------------------------------
# Comparison / gating
# ----------------------------------------------------------------------
@dataclass
class CompareRow:
    figure_id: str
    status: str  # ok | slower | faster | incomparable | added | removed
    old_wall_s: Optional[float] = None
    new_wall_s: Optional[float] = None
    old_events_per_s: Optional[float] = None
    new_events_per_s: Optional[float] = None
    note: str = ""
    #: ``component:callsite (share)`` of the new document's heaviest
    #: self-profiler site, when the bench was run with ``perf --profile``.
    top_hotspot: str = ""
    #: Same for the old document — lets the render show a hotspot
    #: *shift* when both benches were profiled.
    old_top_hotspot: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if not self.old_wall_s or self.new_wall_s is None:
            return None
        return self.new_wall_s / self.old_wall_s

    @property
    def events_delta(self) -> Optional[float]:
        """Fractional sim-events/s change (+0.10 = 10% more throughput)."""
        if not self.old_events_per_s or self.new_events_per_s is None:
            return None
        return self.new_events_per_s / self.old_events_per_s - 1.0


@dataclass
class Comparison:
    threshold: float
    rows: List[CompareRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[CompareRow]:
        return [row for row in self.rows if row.status == "slower"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        if not self.rows:
            return "(no figures in common)"
        lines = [
            f"{'figure':<22} {'old wall':>9} {'new wall':>9} {'ratio':>7} "
            f"{'old ev/s':>10} {'new ev/s':>10} {'ev/s %':>7}  status"
        ]
        for row in self.rows:
            old_w = f"{row.old_wall_s:.2f}s" if row.old_wall_s is not None else "-"
            new_w = f"{row.new_wall_s:.2f}s" if row.new_wall_s is not None else "-"
            ratio = f"{row.ratio:.2f}x" if row.ratio is not None else "-"
            old_e = (
                f"{row.old_events_per_s:,.0f}"
                if row.old_events_per_s is not None
                else "-"
            )
            new_e = (
                f"{row.new_events_per_s:,.0f}"
                if row.new_events_per_s is not None
                else "-"
            )
            delta = row.events_delta
            delta_s = f"{delta:+.0%}" if delta is not None else "-"
            status = row.status + (f" ({row.note})" if row.note else "")
            lines.append(
                f"{row.figure_id:<22} {old_w:>9} {new_w:>9} {ratio:>7} "
                f"{old_e:>10} {new_e:>10} {delta_s:>7}  {status}"
            )
        slower = len(self.regressions)
        lines.append(
            f"-- {slower} regression(s) past the "
            f"{self.threshold:.0%} slowdown threshold"
        )
        for row in self.rows:
            if not (row.top_hotspot or row.old_top_hotspot):
                continue
            if row.old_top_hotspot and row.old_top_hotspot != row.top_hotspot:
                lines.append(
                    f"-- {row.figure_id}: top hotspot "
                    f"{row.old_top_hotspot} -> {row.top_hotspot or '(none)'}"
                )
            else:
                lines.append(
                    f"-- {row.figure_id}: top hotspot {row.top_hotspot}"
                )
        return "\n".join(lines)


def _top_hotspot(row: Optional[dict]) -> str:
    """Render the heaviest profiler site of a bench row, or ``""``."""
    hotspots = (row or {}).get("hotspots") or ()
    if not hotspots:
        return ""
    top = hotspots[0]
    return f"{top.get('site', '?')} ({float(top.get('share', 0.0)):.0%} of events)"


def compare_docs(
    old_doc: dict, new_doc: dict, *, threshold: float = DEFAULT_THRESHOLD
) -> Comparison:
    """Diff two bench documents figure-by-figure.

    A figure gates (``slower``) only when it appears in both documents
    with the *same cache state* and its new wall time exceeds
    ``(1 + threshold)`` times the old; mismatched cache states are
    reported ``incomparable`` instead of producing a bogus verdict.
    """
    comparison = Comparison(threshold=threshold)
    old_figures = old_doc.get("figures", {})
    new_figures = new_doc.get("figures", {})
    for figure_id in sorted(set(old_figures) | set(new_figures)):
        old_row = old_figures.get(figure_id)
        new_row = new_figures.get(figure_id)
        if old_row is None:
            record = BenchRecord.from_dict(new_row)
            comparison.rows.append(
                CompareRow(
                    figure_id,
                    "added",
                    new_wall_s=record.wall_s,
                    new_events_per_s=record.events_per_s,
                    top_hotspot=_top_hotspot(new_row),
                )
            )
            continue
        if new_row is None:
            record = BenchRecord.from_dict(old_row)
            comparison.rows.append(
                CompareRow(
                    figure_id,
                    "removed",
                    old_wall_s=record.wall_s,
                    old_events_per_s=record.events_per_s,
                )
            )
            continue
        old_rec = BenchRecord.from_dict(old_row)
        new_rec = BenchRecord.from_dict(new_row)
        row = CompareRow(
            figure_id,
            "ok",
            old_wall_s=old_rec.wall_s,
            new_wall_s=new_rec.wall_s,
            old_events_per_s=old_rec.events_per_s,
            new_events_per_s=new_rec.events_per_s,
            top_hotspot=_top_hotspot(new_row),
            old_top_hotspot=_top_hotspot(old_row),
        )
        if old_rec.cache != new_rec.cache:
            row.status = "incomparable"
            row.note = f"cache {old_rec.cache} vs {new_rec.cache}"
        elif old_rec.wall_s > 0 and row.ratio > 1.0 + threshold:
            row.status = "slower"
            row.note = f"+{(row.ratio - 1.0):.0%}"
        elif old_rec.wall_s > 0 and row.ratio < 1.0 - threshold:
            row.status = "faster"
            row.note = f"-{(1.0 - row.ratio):.0%}"
        comparison.rows.append(row)
    return comparison
