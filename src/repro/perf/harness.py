"""Per-figure timing records and the figure-by-figure document diff.

The simulator is the product here, so its *throughput* — simulated
events executed per wall-clock second — is a first-class output next to
the figures themselves.  :class:`PerfSession` times each figure the
benchmark suite (``benchmarks/suite``) regenerates (wall seconds, sim
events, sweep-engine cache state) and aggregates the records into a
bench document; `compare <compare_docs>` diffs two documents and flags
figures whose wall time regressed past a configurable threshold, which
is what ``python -m repro perf --compare A.json --against B.json``
prints.

Cache state matters when comparing: a warm-cache run executes zero
simulations and its wall time says nothing about simulator throughput,
so comparisons only gate figures that simulated something (``cold`` or
``mixed``) in both documents, with matching cache states.
"""

from __future__ import annotations

import contextlib
import json
import math
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.export import atomic_write_text

#: Bump when the document layout changes incompatibly.
SCHEMA = 1

#: Default slowdown gate: new wall time > (1 + threshold) x old fails.
DEFAULT_THRESHOLD = 0.30

#: Cache states whose wall time includes simulation, so can be gated.
_GATED = ("cold", "mixed")


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
        return {
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
        )


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class PerfSession:
    """Collects per-figure timing over a run of figures, one
    :meth:`measure` block per figure."""

    def __init__(self, engine: Any = None) -> None:
        if engine is None:
            from repro.core import sweep

            engine = sweep.default_engine()
        self.engine = engine
        self.records: Dict[str, BenchRecord] = {}

    @contextlib.contextmanager
    def measure(self, figure_id: str) -> Iterator["PerfSession"]:
        """Time the block and book it to ``figure_id``; a block that
        raises books nothing."""
        from repro.sim import engine as sim_engine

        stats = self.engine.stats.snapshot()
        events = sim_engine.events_executed_total
        started = time.perf_counter()
        yield self
        wall_s = time.perf_counter() - started
        events = sim_engine.events_executed_total - events
        delta = {
            key: value - stats[key]
            for key, value in self.engine.stats.snapshot().items()
        }
        self.records[figure_id] = BenchRecord(
            figure_id=figure_id,
            wall_s=wall_s,
            sim_events=events,
            points=delta["points"],
            executed=delta["executed"],
            memo_hits=delta["memo_hits"],
            disk_hits=delta["disk_hits"],
        )

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


def write_bench(doc: dict, path: Union[str, Path]) -> Path:
    """Write a bench document atomically; returns the path written."""
    target = Path(path)
    atomic_write_text(target, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return target


#: The numbers :func:`compare_docs` reads from a figure row; a row must
#: carry the first two, and may leave out the counts (read as 0).
_ROW_NUMBERS = ("wall_s", "sim_events")
_ROW_COUNTS = ("points", "executed", "memo_hits", "disk_hits")


def _row_fault(figure_id: str, row: Any) -> Optional[str]:
    """Why ``row`` cannot be compared as ``figure_id``'s, or ``None``."""
    if not isinstance(row, dict):
        return "is not a mapping"
    if row.get("figure_id") != figure_id:
        return f"is labelled {row.get('figure_id')!r}"
    for key in _ROW_NUMBERS + _ROW_COUNTS:
        if key in _ROW_COUNTS and key not in row:
            continue
        value = row.get(key)
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            return f"has no numeric {key}"
    return None


def load_bench(path: Union[str, Path]) -> dict:
    """Read a bench document and check the rows :func:`compare_docs`
    reads.  A file that is not UTF-8 JSON, or not a bench document of
    this schema, raises ``ValueError`` naming ``path``; a missing or
    unreadable file raises ``OSError``."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON document ({exc})") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"{path}: unsupported bench schema {schema!r}")
    figures = doc.get("figures")
    if not isinstance(figures, dict):
        raise ValueError(f"{path}: 'figures' is not a mapping")
    for figure_id, row in figures.items():
        fault = _row_fault(figure_id, row)
        if fault is not None:
            raise ValueError(f"{path}: figure {figure_id!r} {fault}")
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
        return "\n".join(lines)


def compare_docs(
    old_doc: dict, new_doc: dict, *, threshold: float = DEFAULT_THRESHOLD
) -> Comparison:
    """Diff two bench documents figure-by-figure.

    A figure gates (``slower``) only when it appears in both documents
    with the *same cache state*, that state is ``cold`` or ``mixed``, and
    its new wall time exceeds ``(1 + threshold)`` times the old;
    mismatched cache states are reported ``incomparable`` instead of
    producing a bogus verdict.  ``warm`` and ``none`` rows (no point
    simulated: a few milliseconds of noise at most) are reported with
    their times but never ``slower`` or ``faster``.
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
        )
        if old_rec.cache != new_rec.cache:
            row.status = "incomparable"
            row.note = f"cache {old_rec.cache} vs {new_rec.cache}"
        elif old_rec.cache not in _GATED:
            row.note = f"{old_rec.cache}, not gated"
        elif old_rec.wall_s > 0 and row.ratio > 1.0 + threshold:
            row.status = "slower"
            row.note = f"+{(row.ratio - 1.0):.0%}"
        elif old_rec.wall_s > 0 and row.ratio < 1.0 - threshold:
            row.status = "faster"
            row.note = f"-{(1.0 - row.ratio):.0%}"
        comparison.rows.append(row)
    return comparison
