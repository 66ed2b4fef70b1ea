"""Exporters: Chrome ``trace_event`` JSON and plain-text/CSV metrics.

The trace format is the JSON Object Format of the Trace Event spec
(``{"traceEvents": [...]}``) with complete ("X") events, loadable
directly in Perfetto / ``chrome://tracing``.  Timestamps are
microseconds (floats — the spec's unit), durations likewise; the
original integer nanoseconds are preserved in each event's ``args``.

Layout: each simulator run is a process (pid); I/O spans are packed
onto the fewest threads (lanes) such that top-level spans on one lane
never overlap — lane 0 is a busy timeline at QD1, and queue depth reads
directly off the number of occupied lanes.  Nested detail spans share
their I/O's lane (Perfetto stacks contained intervals).  Background
tracks (per-die GC, flush programs) get their own named threads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry, NullRegistry
    from repro.obs.telemetry import NullTelemetry, Telemetry
    from repro.obs.tracer import IoTrace, SpanTracer

    AnyTelemetry = Union[Telemetry, NullTelemetry]
    AnyRegistry = Union[MetricsRegistry, NullRegistry]

#: Thread-id base for background tracks, above any plausible lane count.
_TRACK_TID_BASE = 1000


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically, creating parent dirs.

    Every observability artifact goes through here: the temp file lands
    in the destination directory (same filesystem, so ``os.replace`` is
    atomic) and a crashed or interrupted run can never leave a partial
    trace/metrics/telemetry file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp files are 0600; restore the umask-governed default so
        # the artifact is readable like any plainly-written file.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def _assign_lanes(traces: "Iterable[IoTrace]") -> Dict[int, int]:
    """Pack I/O traces onto lanes; returns ``{io_id: lane}``.

    Greedy interval partitioning over ``(start, end)`` — deterministic
    given the deterministic span stream.
    """
    lanes_free_at: List[int] = []
    assignment: Dict[int, int] = {}
    for trace in sorted(traces, key=lambda t: (t.pid, t.start_ns, t.io_id)):
        for lane, free_at in enumerate(lanes_free_at):
            if free_at <= trace.start_ns:
                lanes_free_at[lane] = trace.end_ns
                assignment[trace.io_id] = lane
                break
        else:
            assignment[trace.io_id] = len(lanes_free_at)
            lanes_free_at.append(trace.end_ns)
    return assignment


def telemetry_counter_events(telemetry: "Optional[AnyTelemetry]") -> List[dict]:
    """Chrome counter ("C" phase) events for every telemetry sample.

    Each series becomes one counter track per pid; Perfetto renders the
    samples as a stepped area chart alongside the I/O spans, so queue
    ramps and GC onset line up visually with the spans that caused them.
    """
    events: List[dict] = []
    if telemetry is None:
        return events
    for series in telemetry:
        for t_ns, value in series.samples():
            events.append(
                {
                    "name": series.name,
                    "cat": "telemetry",
                    "ph": "C",
                    "ts": t_ns / 1000.0,
                    "pid": series.pid,
                    "tid": 0,
                    "args": {"value": round(value, 6)},
                }
            )
    return events


def chrome_trace_events(
    tracer: "SpanTracer", telemetry: "Optional[AnyTelemetry]" = None
) -> List[dict]:
    """The ``traceEvents`` list for ``tracer``'s finished spans.

    When a live ``telemetry`` recorder is passed, its samples are
    appended as counter events so one trace file carries both views.
    """
    events: List[dict] = []
    lanes = _assign_lanes(tracer.finished_ios)
    pids = set()
    lane_tids: set = set()
    for trace in tracer.finished_ios:
        tid = lanes[trace.io_id]
        pids.add(trace.pid)
        lane_tids.add((trace.pid, tid))
        for span in trace.spans():
            events.append(
                {
                    "name": span.name,
                    "cat": "io" if span.depth == 0 else "io.detail",
                    "ph": "X",
                    "ts": span.start_ns / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": trace.pid,
                    "tid": tid,
                    "args": {
                        "io_id": trace.io_id,
                        "op": trace.op,
                        "offset": trace.offset,
                        "nbytes": trace.nbytes,
                        "start_ns": span.start_ns,
                        "dur_ns": span.duration_ns,
                        **dict(span.args),
                    },
                }
            )
    track_tids: Dict[Tuple[int, str], int] = {}
    for span in tracer.track_spans:
        args = dict(span.args)
        pid = args.pop("pid", 1)
        pids.add(pid)
        key = (pid, span.track)
        if key not in track_tids:
            track_tids[key] = _TRACK_TID_BASE + len(track_tids)
        events.append(
            {
                "name": span.name,
                "cat": "device",
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": pid,
                "tid": track_tids[key],
                "args": {
                    "start_ns": span.start_ns,
                    "dur_ns": span.duration_ns,
                    **args,
                },
            }
        )
    metadata: List[dict] = []
    device_labels = tracer.scope.device_labels
    for pid in sorted(pids):
        label = device_labels.get(pid)
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": f"sim {pid} [{label}]" if label else f"sim {pid}"
                },
            }
        )
    for (pid, tid) in sorted(lane_tids):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"io lane {tid}"},
            }
        )
    for (pid, track), tid in sorted(track_tids.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return metadata + events + telemetry_counter_events(telemetry)


def to_chrome_trace(
    tracer: "SpanTracer", telemetry: "Optional[AnyTelemetry]" = None
) -> dict:
    """The full JSON-object-format document."""
    return {
        "traceEvents": chrome_trace_events(tracer, telemetry),
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(
    tracer: "SpanTracer", path: str, telemetry: "Optional[AnyTelemetry]" = None
) -> int:
    """Serialize to ``path``; returns the number of events written."""
    document = to_chrome_trace(tracer, telemetry)
    atomic_write_text(path, json.dumps(document))
    return len(document["traceEvents"])


# ----------------------------------------------------------------------
# JSONL structured events
# ----------------------------------------------------------------------
#: Schema version stamped on every JSONL line; bump on layout changes.
JSONL_SCHEMA = 1


def _jsonl(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_jsonl_lines(
    tracer: "SpanTracer", telemetry: "Optional[AnyTelemetry]" = None
) -> List[str]:
    """One JSON object per line: header, then per-I/O span/wait events.

    The greppable/jq-able counterpart of the Chrome trace: no viewer
    needed to ask "show me every wait on ssd.die3".  Line order and
    key order are deterministic (finished-I/O order, then background
    track spans, then telemetry samples), so serial and ``--jobs N``
    runs export byte-identical files.  Every line carries
    ``"schema": JSONL_SCHEMA`` and a ``"type"`` discriminator:
    ``header`` / ``io`` / ``span`` / ``wait`` / ``track_span`` /
    ``sample``.
    """
    lines: List[str] = []
    device_labels = tracer.scope.device_labels
    lines.append(
        _jsonl(
            {
                "schema": JSONL_SCHEMA,
                "type": "header",
                "producer": "repro.obs",
                "devices": {str(pid): label for pid, label in sorted(device_labels.items())},
                "ios": len(tracer.finished_ios),
                "track_spans": len(tracer.track_spans),
            }
        )
    )
    for trace in tracer.finished_ios:
        lines.append(
            _jsonl(
                {
                    "schema": JSONL_SCHEMA,
                    "type": "io",
                    "io_id": trace.io_id,
                    "pid": trace.pid,
                    "op": trace.op,
                    "offset": trace.offset,
                    "nbytes": trace.nbytes,
                    "start_ns": trace.start_ns,
                    "end_ns": trace.end_ns,
                    "latency_ns": trace.latency_ns,
                }
            )
        )
        for span in trace.spans():
            event = {
                "schema": JSONL_SCHEMA,
                "type": "span",
                "io_id": trace.io_id,
                "pid": trace.pid,
                "name": span.name,
                "cat": "phase" if span.depth == 0 else "detail",
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "dur_ns": span.duration_ns,
            }
            if span.args:
                event["args"] = dict(span.args)
            lines.append(_jsonl(event))
        for edge in trace.waits():
            lines.append(
                _jsonl(
                    {
                        "schema": JSONL_SCHEMA,
                        "type": "wait",
                        "io_id": trace.io_id,
                        "pid": trace.pid,
                        "resource": edge.resource,
                        "holder": edge.holder,
                        "start_ns": edge.start_ns,
                        "end_ns": edge.end_ns,
                        "dur_ns": edge.duration_ns,
                    }
                )
            )
    for span in tracer.track_spans:
        args = dict(span.args)
        pid = args.pop("pid", 1)
        event = {
            "schema": JSONL_SCHEMA,
            "type": "track_span",
            "track": span.track,
            "pid": pid,
            "name": span.name,
            "start_ns": span.start_ns,
            "end_ns": span.end_ns,
            "dur_ns": span.duration_ns,
        }
        if args:
            event["args"] = args
        lines.append(_jsonl(event))
    if telemetry is not None:
        for series in telemetry:
            for t_ns, value in series.samples():
                lines.append(
                    _jsonl(
                        {
                            "schema": JSONL_SCHEMA,
                            "type": "sample",
                            "pid": series.pid,
                            "series": series.name,
                            "kind": series.kind,
                            "t_ns": t_ns,
                            "value": round(value, 6),
                        }
                    )
                )
    return lines


def trace_to_jsonl(
    tracer: "SpanTracer", telemetry: "Optional[AnyTelemetry]" = None
) -> str:
    return "\n".join(trace_jsonl_lines(tracer, telemetry)) + "\n"


def write_trace_jsonl(
    tracer: "SpanTracer", path: str, telemetry: "Optional[AnyTelemetry]" = None
) -> int:
    """Serialize to ``path``; returns the number of lines written."""
    lines = trace_jsonl_lines(tracer, telemetry)
    atomic_write_text(path, "\n".join(lines) + "\n")
    return len(lines)


# ----------------------------------------------------------------------
# Metrics dumps
# ----------------------------------------------------------------------
def metrics_to_text(registry: "AnyRegistry", now_ns: Optional[int] = None) -> str:
    """Aligned human-readable table, one instrument per line."""
    rows = registry.snapshot(now_ns)
    if not rows:
        return "(no metrics registered)"
    lines: List[str] = []
    name_width = max(len(row["name"]) for row in rows)
    for row in rows:
        if row["kind"] == "counter":
            detail = f"{row['value']:>12}"
        elif row["kind"] == "gauge":
            detail = (
                f"{row['value']:>12.1f}  max={row['max']:.1f}  "
                f"mean={row['time_mean']:.2f}"
            )
        else:
            detail = (
                f"count={row['count']}  mean={row['mean']:.2f}  "
                f"p50={row['p50']:.2f}  p99={row['p99']:.2f}  "
                f"max={row['max']:.2f}"
            )
        unit = f" {row['unit']}" if row["unit"] else ""
        lines.append(
            f"{row['name'].ljust(name_width)}  {row['kind']:<9} {detail}{unit}"
        )
    return "\n".join(lines)


_CSV_FIELDS = (
    "name",
    "kind",
    "unit",
    "value",
    "count",
    "mean",
    "min",
    "max",
    "p50",
    "p99",
    "time_mean",
)


def metrics_to_csv(registry: "AnyRegistry", now_ns: Optional[int] = None) -> str:
    """Machine-readable dump: one row per instrument, fixed columns."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, restval="")
    writer.writeheader()
    for row in registry.snapshot(now_ns):
        writer.writerow({key: row.get(key, "") for key in _CSV_FIELDS})
    return buffer.getvalue()


def write_metrics_csv(
    registry: "AnyRegistry", path: str, now_ns: Optional[int] = None
) -> None:
    atomic_write_text(path, metrics_to_csv(registry, now_ns))


# ----------------------------------------------------------------------
# Telemetry dumps
# ----------------------------------------------------------------------
_TELEMETRY_CSV_FIELDS = ("pid", "series", "kind", "unit", "t_ns", "value")


def telemetry_to_csv(telemetry: "AnyTelemetry") -> str:
    """Long-format dump: one row per retained sample, (pid, series)-ordered.

    The row order and float formatting are deterministic, so serial and
    ``--jobs N`` sweep runs produce byte-identical files — the property
    the telemetry tests pin down.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_TELEMETRY_CSV_FIELDS)
    for series in telemetry:
        for t_ns, value in series.samples():
            writer.writerow(
                (
                    series.pid,
                    series.name,
                    series.kind,
                    series.unit,
                    t_ns,
                    f"{value:.6g}",
                )
            )
    return buffer.getvalue()


def write_telemetry_csv(telemetry: "AnyTelemetry", path: str) -> None:
    atomic_write_text(path, telemetry_to_csv(telemetry))


def telemetry_to_text(telemetry: "Telemetry") -> str:
    """Aligned digest summary, one series per line (all samples ever
    taken, including those evicted from the ring)."""
    rows: List[tuple] = []
    for series in telemetry:
        digest = series.digest()
        onset = series.first_active_ns()
        rows.append(
            (
                f"{series.pid}:{series.name}",
                series.kind,
                digest.count,
                digest.mean,
                digest.quantile(0.50),
                digest.quantile(0.99),
                digest.max if digest.max is not None else 0.0,
                series.dropped,
                "-" if onset is None else f"{onset / 1e6:.3f}ms",
                series.unit,
            )
        )
    if not rows:
        return "(no telemetry series recorded)"
    name_width = max(len(row[0]) for row in rows)
    lines = []
    device_labels = telemetry.scope.device_labels
    if device_labels:
        distinct = sorted(set(device_labels.values()))
        if len(distinct) == 1:
            lines.append(
                f"devices: {distinct[0]} ({len(device_labels)} sims)"
            )
        else:
            devices = ", ".join(
                f"{pid}:{label}"
                for pid, label in sorted(device_labels.items())
            )
            lines.append(f"devices: {devices}")
    for name, kind, count, mean, p50, p99, peak, dropped, onset, unit in rows:
        lines.append(
            f"{name.ljust(name_width)}  {kind:<5} n={count:<8} "
            f"mean={mean:<10.4g} p50={p50:<10.4g} p99={p99:<10.4g} "
            f"max={peak:<10.4g} dropped={dropped:<6} onset={onset:<10} {unit}"
        )
    return "\n".join(lines)
