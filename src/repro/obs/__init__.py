"""repro.obs — cross-layer observability for the simulated I/O stack.

Six pieces:

* **Span tracing** (:mod:`repro.obs.tracer`): each I/O carries an
  :class:`IoTrace` context through kstack/nvme/ssd/spdk; top-level
  phases tile the request's lifetime exactly, nested spans carry
  concurrent detail, and background tracks record GC / flush activity.
* **Metrics** (:mod:`repro.obs.registry`): counters, time-weighted
  gauges, and log-bucketed histograms layers register into.
* **Telemetry** (:mod:`repro.obs.telemetry`): named time-series sampled
  on the sim clock (queue depths, busy fractions, buffer occupancy, GC
  and fault-recovery activity) with streaming tail digests.
* **Blame attribution** (:mod:`repro.obs.blame`): every layer that can
  make an I/O wait emits wait-for edges alongside its spans; a bounded
  top-K recorder keeps the slowest requests' full wait chains, rolls
  tail blame up by resource, and tracks SLO attainment + burn rate.
* **Self-profiling** (:mod:`repro.obs.prof`): where the *simulator
  itself* spends its events and wall time — hotspot attribution by
  layer/component/callsite, event-queue introspection, and
  collapsed-stack / speedscope flamegraph export.
* **Exporters & reports** (:mod:`repro.obs.export`,
  :mod:`repro.obs.html`, :mod:`repro.obs.anatomy`): Chrome
  ``trace_event`` JSON (open in Perfetto), text/CSV metric and
  telemetry dumps, a self-contained HTML timeline report, and the
  latency-anatomy breakdown.

Instrumentation is off by default (no-op tracer and registry); enable
it for any code that builds its own simulators with::

    from repro.obs import Observability, write_chrome_trace
    with Observability() as obs:
        result = run_figure("fig10")
    write_chrome_trace(obs.tracer, "fig10-trace.json")

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from repro.obs.anatomy import AnatomyReport, AnatomyRow, verify_conservation
from repro.obs.blame import (
    BlameConfig,
    BlameRecorder,
    OutlierRecord,
    SloSpec,
    blame_table,
    format_ns,
    parse_duration_ns,
    verify_blame_conservation,
)
from repro.obs.core import NULL_OBS, Observability, current_obs
from repro.obs.prof import (
    CallSite,
    Profiler,
    ProfilerConfig,
    hotspot_table,
    queue_report,
    to_collapsed,
    to_speedscope,
    write_collapsed,
    write_speedscope,
)
from repro.obs.export import (
    JSONL_SCHEMA,
    atomic_write_text,
    chrome_trace_events,
    metrics_to_csv,
    metrics_to_text,
    telemetry_counter_events,
    telemetry_to_csv,
    telemetry_to_text,
    to_chrome_trace,
    trace_jsonl_lines,
    trace_to_jsonl,
    write_chrome_trace,
    write_metrics_csv,
    write_telemetry_csv,
    write_trace_jsonl,
)
from repro.obs.html import (
    blame_report_html,
    blame_section_html,
    telemetry_report_html,
    write_blame_html,
    write_telemetry_html,
)
from repro.obs.scope import RunScope
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.telemetry import (
    NULL_SERIES,
    NULL_TELEMETRY,
    NullTelemetry,
    TailDigest,
    Telemetry,
    TelemetryConfig,
    TimeSeries,
)
from repro.obs.tracer import (
    NULL_TRACER,
    SPAN_ORDER,
    IoTrace,
    NullTracer,
    Span,
    SpanTracer,
    WaitEdge,
    sort_span_names,
)

__all__ = [
    "AnatomyReport",
    "AnatomyRow",
    "verify_conservation",
    "Observability",
    "current_obs",
    "NULL_OBS",
    "RunScope",
    "atomic_write_text",
    "chrome_trace_events",
    "telemetry_counter_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "metrics_to_text",
    "metrics_to_csv",
    "write_metrics_csv",
    "telemetry_to_csv",
    "telemetry_to_text",
    "write_telemetry_csv",
    "telemetry_report_html",
    "write_telemetry_html",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Span",
    "IoTrace",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "SPAN_ORDER",
    "sort_span_names",
    "TailDigest",
    "Telemetry",
    "TelemetryConfig",
    "TimeSeries",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "NULL_SERIES",
    "CallSite",
    "Profiler",
    "ProfilerConfig",
    "hotspot_table",
    "queue_report",
    "to_collapsed",
    "write_collapsed",
    "to_speedscope",
    "write_speedscope",
    "WaitEdge",
    "BlameConfig",
    "BlameRecorder",
    "OutlierRecord",
    "SloSpec",
    "blame_table",
    "format_ns",
    "parse_duration_ns",
    "verify_blame_conservation",
    "JSONL_SCHEMA",
    "trace_jsonl_lines",
    "trace_to_jsonl",
    "write_trace_jsonl",
    "blame_section_html",
    "blame_report_html",
    "write_blame_html",
]
