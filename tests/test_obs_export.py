"""Tests for the Chrome trace_event JSON and metrics exporters."""

import json

from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    chrome_trace_events,
    metrics_to_csv,
    metrics_to_text,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import _assign_lanes
from repro.ssd.device import IoOp


def make_tracer():
    tracer = SpanTracer()
    tracer.scope.new_sim()
    first = tracer.begin_io(IoOp.READ, 0, 4096, 1000)
    first.phase("submit", 1000)
    first.phase("ctrl", 1500)
    first.annotate("map_fetch", 1600, 1800, lpn=3)
    first.finish(3000)
    second = tracer.begin_io(IoOp.WRITE, 8192, 4096, 3500)
    second.phase("submit", 3500)
    second.finish(4000)
    tracer.span("die0", "gc", 2000, 9000, migrated_pages=12)
    return tracer


class TestLaneAssignment:
    def test_sequential_ios_share_lane_zero(self):
        tracer = make_tracer()
        lanes = _assign_lanes(tracer.finished_ios)
        assert lanes == {0: 0, 1: 0}

    def test_overlapping_ios_get_distinct_lanes(self):
        tracer = SpanTracer()
        tracer.scope.new_sim()
        a = tracer.begin_io(IoOp.READ, 0, 4096, 0)
        b = tracer.begin_io(IoOp.READ, 4096, 4096, 100)
        a.finish(1000)
        b.finish(900)
        lanes = _assign_lanes(tracer.finished_ios)
        assert lanes[a.io_id] != lanes[b.io_id]


class TestChromeTrace:
    def test_document_shape(self):
        document = to_chrome_trace(make_tracer())
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert document["displayTimeUnit"] == "ns"

    def test_events_schema(self):
        events = chrome_trace_events(make_tracer())
        assert events, "no events produced"
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["cat"] in ("io", "io.detail", "device")
                assert event["dur"] >= 0
                assert event["args"]["dur_ns"] >= 0

    def test_categories_cover_all_span_kinds(self):
        events = chrome_trace_events(make_tracer())
        cats = {event["cat"] for event in events if event["ph"] == "X"}
        assert cats == {"io", "io.detail", "device"}

    def test_timestamps_are_microseconds(self):
        events = chrome_trace_events(make_tracer())
        submit = next(
            e for e in events if e["ph"] == "X" and e["name"] == "submit"
        )
        assert submit["ts"] == 1.0  # 1000 ns
        assert submit["args"]["start_ns"] == 1000

    def test_metadata_names_processes_threads_and_tracks(self):
        events = chrome_trace_events(make_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        thread_labels = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert "die0" in thread_labels

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(make_tracer(), str(path))
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        by_name = {}
        for event in document["traceEvents"]:
            by_name.setdefault(event["name"], []).append(event)
        assert "submit" in by_name and "gc" in by_name
        assert by_name["gc"][0]["args"]["migrated_pages"] == 12


class TestMetricsDumps:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("reads", unit="B", help="bytes read").inc(4096)
        registry.gauge("qd", unit="cmds").set(3, 100)
        registry.histogram("lat", unit="us").observe(12.5)
        return registry

    def test_text_contains_every_instrument(self):
        text = metrics_to_text(self.make_registry(), 200)
        assert "reads" in text and "qd" in text and "lat" in text
        assert "4096" in text

    def test_text_empty_registry(self):
        assert "no metrics" in metrics_to_text(MetricsRegistry())

    def test_csv_schema(self):
        import csv
        import io

        rows = list(csv.DictReader(io.StringIO(metrics_to_csv(self.make_registry()))))
        assert [row["name"] for row in rows] == ["reads", "qd", "lat"]
        assert rows[0]["kind"] == "counter" and rows[0]["value"] == "4096"
        assert rows[2]["kind"] == "histogram" and rows[2]["count"] == "1"
