"""Edge-case tests for the HTML report builders (repro.obs.html).

The report builders are pure functions of recorder content and must
render valid, self-contained HTML for every degenerate input: series
with no samples, single-sample series, blame sections with nothing
captured.  A report that divides by a sample count or a value range
breaks here first.
"""

from repro.obs import (
    BlameReport,
    IoTrace,
    SloSpec,
    SpanTracer,
    Telemetry,
    TimeSeries,
    blame_report_html,
    blame_section_html,
    telemetry_report_html,
    write_blame_html,
    write_telemetry_html,
)
from repro.obs.html import _chart_card


def _document_checks(html):
    assert html.startswith("<!DOCTYPE html>")
    assert html.count("<html") == html.count("</html>") == 1
    assert "NaN" not in html
    # Self-contained: no external fetches.
    assert "http://" not in html and "https://" not in html
    assert "<script src" not in html and "<link" not in html


class TestTelemetryEdgeCases:
    def test_series_with_no_samples_renders(self):
        telemetry = Telemetry()
        telemetry.scope.new_sim()
        telemetry.series("q.depth", "level", "ios")  # created, never fed
        html = telemetry_report_html(telemetry)
        _document_checks(html)

    def test_single_sample_series_renders(self):
        telemetry = Telemetry()
        telemetry.scope.new_sim()
        series = telemetry.series("q.depth", "rate", "ios")
        series.add(5_000, 1)
        html = telemetry_report_html(telemetry)
        _document_checks(html)
        assert "q.depth" in html

    def test_single_sample_chart_card_has_svg(self):
        series = TimeSeries("one.sample", "rate", "ios")
        series.add(5_000, 3)
        card = _chart_card(series)
        assert "<svg" in card
        assert "NaN" not in card

    def test_empty_chart_card_does_not_divide_by_zero(self):
        card = _chart_card(TimeSeries("empty", "level", "ios"))
        assert "NaN" not in card

    def test_constant_zero_series_renders(self):
        telemetry = Telemetry()
        telemetry.scope.new_sim()
        series = telemetry.series("flat.zero", "level", "ios")
        series.record(0, 0.0)
        series.record(100_000, 0.0)
        html = telemetry_report_html(telemetry)
        _document_checks(html)

    def test_write_telemetry_html_empty(self, tmp_path):
        path = tmp_path / "report.html"
        write_telemetry_html(Telemetry(), str(path))
        text = path.read_text()
        assert "no telemetry series recorded" in text


class TestBlameSectionEdgeCases:
    def test_zero_outliers_renders_placeholder(self):
        section = blame_section_html(BlameReport.from_tracer(SpanTracer()))
        assert "no I/Os observed" in section
        assert "NaN" not in section

    def test_empty_report_is_valid_document(self, tmp_path):
        report = BlameReport.from_tracer(SpanTracer())
        html = blame_report_html(report)
        _document_checks(html)
        path = tmp_path / "blame.html"
        write_blame_html(report, str(path))
        assert path.read_text() == html

    def test_slos_without_traffic_render(self):
        report = BlameReport.from_tracer(
            SpanTracer(), slos=(SloSpec.parse("read:150us@0.999"),)
        )
        html = blame_report_html(report)
        _document_checks(html)
        assert "no I/Os observed" in html

    def test_report_with_one_outlier_renders(self):
        tracer = SpanTracer()
        tracer.scope.new_sim()
        tracer.scope.label_device("ull")
        trace = IoTrace(tracer, 0, "read", 0, 4096, 0, pid=1)
        trace.wait("ssd.die0", "gc", 0, 40)
        trace.finish(100)
        html = blame_report_html(BlameReport.from_tracer(tracer))
        _document_checks(html)
        assert "ssd.die0" in html and "gc" in html
