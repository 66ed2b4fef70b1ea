"""Tests for the sparkline renderer of time-series figures."""

from repro.core.metrics import FigureResult, Series
from repro.core.report import render_sparkline, render_timeseries


class TestSparkline:
    def test_monotonic_series_renders_ramp(self):
        line = render_sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 8

    def test_flat_series(self):
        assert render_sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert render_sparkline([]) == ""

    def test_long_series_bucketed(self):
        line = render_sparkline(list(range(1000)), width=40)
        assert len(line) == 40
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_timeseries_contains_sparkline(self):
        figure = FigureResult(
            figure_id="fx",
            title="demo",
            x_label="t",
            y_label="v",
            series=(
                Series.from_points("lat", list(range(5)), [1, 1, 1, 9, 9], "us"),
            ),
        )
        text = render_timeseries(figure)
        assert "fx" in text and "lat" in text
        assert "█" in text and "▁" in text
        assert "9.00 us" in text
