"""Tests for the metrics registry: counters, gauges, histograms."""

import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    TailDigest,
    metrics_to_csv,
)


def histogram(name="lat", unit=""):
    return MetricsRegistry().histogram(name, unit=unit)


class TestCounter:
    def test_inc(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_time_weighted_mean(self):
        gauge = Gauge("qd", unit="cmds")
        gauge.set(2, 0)
        gauge.set(4, 100)  # level 2 held for 100 ns
        gauge.set(0, 300)  # level 4 held for 200 ns
        # area = 2*100 + 4*200 = 1000 over 300 ns
        assert gauge.time_mean(300) == pytest.approx(1000 / 300)
        assert gauge.max_value == 4

    def test_add_tracks_level(self):
        gauge = Gauge("qd")
        gauge.add(1, 0)
        gauge.add(1, 10)
        gauge.add(-2, 20)
        assert gauge.value == 0
        assert gauge.max_value == 2

    def test_backwards_clock_is_safe(self):
        # A fresh simulator restarts the clock at zero; the gauge keeps
        # its level and simply accrues no area for the jump.
        gauge = Gauge("qd")
        gauge.set(3, 1000)
        gauge.set(5, 10)
        assert gauge.value == 5

    def test_mean_extends_to_now(self):
        gauge = Gauge("qd")
        gauge.set(2, 0)
        assert gauge.time_mean(50) == pytest.approx(2.0)


class TestHistogram:
    def test_stats(self):
        lat = histogram(unit="us")
        assert isinstance(lat, TailDigest)
        assert (lat.name, lat.unit, lat.kind) == ("lat", "us", "histogram")
        for value in (1.0, 2.0, 4.0, 8.0):
            lat.observe(value)
        assert lat.count == 4
        assert lat.mean == pytest.approx(3.75)
        assert lat.min == 1.0 and lat.max == 8.0

    def test_quantiles_land_in_covering_bucket(self):
        lat = histogram()
        for _ in range(99):
            lat.observe(10.0)
        lat.observe(1000.0)
        p50 = lat.quantile(0.50)
        assert 8.0 <= p50 <= 16.0  # 10.0 lives in the (8, 16] bucket
        p999 = lat.quantile(0.999)
        assert p999 > 100.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            histogram().quantile(1.5)

    def test_int_extremes_stay_ints(self):
        # The metrics CSV prints extremes with str(): integer samples
        # (GC durations in ns) must not turn into "123.0".
        registry = MetricsRegistry()
        duration = registry.histogram("gc", unit="ns")
        duration.observe(123)
        duration.observe(4567)
        assert ",123,4567," in metrics_to_csv(registry)

    def test_absorb_merges_histograms(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("lat", unit="us").observe(10.0)
        for value in (20.0, 400.0):
            worker.histogram("lat", unit="us").observe(value)
        parent.absorb(worker)
        merged = parent.histogram("lat")
        assert (merged.count, merged.min, merged.max) == (3, 10.0, 400.0)
        assert merged.total == pytest.approx(430.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("a.b", help="first")
        second = registry.counter("a.b")
        assert first is second
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(TypeError):
            registry.gauge("a.b")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", unit="B").inc(7)
        registry.gauge("g").set(3, 100)
        registry.histogram("h").observe(2.0)
        rows = {row["name"]: row for row in registry.snapshot(200)}
        assert rows["c"]["value"] == 7 and rows["c"]["unit"] == "B"
        assert rows["g"]["max"] == 3
        assert rows["h"]["count"] == 1 and rows["h"]["p50"] > 0

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        registry.counter("x")
        assert "x" in registry and "y" not in registry
        assert registry.get("x").kind == "counter"


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        counter = NULL_REGISTRY.counter("anything")
        gauge = NULL_REGISTRY.gauge("else")
        assert counter is gauge  # one shared instance
        counter.inc()
        gauge.set(9, 1)
        gauge.observe(3.0)
        assert counter.value == 0
        assert NULL_REGISTRY.snapshot() == []
        assert len(NULL_REGISTRY) == 0
        assert not NULL_REGISTRY.enabled
