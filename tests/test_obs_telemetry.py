"""Tests for time-series telemetry: digests, rings, determinism, exports."""

import math
import random

import pytest

from repro.core.runners import config_point
from repro.core.sweep import ExperimentSpec, SweepEngine
from repro.obs import (
    NULL_SERIES,
    Observability,
    TailDigest,
    Telemetry,
    TelemetryConfig,
    TimeSeries,
    atomic_write_text,
    chrome_trace_events,
    telemetry_counter_events,
    telemetry_report_html,
    telemetry_to_csv,
    telemetry_to_text,
    write_telemetry_csv,
)

#: Small-device overrides that force GC within ~2 ms of simulated time.
GC_OVERRIDES = (
    ("channels", 1),
    ("ways_per_channel", 2),
    ("blocks_per_die", 16),
    ("pages_per_block", 32),
    ("write_buffer_units", 32),
)


def gc_point(io_count=1500, key="gc", **extra):
    return config_point(
        "ull",
        "randwrite",
        io_count=io_count,
        config_overrides=GC_OVERRIDES,
        want_device=True,
        key=key,
        **extra,
    )


# ----------------------------------------------------------------------
# TailDigest
# ----------------------------------------------------------------------
class TestTailDigest:
    def test_quantiles_within_bucket_error(self):
        """Digest quantiles stay within the log2-bucket midpoint bound
        of the exact (same rank convention) quantile."""
        rng = random.Random(7)
        values = [rng.lognormvariate(3.0, 1.5) for _ in range(5000)]
        digest = TailDigest()
        for value in values:
            digest.observe(value)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.95, 0.99, 0.999):
            exact = ordered[max(0, math.ceil(q * len(values)) - 1)]
            estimate = digest.quantile(q)
            assert 0.75 <= estimate / exact <= 1.5, (q, estimate, exact)

    def test_zeros_have_their_own_bucket(self):
        digest = TailDigest()
        for _ in range(90):
            digest.observe(0.0)
        for _ in range(10):
            digest.observe(100.0)
        assert digest.quantile(0.5) == 0.0
        assert digest.quantile(0.99) > 50.0
        assert digest.count == 100

    def test_observe_many_equals_repeated_observe(self):
        bulk, slow = TailDigest(), TailDigest()
        bulk.observe_many(3.5, 1000)
        for _ in range(1000):
            slow.observe(3.5)
        assert bulk.to_dict() == slow.to_dict()

    def test_merge_is_exact(self):
        rng = random.Random(11)
        values = [rng.uniform(0, 50) for _ in range(400)]
        whole = TailDigest()
        left, right = TailDigest(), TailDigest()
        for index, value in enumerate(values):
            whole.observe(value)
            (left if index % 2 else right).observe(value)
        left.merge(right)
        merged, direct = left.to_dict(), whole.to_dict()
        # Summation order differs between the shard and direct paths, so
        # the mean may differ in the last ulp; everything else is exact.
        assert merged.pop("mean") == pytest.approx(direct.pop("mean"))
        assert merged == direct

    def test_mean_min_max_are_exact(self):
        digest = TailDigest()
        for value in (1.0, 2.0, 6.0):
            digest.observe(value)
        assert digest.mean == 3.0
        assert digest.min == 1.0
        assert digest.max == 6.0


# ----------------------------------------------------------------------
# TimeSeries semantics
# ----------------------------------------------------------------------
class TestTimeSeriesKinds:
    def test_level_is_time_weighted_mean(self):
        series = TimeSeries("q", "level", period_ns=100)
        series.record(0, 4.0)
        series.record(50, 0.0)
        series.record(100, 0.0)  # close bucket 0
        samples = dict(series.samples())
        assert samples[0] == 2.0  # 4.0 held half the period

    def test_rate_sums_per_bucket(self):
        series = TimeSeries("ev", "rate", period_ns=100)
        series.add(10, 3)
        series.add(90, 2)
        series.add(150, 1)
        assert dict(series.samples()) == {0: 5.0, 100: 1.0}

    def test_busy_fraction_with_scale(self):
        series = TimeSeries("die", "busy", period_ns=100, scale=2)
        series.add_interval(0, 150)
        samples = dict(series.samples())
        assert samples[0] == 0.5  # 100ns busy / (100ns * 2 dies)
        assert samples[100] == 0.25

    def test_busy_tolerates_out_of_order_intervals(self):
        series = TimeSeries("die", "busy", period_ns=100)
        series.add_interval(200, 300)
        series.add_interval(0, 100)
        assert dict(series.samples()) == {0: 1.0, 200: 1.0}

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            TimeSeries("x", "bogus")


class TestRingTruncation:
    def test_old_buckets_fold_into_digest(self):
        series = TimeSeries("ev", "rate", period_ns=10, capacity=8)
        for t in range(0, 1000, 10):
            series.add(t, 1)
        assert len(series) <= 8
        assert series.dropped == 100 - len(series)
        digest = series.digest()
        assert digest.count == 100  # every sample ever taken
        times = [t for t, _v in series.samples()]
        assert times == sorted(times)
        assert min(times) >= 990 - 8 * 10

    def test_long_idle_level_does_not_materialize_buckets(self):
        series = TimeSeries("q", "level", period_ns=10, capacity=16)
        series.record(0, 1.0)
        series.record(5_000_000, 0.0)  # 500k periods later
        assert len(series) <= 16 + 1
        assert series.digest().count >= 499_000

    def test_onset_survives_eviction(self):
        series = TimeSeries("gc", "rate", period_ns=10, capacity=4)
        series.add(25, 1)
        for t in range(1000, 2000, 10):
            series.add(t, 1)
        assert series.first_active_ns() == 20
        assert min(t for t, _v in series.samples()) >= 1000

    def test_onset_none_when_never_nonzero(self):
        series = TimeSeries("gc", "level", period_ns=10)
        series.record(0, 0.0)
        series.record(100, 0.0)
        assert series.first_active_ns() is None


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class TestTelemetryRecorder:
    def test_series_scoped_per_sim(self):
        telemetry = Telemetry()
        telemetry.scope.new_sim()
        first = telemetry.series("q", "level")
        telemetry.scope.new_sim()
        second = telemetry.series("q", "level")
        assert first is not second
        assert (first.pid, second.pid) == (1, 2)

    def test_kind_conflict_raises(self):
        telemetry = Telemetry()
        telemetry.scope.new_sim()
        telemetry.series("q", "level")
        with pytest.raises(TypeError):
            telemetry.series("q", "rate")

    def test_config_prefix_filter(self):
        telemetry = Telemetry(TelemetryConfig(series=("ssd.",)))
        telemetry.scope.new_sim()
        assert telemetry.series("ssd.dies.busy", "busy") is not NULL_SERIES
        assert telemetry.series("nvme.q0.sq", "level") is NULL_SERIES

    def test_absorb_rebases_pids(self):
        parent = Telemetry()
        parent.scope.new_sim()
        parent.series("q", "level").record(0, 1.0)
        worker = Telemetry()
        worker.scope.new_sim()
        worker.series("q", "level").record(0, 2.0)
        worker.scope.new_sim()
        worker.series("q", "level").record(0, 3.0)
        parent.absorb(worker, parent.scope.absorb(worker.scope))
        assert sorted(series.pid for series in parent) == [1, 2, 3]
        # The parent's own sim keeps its pid; the next one gets pid 4.
        assert (parent.scope.pid, parent.scope.sims) == (1, 3)

    def test_absorb_refuses_a_colliding_series(self):
        parent = Telemetry()
        workers = [Telemetry(), Telemetry()]
        for worker in workers:  # no sim attached: both record at pid 1
            worker.series("q", "level").record(0, 1.0)
        parent.absorb(workers[0], parent.scope.absorb(workers[0].scope))
        with pytest.raises(AssertionError, match="absorbed twice"):
            parent.absorb(workers[1], parent.scope.absorb(workers[1].scope))


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def toy_telemetry():
    telemetry = Telemetry(TelemetryConfig(period_ns=100))
    telemetry.scope.new_sim()
    queue = telemetry.series("q.depth", "level", unit="reqs")
    queue.record(0, 2.0)
    queue.record(150, 4.0)
    queue.record(400, 0.0)
    moved = telemetry.series("gc.moved", "rate", unit="pages")
    moved.add(120, 8)
    return telemetry


class TestExporters:
    def test_atomic_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert not list(target.parent.glob("*.tmp"))

    def test_csv_shape(self):
        text = telemetry_to_csv(toy_telemetry())
        lines = text.strip().splitlines()
        assert lines[0] == "pid,series,kind,unit,t_ns,value"
        assert any(line.startswith("1,q.depth,level,reqs,") for line in lines)
        # Samples are bucketed to period starts, not raw update times.
        assert "1,gc.moved,rate,pages,100,8" in lines

    def test_write_csv_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "telemetry.csv"
        write_telemetry_csv(toy_telemetry(), target)
        assert target.exists()

    def test_counter_events_in_chrome_trace(self):
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        tracer.scope.new_sim()
        telemetry = toy_telemetry()
        events = chrome_trace_events(tracer, telemetry)
        counters = [event for event in events if event["ph"] == "C"]
        assert counters == telemetry_counter_events(telemetry)
        assert {event["cat"] for event in counters} == {"telemetry"}
        assert all("value" in event["args"] for event in counters)
        # Disabled/absent telemetry contributes nothing.
        assert telemetry_counter_events(None) == []

    def test_text_summary_lists_series(self):
        text = telemetry_to_text(toy_telemetry())
        assert "q.depth" in text and "gc.moved" in text
        assert "(no telemetry series recorded)" == telemetry_to_text(Telemetry())

    def test_html_report_structure_and_determinism(self):
        telemetry = toy_telemetry()
        first = telemetry_report_html(telemetry)
        second = telemetry_report_html(telemetry)
        assert first == second  # pure function of content
        assert "<svg" in first and "viz-root" in first
        assert "Table view" in first
        assert "q.depth" in first
        assert "NaN" not in first

    def test_html_report_empty(self):
        text = telemetry_report_html(Telemetry())
        assert "no telemetry series recorded" in text


# ----------------------------------------------------------------------
# End-to-end: sampler determinism and GC onset
# ----------------------------------------------------------------------
class TestSamplerEndToEnd:
    def run_points(self, jobs):
        obs = Observability(telemetry=TelemetryConfig(period_ns=10_000))
        with obs:
            engine = SweepEngine(jobs=jobs)
            points = tuple(
                gc_point(io_count=300, key=("gc", qd), iodepth=qd,
                         engine="libaio")
                for qd in (1, 4)
            )
            engine.run(ExperimentSpec(name="telem-det", points=points))
        return obs.telemetry

    def test_parallel_telemetry_identical_to_serial(self):
        serial = self.run_points(jobs=1)
        parallel = self.run_points(jobs=4)
        assert telemetry_to_csv(serial) == telemetry_to_csv(parallel)
        assert telemetry_report_html(serial) == telemetry_report_html(parallel)

    def test_gc_onset_matches_first_gc_span(self):
        obs = Observability(telemetry=TelemetryConfig(period_ns=10_000))
        with obs:
            engine = SweepEngine(jobs=1)
            engine.run(ExperimentSpec(name="gc-onset", points=(gc_point(),)))
        telemetry = obs.telemetry
        gc_active = telemetry.get("ftl.gc.active")
        onset = gc_active.first_active_ns()
        assert onset is not None, "GC never engaged"
        gc_spans = [
            span for span in obs.tracer.track_spans if span.name == "gc"
        ]
        assert gc_spans, "no GC spans traced"
        first_span_start = min(span.start_ns for span in gc_spans)
        assert onset <= first_span_start < onset + gc_active.period_ns
        # Queue-depth and buffer series recorded alongside.
        assert telemetry.get("ssd.write_buffer.occupancy").samples()
        assert telemetry.get("nvme.q0.sq_occupancy").samples()
        assert telemetry.get("ssd.dies.busy").samples()
