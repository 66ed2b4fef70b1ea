"""Tests for latency recording and time series."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats import LatencyRecorder, TimeSeries, WindowedAverage

#: A list-backed ``TimeSeries("power")`` of six points, pickled with
#: ``pickle.HIGHEST_PROTOCOL`` as sweep caches stored it before power
#: series became array-backed.
_LIST_BACKED_PICKLE = (
    b"\x80\x05\x95\x9d\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.stats.timeseries"
    b"\x94\x8c\nTimeSeries\x94\x93\x94)\x81\x94}\x94(\x8c\x04name\x94\x8c\x05power"
    b"\x94\x8c\x06_times\x94]\x94(K\x00K\x05K\x0cK\x0cK\x13K\x1fe\x8c\x07_values"
    b"\x94]\x94(G@\x0effffffG@\x0ez\xe1G\xae\x14{G@\x0f\xae\x14z\xe1G\xaeG@\x0eff"
    b"ffffG@\x0e\xa3\xd7\n=p\xa4G@\x0effffffeub."
)
_LIST_BACKED_POINTS = [
    (0, 3.8), (5, 3.81), (12, 3.96), (12, 3.8), (19, 3.83), (31, 3.8),
]


class TestLatencyRecorder:
    def test_mean_and_count(self):
        recorder = LatencyRecorder()
        recorder.extend([1000, 2000, 3000])
        assert len(recorder) == 3
        assert recorder.mean() == 2000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_empty_summary_is_zeroes(self):
        summary = LatencyRecorder().summary()
        assert summary.count == 0
        assert summary.mean_ns == 0.0

    def test_percentile_uses_observed_values(self):
        recorder = LatencyRecorder()
        recorder.extend(range(1, 101))
        # 'higher' interpolation: an actually observed sample.
        assert recorder.percentile(99) in range(1, 101)
        assert recorder.percentile(100) == 100

    def test_five_nines_equals_max_for_small_samples(self):
        recorder = LatencyRecorder()
        recorder.extend([10] * 999 + [5000])
        assert recorder.summary().p99999_ns == 5000

    def test_unit_conversions(self):
        recorder = LatencyRecorder()
        recorder.record(12_600)
        summary = recorder.summary()
        assert summary.mean_us == pytest.approx(12.6)
        assert summary.p99999_us == pytest.approx(12.6)

    def test_str_mentions_count(self):
        recorder = LatencyRecorder()
        recorder.record(1000)
        assert "n=1" in str(recorder.summary())

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
    def test_property_summary_ordering(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        summary = recorder.summary()
        assert summary.min_ns <= summary.p50_ns <= summary.p99_ns
        assert summary.p99_ns <= summary.p99999_ns <= summary.max_ns
        tolerance = 1e-9 * max(1.0, summary.max_ns)
        assert summary.min_ns - tolerance <= summary.mean_ns <= summary.max_ns + tolerance


class TestTimeSeries:
    def test_records_and_windows(self):
        series = TimeSeries()
        for t, v in [(0, 10.0), (5, 20.0), (12, 30.0), (19, 50.0)]:
            series.record(t, v)
        windowed = series.windowed(10)
        assert windowed.starts_ns == (0, 10)
        assert windowed.means == (15.0, 40.0)

    def test_time_must_be_monotonic(self):
        series = TimeSeries()
        series.record(10, 1.0)
        with pytest.raises(ValueError):
            series.record(5, 2.0)

    def test_empty_window(self):
        assert len(WindowedAverage.from_points([], [], 10)) == 0

    def test_empty_array_window(self):
        empty = np.array([], dtype=np.int64)
        assert len(WindowedAverage.from_points(empty, empty, 10)) == 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedAverage.from_points([0], [1.0], 0)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=1000),
    )
    def test_property_window_means_bounded_by_extremes(self, values, window):
        times = list(range(0, len(values) * 7, 7))
        windowed = WindowedAverage.from_points(times, values, window)
        assert min(windowed.means) >= min(values) - 1e-9
        assert max(windowed.means) <= max(values) + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=0, max_value=100),
            ),
            max_size=60,
        ),
        st.integers(min_value=1, max_value=200),
    )
    def test_property_array_input_windows_like_lists(self, steps, window):
        times = list(itertools.accumulate(step for step, _ in steps))
        values = [value for _, value in steps]
        from_lists = WindowedAverage.from_points(times, values, window)
        from_arrays = WindowedAverage.from_points(
            np.asarray(times, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            window,
        )
        assert from_arrays == from_lists

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=200),
    )
    def test_property_slices_match_per_window_masks(self, steps, window):
        # Each window's mean is taken over a contiguous slice; it must be
        # bit-identical to the mean over a boolean mask of the window.
        times = np.asarray(
            list(itertools.accumulate(step for step, _ in steps)), dtype=np.int64
        )
        values = np.asarray([value for _, value in steps], dtype=np.float64)
        buckets = times // window
        starts, means = [], []
        for bucket in np.unique(buckets):
            starts.append(int(bucket) * window)
            means.append(float(values[buckets == bucket].mean()))
        windowed = WindowedAverage.from_points(times, values, window)
        assert windowed.starts_ns == tuple(starts)
        assert windowed.means == tuple(means)

    def test_array_backed_series(self):
        times = [t for t, _ in _LIST_BACKED_POINTS]
        values = [v for _, v in _LIST_BACKED_POINTS]
        series = TimeSeries.from_arrays("power", times, values)
        assert len(series) == len(times)
        assert series.times.dtype == np.int64
        assert series.values.dtype == np.float64
        with pytest.raises(TypeError):
            series.record(40, 1.0)

    def test_list_backed_pickle_still_loads(self):
        """Sweep caches written with list-backed series stay readable."""
        old = pickle.loads(_LIST_BACKED_PICKLE)
        times = [t for t, _ in _LIST_BACKED_POINTS]
        values = [v for _, v in _LIST_BACKED_POINTS]
        assert old.name == "power"
        assert old.times.tolist() == times
        assert old.values.tolist() == values
        new = TimeSeries.from_arrays("power", times, values)
        for window in (1, 7, 10, 100):
            assert old.windowed(window) == new.windowed(window)
        assert old.windowed(10).means == (3.8049999999999997, 3.8633333333333333, 3.8)
        roundtrip = pickle.loads(pickle.dumps(new, protocol=pickle.HIGHEST_PROTOCOL))
        assert roundtrip.windowed(10) == new.windowed(10)
