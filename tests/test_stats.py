"""Tests for latency summaries and time series."""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats import Points, WindowedAverage, summarize


class TestLatencySummary:
    def test_mean_and_count(self):
        summary = summarize([1000, 2000, 3000])
        assert summary.count == 3
        assert summary.mean_ns == 2000

    def test_empty_summary_is_zeroes(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.mean_ns == 0.0
        assert summary.p99999_ns == 0.0

    def test_percentile_uses_observed_values(self):
        summary = summarize(range(1, 101))
        # 'higher' interpolation: an actually observed sample.
        for value in (summary.p50_ns, summary.p95_ns, summary.p99_ns):
            assert value in range(1, 101)
        assert summary.p99_ns == 100
        assert summary.max_ns == 100

    def test_five_nines_equals_max_for_small_samples(self):
        assert summarize([10] * 999 + [5000]).p99999_ns == 5000

    def test_unit_conversions(self):
        summary = summarize([12_600])
        assert summary.mean_us == pytest.approx(12.6)
        assert summary.p99999_us == pytest.approx(12.6)

    def test_str_mentions_count(self):
        assert "n=1" in str(summarize([1000]))

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
    def test_property_summary_ordering(self, samples):
        summary = summarize(samples)
        assert summary.min_ns <= summary.p50_ns <= summary.p99_ns
        assert summary.p99_ns <= summary.p99999_ns <= summary.max_ns
        tolerance = 1e-9 * max(1.0, summary.max_ns)
        assert summary.min_ns - tolerance <= summary.mean_ns <= summary.max_ns + tolerance


class TestTimeSeries:
    def test_records_and_windows(self):
        series = Points([0, 5, 12, 19], [10.0, 20.0, 30.0, 50.0])
        windowed = series.windowed(10)
        assert windowed.starts_ns == (0, 10)
        assert windowed.means == (15.0, 40.0)

    def test_time_must_be_monotonic(self):
        with pytest.raises(ValueError):
            Points([10, 5], [1.0, 2.0])
        with pytest.raises(ValueError):
            Points([0, 1], [1.0])

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
        series = Points([0, 5, 12], [3.8, 3.81, 3.96])
        assert len(series) == 3
        assert series.times.dtype == np.int64
        assert series.values.dtype == np.float64
        with pytest.raises(dataclasses.FrozenInstanceError):
            series.times = np.zeros(3, dtype=np.int64)

    def test_pickle_round_trip(self):
        series = Points([0, 5, 12, 12, 19, 31], [3.8, 3.81, 3.96, 3.8, 3.83, 3.8])
        roundtrip = pickle.loads(pickle.dumps(series, protocol=pickle.HIGHEST_PROTOCOL))
        assert roundtrip.times.tolist() == series.times.tolist()
        for window in (1, 7, 10, 100):
            assert roundtrip.windowed(window) == series.windowed(window)
        assert series.windowed(10).means == (3.8049999999999997, 3.8633333333333333, 3.8)
