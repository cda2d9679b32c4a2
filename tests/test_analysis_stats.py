"""Tests for time-weighted occupancy tracking and percentile helpers."""

import math
from typing import Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import OccupancyTracker, percentile, tail_percentiles


def cdf_points(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted values and cumulative fractions for plotting a CDF."""
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return data, data
    fractions = np.arange(1, data.size + 1, dtype=np.float64) / data.size
    return data, fractions


class TestOccupancyTracker:
    def test_constant_signal(self):
        tracker = OccupancyTracker(0, initial=10)
        tracker.finish(100)
        assert tracker.time_weighted_mean() == 10
        assert tracker.time_weighted_percentile(50) == 10
        assert tracker.max_value == 10

    def test_two_level_signal_weighted_by_time(self):
        tracker = OccupancyTracker(0, initial=0)
        tracker.update(90, 100)   # 0 held for 90 ns
        tracker.finish(100)       # 100 held for 10 ns
        assert tracker.time_weighted_mean() == pytest.approx(10.0)
        assert tracker.time_weighted_percentile(50) == 0
        assert tracker.time_weighted_percentile(95) == 100
        assert tracker.max_value == 100

    def test_add_delta(self):
        tracker = OccupancyTracker(0)
        tracker.add(10, 500)
        tracker.add(20, -200)
        assert tracker.value == 300
        assert tracker.max_value == 500

    def test_zero_duration_updates_ignored_in_weighting(self):
        tracker = OccupancyTracker(0, initial=5)
        tracker.update(0, 50)     # instantaneous change
        tracker.finish(10)
        assert tracker.time_weighted_mean() == 50

    def test_summary_keys(self):
        tracker = OccupancyTracker(0)
        tracker.finish(10)
        summary = tracker.summary()
        assert set(summary) == {"mean", "p25", "p50", "p75", "max"}

    @given(st.lists(st.tuples(st.integers(1, 100), st.integers(0, 1000)),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_mean_within_range(self, steps):
        tracker = OccupancyTracker(0, initial=steps[0][1])
        now = 0
        values = [steps[0][1]]
        for hold, value in steps:
            now += hold
            tracker.update(now, value)
            values.append(value)
        tracker.finish(now + 1)
        mean = tracker.time_weighted_mean()
        assert min(values) <= mean <= max(values)
        assert tracker.max_value == max(values)


class TestPercentiles:
    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 99))

    def test_percentile_known_values(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == pytest.approx(50.5)
        assert percentile(data, 99) == pytest.approx(99.01)

    def test_tail_percentiles_keys(self):
        result = tail_percentiles([1.0, 2.0, 3.0])
        assert set(result) == {"p50", "p99", "p99.9", "p99.99", "p99.999"}

    def test_cdf_points_sorted_and_normalized(self):
        xs, fs = cdf_points([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert fs[-1] == 1.0
        assert np.all(np.diff(fs) > 0)

    def test_cdf_points_empty(self):
        xs, fs = cdf_points([])
        assert len(xs) == 0 and len(fs) == 0
