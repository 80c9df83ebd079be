"""Unit tests for time series and windowed counters."""

import pytest

from repro.metrics.timeseries import TimeSeries


class TestTimeSeries:
    def test_append_and_len(self):
        series = TimeSeries("x")
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert len(series) == 2
        assert series.items() == [(1.0, 10.0), (2.0, 20.0)]

    def test_rejects_time_regression(self):
        series = TimeSeries()
        series.append(2.0, 1.0)
        with pytest.raises(ValueError):
            series.append(1.0, 1.0)

    def test_equal_timestamps_allowed(self):
        series = TimeSeries()
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2

    def test_values_in_half_open_window(self):
        series = TimeSeries()
        for t in (1.0, 2.0, 3.0):
            series.append(t, t * 10.0)
        assert series.values_in(1.0, 3.0) == [10.0, 20.0]
        assert series.values_in(4.0, 9.0) == []


class TestPercentiles:
    def build(self):
        series = TimeSeries("latency")
        for t, v in enumerate((40.0, 10.0, 30.0, 20.0, 50.0)):
            series.append(float(t), v)
        return series

    def test_percentile_in_nearest_rank(self):
        series = self.build()
        assert series.percentile_in(0.0, 10.0, 0.5) == 30.0
        assert series.percentile_in(0.0, 10.0, 0.0) == 10.0
        assert series.percentile_in(0.0, 10.0, 1.0) == 50.0

    def test_percentile_in_respects_window(self):
        series = self.build()
        # Only t in [1, 4) contributes: values 10, 30, 20.
        assert series.percentile_in(1.0, 4.0, 0.99) == 30.0

    def test_percentile_in_empty_window_is_none(self):
        assert self.build().percentile_in(100.0, 200.0, 0.5) is None

    def test_percentile_in_validates_q(self):
        with pytest.raises(ValueError):
            self.build().percentile_in(0.0, 10.0, 1.5)

    def test_percentile_in_open_ended_windows(self):
        """Infinite bounds make a window open at that end."""
        series = self.build()
        assert series.percentile_in(2.0, float("inf"), 0.5) == 30.0
        assert series.percentile_in(float("-inf"), 2.0, 0.5) == 10.0
