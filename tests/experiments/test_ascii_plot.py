"""Tests for the terminal chart renderer."""

import pytest

from repro.common import ConfigurationError
from repro.experiments import ascii_curves
from repro.experiments.ascii_plot import HEIGHT


class TestAsciiCurves:
    def test_contains_markers_and_legend(self):
        chart = ascii_curves({
            "A": ([0, 1, 2], [0.0, 0.5, 1.0]),
            "B": ([0, 1, 2], [1.0, 0.5, 0.0]),
        })
        assert "o=A" in chart
        assert "x=B" in chart
        assert "o" in chart.splitlines()[0] or "o" in chart

    def test_axis_annotations(self):
        chart = ascii_curves({"A": ([0, 10], [0.0, 1.0])})
        assert "1.000" in chart
        assert "0.000" in chart
        assert "10" in chart

    def test_extremes_at_grid_edges(self):
        chart = ascii_curves({"A": ([0, 1], [0.0, 1.0])})
        lines = chart.splitlines()
        assert "o" in lines[0]            # max value on the top row
        assert "o" in lines[HEIGHT - 1]   # min value on the bottom row

    def test_y_bounds_override(self):
        chart = ascii_curves({"A": ([0, 1], [0.4, 0.6])}, y_min=0.0)
        assert "0.600" in chart
        assert "0.000" in chart

    def test_values_outside_bounds_clamped(self):
        chart = ascii_curves({"A": ([0, 1], [-5.0, 5.0])}, y_min=0.0)
        lines = chart.splitlines()
        assert "o" in lines[HEIGHT - 1]   # -5 sits on the bottom row

    def test_constant_series_handled(self):
        chart = ascii_curves({"A": ([0, 1, 2], [0.5, 0.5, 0.5])})
        assert "o" in chart

    def test_single_point(self):
        chart = ascii_curves({"A": ([3], [0.7])})
        assert "o" in chart

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ascii_curves({})

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            ascii_curves({"A": ([0, 1], [0.5])})

    def test_rejects_too_many_series(self):
        series = {f"s{i}": ([0], [0.1]) for i in range(9)}
        with pytest.raises(ConfigurationError):
            ascii_curves(series)
