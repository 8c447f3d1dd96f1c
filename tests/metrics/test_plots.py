"""Unit tests for the terminal plot helpers."""

import numpy as np

from repro.metrics.plots import ascii_cdf, ascii_heatmap, ascii_schedule, ascii_series


class TestAsciiCdf:
    def test_empty(self):
        assert ascii_cdf([]) == "(no samples)"

    def test_contains_marks_and_axis(self):
        plot = ascii_cdf([1.0, 2.0, 3.0], width=20, height=6, title="t")
        assert plot.startswith("t")
        assert "*" in plot
        assert "1" in plot and "3" in plot

    def test_single_value(self):
        plot = ascii_cdf([5.0], width=10, height=4)
        assert "*" in plot

    def test_dimensions(self):
        plot = ascii_cdf(np.random.default_rng(0).random(100), width=30, height=8)
        lines = plot.splitlines()
        assert len(lines) == 8 + 2  # rows + axis + labels


class TestAsciiSeries:
    def test_empty(self):
        assert ascii_series([]) == "(no points)"

    def test_monotone_series_renders(self):
        plot = ascii_series([(0, 0.0), (1, 1.0), (2, 2.0)], width=12, height=5)
        assert "*" in plot

    def test_constant_series(self):
        plot = ascii_series([(0, 1.0), (1, 1.0)], width=10, height=4)
        assert "*" in plot


class TestAsciiHeatmap:
    def test_empty(self):
        assert ascii_heatmap(np.empty((0, 0))) == "(empty heatmap)"

    def test_intensity_scale(self):
        plot = ascii_heatmap([[0.0, 10.0]], shades=" #")
        assert " #" in plot.splitlines()[0]

    def test_row_count(self):
        plot = ascii_heatmap(np.ones((3, 5)), title="hm")
        assert len(plot.splitlines()) == 3 + 2  # title + rows + scale


class TestAsciiSchedule:
    def points(self):
        # (finished, job, stage, index, msg_id, started): drawn at started
        return [
            (0.15, "j", "source", 0, 1, 0.1),
            (0.55, "j", "agg", 0, 2, 0.5),
            (0.95, "j", "sink", 0, 3, 0.9),
        ]

    def test_empty_range(self):
        assert ascii_schedule([], 0.0, 1.0) == "(no schedule points in range)"

    def test_rows_per_operator_with_stage_marks(self):
        plot = ascii_schedule(self.points(), 0.0, 1.0, width=20,
                              stage_order=["source", "agg", "sink"])
        lines = plot.splitlines()
        assert len(lines) == 4  # header + 3 operator rows
        assert "source[00]" in lines[1]
        assert "0" in lines[1]  # stage 0 mark
        assert "1" in lines[2]
        assert "2" in lines[3]

    def test_window_boundaries_drawn(self):
        plot = ascii_schedule(self.points(), 0.0, 1.0, width=20,
                              stage_order=["source", "agg", "sink"], window=0.5)
        assert "|" in plot

    def test_marks_at_the_start_instant(self):
        """A message is drawn where it started, not where it finished."""
        plot = ascii_schedule([(0.95, "j", "source", 0, 1, 0.15)], 0.0, 1.0,
                              width=10)
        assert plot.splitlines()[1][15:] == " 0        "

    def test_out_of_range_points_ignored(self):
        plot = ascii_schedule(self.points(), 0.0, 0.3, width=10,
                              stage_order=["source", "agg", "sink"])
        assert "agg" not in plot.splitlines()[0] or "agg[00]" not in plot
