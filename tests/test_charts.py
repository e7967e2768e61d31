"""Tests for the ASCII chart renderer."""

import numpy as np
import pytest

from repro.analysis.charts import HEIGHT, TICK_WIDTH, WIDTH, ChartError, render_pair
from repro.experiments.scenarios import SeriesPair


def pair_of(times, measured, generated=None):
    times = np.asarray(times, dtype=float)
    return SeriesPair(
        label="p",
        times=times,
        measured_kbps=np.asarray(measured, dtype=float),
        generated_kbps=np.asarray(
            np.zeros_like(times) if generated is None else generated, dtype=float
        ),
    )


def plot_rows(text):
    return [line for line in text.splitlines() if "|" in line]


class TestAsciiChart:
    def test_render_contains_axes_and_legend(self):
        text = render_pair(pair_of([0.0, 1.0, 2.0], [0.0, 5.0, 10.0]), title="t")
        assert "t" in text.splitlines()[0]
        assert "10.0" in text  # y max tick
        assert "0.0" in text  # y min tick
        assert "* measured" in text and "- generated" in text  # legend
        assert "time (s)" in text

    def test_markers_appear(self):
        text = render_pair(pair_of([0.0, 1.0, 2.0], [1.0, 5.0, 10.0]))
        assert text.count("*") >= 3 + 1  # three points + legend

    def test_peak_on_top_row(self):
        rows = plot_rows(render_pair(pair_of([0, 1, 2], [0, 0, 100])))
        assert len(rows) == HEIGHT
        assert "*" in rows[0]  # the 100 lands on the top row
        assert "-" in rows[-1]  # the generated zeros land on the bottom row

    def test_multiple_series_distinct_markers(self):
        text = render_pair(pair_of([0, 1], [1, 1], generated=[2, 2]))
        top, *below = plot_rows(text)
        assert "-" in top and "*" not in top
        assert any("*" in row for row in below)

    def test_flat_zero_series_renders(self):
        render_pair(pair_of([0, 1, 2], [0, 0, 0]))  # must not divide by zero

    def test_empty_series_rejected(self):
        with pytest.raises(ChartError):
            render_pair(pair_of([], []))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):  # the series pair refuses them
            pair_of([0, 1], [1], generated=[1, 1])

    def test_width_respected(self):
        text = render_pair(pair_of([0.0, 1.0, 2.0], [0.0, 5.0, 10.0]))
        assert all(len(row) <= TICK_WIDTH + 2 + WIDTH for row in plot_rows(text))


class TestRenderPair:
    def test_renders_generated_and_measured(self):
        pair = SeriesPair(
            label="p",
            times=np.array([0.0, 1.0, 2.0]),
            measured_kbps=np.array([0.0, 101.0, 99.0]),
            generated_kbps=np.array([0.0, 100.0, 100.0]),
        )
        text = render_pair(pair, title="demo")
        assert "demo" in text
        assert "generated" in text and "measured" in text
        assert "KB/s" in text
