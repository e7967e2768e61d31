"""Terminal rendering of the paper's figures.

The paper's evaluation is communicated through time-series plots
(Figures 4-6).  This renderer draws the same series as ASCII so the
experiment drivers can *show* the figures in a terminal / CI log instead
of only printing tables.

Example::

    chart = AsciiChart(title="Figure 4b", width=70, height=12)
    chart.add_series("measured", times, measured, marker="*")
    chart.add_series("generated", times, generated, marker="-")
    print(chart.render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


class ChartError(ValueError):
    """Raised for malformed chart input."""


@dataclass
class _Series:
    label: str
    times: np.ndarray
    values: np.ndarray
    marker: str


class AsciiChart:
    """A minimal multi-series scatter/step chart for monospaced output."""

    def __init__(
        self,
        title: str = "",
        width: int = 70,
        height: int = 14,
        y_label: str = "",
    ) -> None:
        if width < 20 or height < 4:
            raise ChartError("chart too small to be legible")
        self.title = title
        self.width = width
        self.height = height
        self.y_label = y_label
        self._series: List[_Series] = []

    def add_series(
        self,
        label: str,
        times: Sequence[float],
        values: Sequence[float],
        marker: str = "*",
    ) -> None:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.shape != values.shape:
            raise ChartError(f"series {label!r}: times and values disagree")
        if len(marker) != 1:
            raise ChartError("marker must be a single character")
        if times.size == 0:
            raise ChartError(f"series {label!r} is empty")
        self._series.append(_Series(label, times, values, marker))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        if not self._series:
            raise ChartError("no series to draw")
        t_min = min(s.times.min() for s in self._series)
        t_max = max(s.times.max() for s in self._series)
        v_min = 0.0  # bandwidth charts anchor at zero, like the paper's
        v_max = max(s.values.max() for s in self._series)
        if v_max <= v_min:
            v_max = v_min + 1.0
        t_span = (t_max - t_min) or 1.0

        grid = [[" "] * self.width for _ in range(self.height)]
        for series in self._series:
            cols = ((series.times - t_min) / t_span * (self.width - 1)).round()
            rows = (
                (series.values - v_min) / (v_max - v_min) * (self.height - 1)
            ).round()
            for col, row in zip(cols.astype(int), rows.astype(int)):
                row = self.height - 1 - min(max(row, 0), self.height - 1)
                grid[row][min(max(col, 0), self.width - 1)] = series.marker

        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        label_width = 10
        for i, row in enumerate(grid):
            # Y-axis tick on the top, middle and bottom rows.
            if i == 0:
                tick = f"{v_max:>{label_width}.1f}"
            elif i == self.height - 1:
                tick = f"{v_min:>{label_width}.1f}"
            elif i == self.height // 2:
                tick = f"{(v_max + v_min) / 2:>{label_width}.1f}"
            else:
                tick = " " * label_width
            lines.append(f"{tick} |{''.join(row)}")
        axis = "-" * self.width
        lines.append(f"{' ' * label_width} +{axis}")
        left = f"{t_min:.0f}"
        right = f"{t_max:.0f}"
        pad = self.width - len(left) - len(right)
        lines.append(f"{' ' * label_width}  {left}{' ' * max(pad, 1)}{right}  time (s)")
        legend = "   ".join(f"{s.marker} {s.label}" for s in self._series)
        lines.append(f"{' ' * label_width}  {legend}")
        if self.y_label:
            lines.insert(1 if self.title else 0, f"[{self.y_label}]")
        return "\n".join(lines)


def render_pair(pair, title: str = "", width: int = 70, height: int = 12) -> str:
    """Chart a :class:`~repro.experiments.scenarios.SeriesPair`."""
    chart = AsciiChart(title=title, width=width, height=height, y_label="KB/s")
    chart.add_series("generated", pair.times, pair.generated_kbps, marker="-")
    chart.add_series("measured", pair.times, pair.measured_kbps, marker="*")
    return chart.render()
