"""Terminal rendering of the paper's figures.

The paper's evaluation is communicated through time-series plots
(Figures 4-6).  This renderer draws the same series as ASCII so the
experiment drivers can *show* the figures in a terminal / CI log instead
of only printing tables.

Example::

    print(render_pair(result.pair, title="Figure 4b"))
"""

from __future__ import annotations

from typing import List

from repro._numpy import np

#: The plot area, in characters, and the width of the y-axis ticks.
WIDTH, HEIGHT, TICK_WIDTH = 70, 12, 10


class ChartError(ValueError):
    """Raised for malformed chart input."""


def render_pair(pair, title: str = "") -> str:
    """Chart a :class:`~repro.experiments.scenarios.SeriesPair`: generated
    (``-``) and measured (``*``) KB/s against time, anchored at zero like
    the paper's figures."""
    times = np.asarray(pair.times, dtype=float)
    series = [
        ("generated", "-", np.asarray(pair.generated_kbps, dtype=float)),
        ("measured", "*", np.asarray(pair.measured_kbps, dtype=float)),
    ]
    if times.size == 0:
        raise ChartError(f"series pair {pair.label!r} is empty")
    t_min, t_max = times.min(), times.max()
    v_max = max(values.max() for _, _, values in series)
    if v_max <= 0.0:
        v_max = 1.0
    t_span = (t_max - t_min) or 1.0

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    cols = ((times - t_min) / t_span * (WIDTH - 1)).round().astype(int)
    for _, marker, values in series:
        rows = (values / v_max * (HEIGHT - 1)).round().astype(int)
        for col, row in zip(cols, rows):
            row = HEIGHT - 1 - min(max(row, 0), HEIGHT - 1)
            grid[row][min(max(col, 0), WIDTH - 1)] = marker

    lines: List[str] = [title] if title else []
    lines.append("[KB/s]")
    for i, row in enumerate(grid):
        # Y-axis tick on the top, middle and bottom rows.
        if i == 0:
            tick = f"{v_max:>{TICK_WIDTH}.1f}"
        elif i == HEIGHT - 1:
            tick = f"{0.0:>{TICK_WIDTH}.1f}"
        elif i == HEIGHT // 2:
            tick = f"{v_max / 2:>{TICK_WIDTH}.1f}"
        else:
            tick = " " * TICK_WIDTH
        lines.append(f"{tick} |{''.join(row)}")
    lines.append(f"{' ' * TICK_WIDTH} +{'-' * WIDTH}")
    left, right = f"{t_min:.0f}", f"{t_max:.0f}"
    pad = WIDTH - len(left) - len(right)
    lines.append(f"{' ' * TICK_WIDTH}  {left}{' ' * max(pad, 1)}{right}  time (s)")
    legend = "   ".join(f"{marker} {label}" for label, marker, _ in series)
    lines.append(f"{' ' * TICK_WIDTH}  {legend}")
    return "\n".join(lines)
