"""The monitor's history: per watched path, its recent reports.

The monitor appends every :class:`~repro.core.report.PathReport` here;
experiments pull NumPy arrays out to draw the paper's figures and
compute the Table-2 statistics, and the CLI prints rows and windowed
aggregates from the same reports.

History is bounded: each append trims its path's reports older than
that report's time minus the horizon, so a run of any length holds at
most ``horizon / poll interval + 1`` reports a path.  The default
horizon outlasts the paper's longest run (Figure 4, 480 s), so every
figure is drawn from its whole run.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, List, Optional

from repro._numpy import np
from repro.core.report import PathReport

#: Seconds of reports each path keeps, counted back from its newest.
HISTORY_HORIZON_S = 600.0

_time = attrgetter("time")


class PathSeries:
    """The reports for one watched path, in time order."""

    def __init__(self, label: str, reports: List[PathReport]) -> None:
        self.label = label
        self.reports = reports
        #: Reports trimmed off the front past the history horizon.
        self.dropped = 0

    def append(self, report: PathReport) -> None:
        if self.reports and report.time < self.reports[-1].time:
            raise ValueError(
                f"out-of-order report for {self.label}: "
                f"{report.time} after {self.reports[-1].time}"
            )
        self.reports.append(report)

    def __len__(self) -> int:
        return len(self.reports)

    def times(self) -> np.ndarray:
        return np.array([r.time for r in self.reports], dtype=np.float64)

    def used(self) -> np.ndarray:
        """Used bandwidth in bytes/second (Figures 4b, 5c-d, 6d-e)."""
        return np.array([r.used_bps for r in self.reports], dtype=np.float64)

    def available(self) -> np.ndarray:
        return np.array([r.available_bps for r in self.reports], dtype=np.float64)

    def between(self, t_start: float, t_end: float) -> "PathSeries":
        """The reports with t_start <= time < t_end."""
        lo = bisect_left(self.reports, t_start, key=_time)
        hi = bisect_left(self.reports, t_end, key=_time)
        return PathSeries(self.label, self.reports[lo:hi])

    def latest(self) -> Optional[PathReport]:
        return self.reports[-1] if self.reports else None


class MeasurementHistory:
    """Per-path series, keyed by the watch label, each kept to the last
    ``retention_s`` seconds before its newest report."""

    def __init__(self, retention_s: float = HISTORY_HORIZON_S) -> None:
        self.retention_s = retention_s
        self._series: Dict[str, PathSeries] = {}

    def append(self, report: PathReport) -> None:
        series = self._series.get(report.label)
        if series is None:
            series = self._series[report.label] = PathSeries(report.label, [])
        series.append(report)
        reports = series.reports
        floor = report.time - self.retention_s
        if reports[0].time < floor:
            cut = bisect_left(reports, floor, key=_time)
            del reports[:cut]
            series.dropped += cut

    def series(self, label: str) -> PathSeries:
        try:
            return self._series[label]
        except KeyError:
            raise KeyError(f"no measurements recorded for path {label!r}") from None

    def labels(self) -> List[str]:
        return sorted(self._series)

    def __contains__(self, label: str) -> bool:
        return label in self._series

    def __len__(self) -> int:
        return len(self._series)

    @property
    def reports_held(self) -> int:
        """Reports held across all paths."""
        return sum(len(s) for s in self._series.values())

    @property
    def reports_dropped(self) -> int:
        """Reports trimmed past the horizon across all paths."""
        return sum(s.dropped for s in self._series.values())
