"""Time-series storage of path measurements, backed by :mod:`repro.tsdb`.

The monitor appends every :class:`~repro.core.report.PathReport` here;
experiments pull NumPy arrays out to draw the paper's figures and compute
the Table-2 statistics.

Since PR 3 the numeric columns of every series -- time, used/available/
capacity bandwidth, confidence and trust status -- live in an embedded
compressed time-series database (delta-of-delta timestamps, XOR float
values; see :mod:`repro.tsdb`).  Decoding is bit-exact, so the arrays
these classes return are identical to the ones the old Python-object
lists produced.  The full :class:`PathReport` objects (which carry the
per-connection measurements arrays cannot) are additionally retained in
``reports``; a retention policy prunes both representations together,
with aged-out chunks optionally downsampled instead of discarded.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.report import PathReport
from repro.tsdb import Retention, Series, SeriesStats, TSDB

#: Numeric columns extracted from every report, in storage order.
HISTORY_FIELDS = ("used_bps", "available_bps", "capacity_bps", "confidence", "status")

#: ``PathReport.status`` encoded as a float column.
STATUS_CODES = {"fresh": 0.0, "degraded": 1.0, "unavailable": 2.0}
STATUS_NAMES = {code: name for name, code in STATUS_CODES.items()}

#: On an uncongested single-bottleneck path ``available == capacity -
#: used`` holds bit-exactly for almost every report, so the available
#: column XOR-encodes against that prediction (a hit costs one bit; a
#: miss costs no more than the plain codec -- never lossy either way).
HISTORY_PREDICTORS = {
    "available_bps": lambda cols: cols["capacity_bps"] - cols["used_bps"],
}


def _report_row(report: PathReport) -> Tuple[float, ...]:
    return (
        report.used_bps,
        report.available_bps,
        report.capacity_bps,
        report.confidence,
        STATUS_CODES[report.status],
    )


class PathSeries:
    """All reports for one watched path, in time order.

    A thin view over one tsdb :class:`~repro.tsdb.Series`: appends write
    the numeric row into compressed storage and keep the full report
    object; array reads decode lazily and are cached until the next
    append.  ``between()`` returns a read-only
    window sharing no storage with the parent.
    """

    def __init__(self, label: str, series: Optional[Series] = None) -> None:
        self.label = label
        self._ts = series if series is not None else Series(
            label, HISTORY_FIELDS, predictors=HISTORY_PREDICTORS
        )
        self.reports: List[PathReport] = []
        self._latest: Optional[PathReport] = None
        self._cache: Optional[Tuple[np.ndarray, Dict[str, np.ndarray]]] = None
        self._window: Optional[Tuple[np.ndarray, Dict[str, np.ndarray]]] = None

    def append(self, report: PathReport) -> None:
        if self._window is not None:
            raise ValueError(
                f"series window for {self.label} is a read-only view"
            )
        last = self._ts.max_time
        if last is not None and report.time < last:
            raise ValueError(
                f"out-of-order report for {self.label}: "
                f"{report.time} after {last}"
            )
        self._ts.append(report.time, _report_row(report))
        self.reports.append(report)
        self._latest = report
        self._cache = None

    def __len__(self) -> int:
        if self._window is not None:
            return len(self._window[0])
        return len(self._ts)

    # ------------------------------------------------------------------
    # Array extraction (decoded from compressed chunks, cached)
    # ------------------------------------------------------------------
    def _arrays(self) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        if self._window is not None:
            return self._window
        if self._cache is None:
            self._cache = self._ts.arrays()
        return self._cache

    def times(self) -> np.ndarray:
        return self._arrays()[0]

    def used(self) -> np.ndarray:
        """Used bandwidth in bytes/second (Figures 4b, 5c-d, 6d-e)."""
        return self._arrays()[1]["used_bps"]

    def available(self) -> np.ndarray:
        return self._arrays()[1]["available_bps"]

    def column(self, field: str) -> np.ndarray:
        """Any stored numeric column (see :data:`HISTORY_FIELDS`)."""
        return self._arrays()[1][field]

    def series(
        self, extract: Callable[[PathReport], float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Custom extraction over the retained full report objects."""
        times = self.times()
        if len(self.reports) != len(times):
            raise ValueError(
                f"series({self.label}): custom extraction needs the full "
                f"report objects, but only {len(self.reports)} of "
                f"{len(times)} survived retention"
            )
        values = np.array([extract(r) for r in self.reports], dtype=float)
        return times, values

    def between(self, t_start: float, t_end: float) -> "PathSeries":
        """The sub-series with t_start <= time < t_end (read-only view)."""
        times, columns = self._arrays()
        lo = int(np.searchsorted(times, t_start, "left"))
        hi = int(np.searchsorted(times, t_end, "left"))
        out = PathSeries(self.label, series=self._ts)
        out._window = (
            times[lo:hi],
            {name: values[lo:hi] for name, values in columns.items()},
        )
        if self.reports:
            rlo = bisect_left(self.reports, t_start, key=lambda r: r.time)
            rhi = bisect_left(self.reports, t_end, key=lambda r: r.time)
            out.reports = self.reports[rlo:rhi]
            out._latest = out.reports[-1] if out.reports else None
        return out

    def latest(self) -> Optional[PathReport]:
        return self._latest

    # ------------------------------------------------------------------
    # Retention plumbing (driven by MeasurementHistory)
    # ------------------------------------------------------------------
    def _sync_pruned(self) -> None:
        """Trim retained reports to the tsdb's surviving time range."""
        floor = self._ts.min_time
        if floor is None:
            self.reports.clear()
        elif self.reports and self.reports[0].time < floor:
            cut = bisect_left(self.reports, floor, key=lambda r: r.time)
            del self.reports[:cut]
        self._cache = None


class MeasurementHistory:
    """Per-path series, keyed by the watch label, over one shared TSDB.

    ``retention_s`` bounds raw storage per series: compressed chunks
    entirely older than the newest sample minus ``retention_s`` are
    dropped (downsampled first into ``downsample_s``-second windows when
    given), and the retained report objects are pruned in lockstep.
    """

    def __init__(
        self,
        retention_s: Optional[float] = None,
        downsample_s: Optional[float] = None,
    ) -> None:
        retention = (
            Retention(retention_s, downsample_window_s=downsample_s)
            if retention_s is not None
            else None
        )
        self.db = TSDB(HISTORY_FIELDS, retention=retention, predictors=HISTORY_PREDICTORS)
        self._series: Dict[str, PathSeries] = {}

    def append(self, report: PathReport) -> None:
        series = self._series.get(report.label)
        if series is None:
            series = self._series[report.label] = PathSeries(
                report.label, series=self.db.series(report.label)
            )
        series.append(report)
        if self.db.retention is not None:
            if self.db.enforce_retention(now=report.time):
                for view in self._series.values():
                    view._sync_pruned()

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

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    @property
    def dropped_samples(self) -> int:
        """Raw samples retention has dropped across all series."""
        return self.db.stats().samples_dropped

    def storage_stats(self) -> SeriesStats:
        """Whole-history storage accounting (samples, bytes, ratio)."""
        return self.db.stats()
