"""The database layer: named series, retention policies, stats.

A :class:`TSDB` owns a family of same-schema series (one per watched
path, in the monitor's case).  A :class:`Retention` policy bounds each
series' raw storage: sealed chunks entirely older than ``max_age_s``
are dropped -- after being folded into a per-series
:class:`~repro.tsdb.downsample.DownsampledSeries` when a downsample
window is configured, so old history coarsens instead of vanishing.
Retention never touches the head chunk or a straddling chunk, so the
newest ``chunk_size`` samples are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.tsdb.chunk import Predictors
from repro.tsdb.downsample import DownsampledSeries, window_aggregate
from repro.tsdb.series import DEFAULT_CHUNK_SIZE, Series


class TsdbError(KeyError):
    """Raised for unknown series or fields."""


@dataclass(frozen=True)
class Retention:
    """How long raw samples live, and what survives them.

    ``max_age_s``: sealed chunks whose newest sample is older than
    ``now - max_age_s`` are dropped.  ``downsample_window_s``: when set,
    dropped chunks are first aggregated into windows of this many
    seconds (min/max/mean/last per field).
    """

    max_age_s: float
    downsample_window_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_age_s <= 0:
            raise ValueError(f"max_age_s must be positive, got {self.max_age_s!r}")
        if self.downsample_window_s is not None and self.downsample_window_s <= 0:
            raise ValueError(
                f"downsample_window_s must be positive, got {self.downsample_window_s!r}"
            )


@dataclass(frozen=True)
class SeriesStats:
    """Storage accounting for one series (or a whole database)."""

    series: int
    samples: int
    samples_dropped: int
    chunks: int
    head_samples: int
    nbytes: int
    raw_nbytes: int
    downsampled_windows: int

    @property
    def compression_ratio(self) -> float:
        """Raw float64 bytes per stored byte (higher is better)."""
        return self.raw_nbytes / self.nbytes if self.nbytes else float("nan")


class TSDB:
    """A family of same-schema compressed series with shared retention."""

    def __init__(
        self,
        fields: Sequence[str],
        retention: Optional[Retention] = None,
        predictors: "Predictors" = None,
    ) -> None:
        if not fields:
            raise ValueError("a TSDB needs at least one value field")
        self.fields: Tuple[str, ...] = tuple(fields)
        # Samples per sealed chunk of every series created from now on.
        self.chunk_size = DEFAULT_CHUNK_SIZE
        self.retention = retention
        self.predictors = predictors
        self._series: Dict[str, Series] = {}
        self._downsampled: Dict[str, DownsampledSeries] = {}

    # ------------------------------------------------------------------
    # Series management
    # ------------------------------------------------------------------
    def series(self, name: str) -> Series:
        """The named series, created on first use."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(
                name, self.fields, chunk_size=self.chunk_size,
                predictors=self.predictors,
            )
        return series

    def get(self, name: str) -> Series:
        """The named series; raises :class:`TsdbError` if absent."""
        try:
            return self._series[name]
        except KeyError:
            raise TsdbError(f"no series {name!r}") from None

    def labels(self) -> List[str]:
        """Series names in creation order."""
        return list(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, name: str, t: float, values: Sequence[float]) -> None:
        """Append one sample and enforce retention against clock ``t``."""
        self.series(name).append(t, values)
        if self.retention is not None:
            self.enforce_retention(now=t)

    def flush(self) -> None:
        """Seal every series' head chunk (storage audits, snapshots)."""
        for series in self._series.values():
            series.flush()

    def enforce_retention(self, now: float) -> int:
        """Drop (downsampling first, if configured) aged-out chunks.

        Returns the number of raw samples dropped.  Cheap when nothing
        is old enough: one float compare per series.
        """
        if self.retention is None:
            return 0
        horizon = now - self.retention.max_age_s
        window = self.retention.downsample_window_s
        dropped = 0
        for name, series in self._series.items():
            if not series.chunks or series.chunks[0].max_time >= horizon:
                continue
            for chunk in series.drop_chunks_before(horizon):
                dropped += chunk.count
                if window is not None:
                    down = self._downsampled.get(name)
                    if down is None:
                        down = self._downsampled[name] = DownsampledSeries(
                            self.fields, window
                        )
                    down.absorb(chunk, predictors=self.predictors)
        return dropped

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range(
        self,
        name: str,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
        fields: Optional[Sequence[str]] = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Range scan over raw (non-downsampled) samples."""
        return self.get(name).arrays(fields, t_start, t_end)

    def latest(self, name: str) -> Optional[Tuple[float, Tuple[float, ...]]]:
        return self.get(name).latest()

    def aggregate(
        self,
        name: str,
        field: str,
        window: float,
        agg: str = "mean",
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Windowed aggregate over the raw samples of one field."""
        times, values = self.get(name).arrays([field], t_start, t_end)
        return window_aggregate(times, values[field], window, agg)

    def downsampled(self, name: str) -> Optional[DownsampledSeries]:
        """The coarse history retention has preserved (None if none yet)."""
        return self._downsampled.get(name)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def series_stats(self, name: str) -> SeriesStats:
        series = self.get(name)
        down = self._downsampled.get(name)
        return SeriesStats(
            series=1,
            samples=len(series),
            samples_dropped=series.samples_dropped,
            chunks=len(series.chunks),
            head_samples=len(series.head),
            nbytes=series.nbytes + (down.nbytes if down else 0),
            raw_nbytes=series.raw_nbytes,
            downsampled_windows=len(down) if down else 0,
        )

    def stats(self) -> SeriesStats:
        """Whole-database storage accounting."""
        parts = [self.series_stats(name) for name in self._series]
        return SeriesStats(
            series=len(parts),
            samples=sum(p.samples for p in parts),
            samples_dropped=sum(p.samples_dropped for p in parts),
            chunks=sum(p.chunks for p in parts),
            head_samples=sum(p.head_samples for p in parts),
            nbytes=sum(p.nbytes for p in parts),
            raw_nbytes=sum(p.raw_nbytes for p in parts),
            downsampled_windows=sum(p.downsampled_windows for p in parts),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"<TSDB series={s.series} samples={s.samples} "
            f"{s.nbytes}B ({s.compression_ratio:.1f}x)>"
        )
