"""One multi-field time series: sealed chunk list + open head chunk.

All fields of a series share the timestamp column -- a sample is
``(t, v_field1, v_field2, ...)`` -- which fits the measurement history
exactly: every :class:`~repro.core.report.PathReport` lands as one row.
Appends go to the head chunk (O(1) list appends); every ``chunk_size``
samples the head is sealed into a compressed immutable chunk.  Range
queries bisect the chunk index on time and decode lazily, returning
NumPy arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.tsdb.chunk import HeadChunk, Predictors, SealedChunk

DEFAULT_CHUNK_SIZE = 256


class Series:
    """An append-only, time-ordered, compressed multi-field series."""

    __slots__ = (
        "name", "fields", "chunk_size", "chunks", "head", "predictors",
        "_last_time", "_last_values", "_chunk_start_times", "samples_dropped",
    )

    def __init__(
        self,
        name: str,
        fields: Sequence[str],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        predictors: Predictors = None,
    ) -> None:
        if chunk_size < 2:
            raise ValueError(f"chunk_size must be >= 2, got {chunk_size!r}")
        if not fields:
            raise ValueError("a series needs at least one value field")
        self.name = name
        self.fields: Tuple[str, ...] = tuple(fields)
        self.chunk_size = chunk_size
        self.predictors = predictors
        self.chunks: List[SealedChunk] = []
        self.head = HeadChunk(self.fields)
        self._chunk_start_times: List[float] = []  # parallel to self.chunks
        self._last_time: Optional[float] = None
        self._last_values: Optional[Tuple[float, ...]] = None
        self.samples_dropped = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, t: float, values: Sequence[float]) -> None:
        """Append one sample; time must be non-decreasing."""
        if len(values) != len(self.fields):
            raise ValueError(
                f"series {self.name!r} wants {len(self.fields)} values "
                f"{self.fields}, got {len(values)}"
            )
        if self._last_time is not None and t < self._last_time:
            raise ValueError(
                f"out-of-order sample for series {self.name!r}: "
                f"{t} after {self._last_time}"
            )
        self.head.append(t, values)
        self._last_time = t
        self._last_values = tuple(values)
        if len(self.head) >= self.chunk_size:
            self._seal_head()

    def _seal_head(self) -> None:
        sealed = self.head.seal(self.predictors)
        self.chunks.append(sealed)
        self._chunk_start_times.append(sealed.min_time)
        self.head = HeadChunk(self.fields)

    def flush(self) -> None:
        """Seal the head chunk now (snapshotting, compression audits)."""
        if len(self.head):
            self._seal_head()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(c.count for c in self.chunks) + len(self.head)

    @property
    def nbytes(self) -> int:
        """Storage footprint: compressed chunks + raw head buffer."""
        return sum(c.nbytes for c in self.chunks) + self.head.nbytes

    @property
    def raw_nbytes(self) -> int:
        """What the same samples would cost as raw float64 columns."""
        return len(self) * (1 + len(self.fields)) * 8

    @property
    def min_time(self) -> Optional[float]:
        if self.chunks:
            return self.chunks[0].min_time
        return self.head.min_time if len(self.head) else None

    @property
    def max_time(self) -> Optional[float]:
        return self._last_time

    def latest(self) -> Optional[Tuple[float, Tuple[float, ...]]]:
        """The newest sample as ``(t, values)`` without any decoding."""
        if self._last_time is None:
            return None
        return self._last_time, self._last_values

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _blocks(
        self, t_start: Optional[float], t_end: Optional[float]
    ) -> Iterator[Tuple[np.ndarray, Dict[str, np.ndarray]]]:
        """Decoded (times, values) blocks overlapping [t_start, t_end)."""
        for chunk in self._overlapping(t_start, t_end):
            yield chunk.arrays(self.predictors)
        if len(self.head) and self._head_overlaps(t_start, t_end):
            yield self.head.arrays()

    def _overlapping(
        self, t_start: Optional[float], t_end: Optional[float]
    ) -> List[SealedChunk]:
        """Sealed chunks whose [min,max] range intersects [t_start, t_end).

        Chunks are time-ordered, so two bisects on the start-time index
        bound the candidates without touching compressed data.
        """
        if not self.chunks:
            return []
        lo = 0
        hi = len(self.chunks)
        if t_end is not None:
            # Chunks starting at/after t_end cannot contain t < t_end.
            hi = bisect_left(self._chunk_start_times, t_end)
        if t_start is not None:
            # The chunk *before* the first start > t_start may still
            # overlap (it can span t_start), so step back one.
            lo = max(0, bisect_right(self._chunk_start_times, t_start) - 1)
        return [
            c for c in self.chunks[lo:hi]
            if (t_start is None or c.max_time >= t_start)
            and (t_end is None or c.min_time < t_end)
        ]

    def _head_overlaps(
        self, t_start: Optional[float], t_end: Optional[float]
    ) -> bool:
        if t_start is not None and self.head.max_time < t_start:
            return False
        if t_end is not None and self.head.min_time >= t_end:
            return False
        return True

    def arrays(
        self,
        fields: Optional[Sequence[str]] = None,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Range scan: ``(times, {field: values})`` for t in [t_start, t_end).

        Only chunks overlapping the window are decoded; the boundary
        chunks are trimmed with a binary search on their decoded times.
        """
        wanted = self.fields if fields is None else tuple(fields)
        for name in wanted:
            if name not in self.fields:
                raise KeyError(
                    f"no field {name!r} in series {self.name!r} (have {self.fields})"
                )
        times_parts: List[np.ndarray] = []
        value_parts: Dict[str, List[np.ndarray]] = {name: [] for name in wanted}
        for times, values in self._blocks(t_start, t_end):
            lo = 0 if t_start is None else int(np.searchsorted(times, t_start, "left"))
            hi = len(times) if t_end is None else int(np.searchsorted(times, t_end, "left"))
            if lo >= hi:
                continue
            times_parts.append(times[lo:hi])
            for name in wanted:
                value_parts[name].append(values[name][lo:hi])
        if not times_parts:
            empty = np.empty(0, dtype=np.float64)
            return empty, {name: empty.copy() for name in wanted}
        return (
            np.concatenate(times_parts),
            {name: np.concatenate(value_parts[name]) for name in wanted},
        )

    def field(
        self,
        name: str,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> np.ndarray:
        """One field's values over the window (no timestamps)."""
        return self.arrays([name], t_start, t_end)[1][name]

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def drop_chunks_before(self, t: float) -> List[SealedChunk]:
        """Drop (and return) sealed chunks entirely older than ``t``.

        The head chunk and any chunk straddling ``t`` are kept whole --
        retention granularity is the chunk, which keeps dropping O(1)
        per chunk and never splits compressed data.
        """
        keep = 0
        while keep < len(self.chunks) and self.chunks[keep].max_time < t:
            keep += 1
        dropped = self.chunks[:keep]
        if dropped:
            self.chunks = self.chunks[keep:]
            self._chunk_start_times = self._chunk_start_times[keep:]
            self.samples_dropped += sum(c.count for c in dropped)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Series {self.name!r} fields={self.fields} n={len(self)} "
            f"chunks={len(self.chunks)}+head({len(self.head)})>"
        )
