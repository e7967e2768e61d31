"""Chunks: the unit of compression, sealing and retention.

A series owns exactly one mutable :class:`HeadChunk` -- raw column
lists, cheap O(1) appends -- and a list of immutable
:class:`SealedChunk` objects holding the bit-packed columns plus a
min/max-time index.  Sealing happens when the head reaches the series'
``chunk_size``; queries bisect the sealed index and decode only the
chunks that overlap the requested window.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tsdb.codec import (
    decode_column,
    decode_timestamps,
    encode_column,
    encode_timestamps,
)

#: field -> function of the other columns returning per-sample predictions.
Predictors = Optional[Dict[str, Callable[[Dict[str, np.ndarray]], np.ndarray]]]


class HeadChunk:
    """The open, append-only chunk (uncompressed column lists)."""

    __slots__ = ("fields", "times", "columns")

    def __init__(self, fields: Tuple[str, ...]) -> None:
        self.fields = fields
        self.times: List[float] = []
        self.columns: Tuple[List[float], ...] = tuple([] for _ in fields)

    def append(self, t: float, values: Sequence[float]) -> None:
        self.times.append(t)
        for column, value in zip(self.columns, values):
            column.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def min_time(self) -> float:
        return self.times[0]

    @property
    def max_time(self) -> float:
        return self.times[-1]

    def seal(self, predictors: "Predictors" = None) -> "SealedChunk":
        """Compress the buffered columns into an immutable chunk.

        ``predictors`` maps a field name to a function of the chunk's
        other columns (as float64 arrays) returning per-sample
        predictions; predicted columns are XOR-encoded against those
        instead of against their predecessors.  A predictor may only
        read *unpredicted* columns (they decode first).
        """
        predicted = []
        column_data = []
        raw = None
        for name, col in zip(self.fields, self.columns):
            fn = predictors.get(name) if predictors else None
            if fn is None:
                column_data.append(encode_column(col))
            else:
                if raw is None:
                    raw = {
                        f: np.array(c, dtype=np.float64)
                        for f, c in zip(self.fields, self.columns)
                    }
                column_data.append(encode_column(col, fn(raw)))
                predicted.append(name)
        return SealedChunk(
            fields=self.fields,
            count=len(self.times),
            min_time=self.times[0],
            max_time=self.times[-1],
            time_data=encode_timestamps(self.times),
            column_data=tuple(column_data),
            predicted=frozenset(predicted),
        )

    def arrays(self) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        times = np.array(self.times, dtype=np.float64)
        values = {
            name: np.array(col, dtype=np.float64)
            for name, col in zip(self.fields, self.columns)
        }
        return times, values

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint (raw float64 columns)."""
        return len(self.times) * (1 + len(self.fields)) * 8


class SealedChunk:
    """An immutable compressed block of ``count`` samples."""

    __slots__ = (
        "fields", "count", "min_time", "max_time", "time_data", "column_data",
        "predicted",
    )

    def __init__(
        self,
        fields: Tuple[str, ...],
        count: int,
        min_time: float,
        max_time: float,
        time_data: bytes,
        column_data: Tuple[bytes, ...],
        predicted: frozenset = frozenset(),
    ) -> None:
        self.fields = fields
        self.count = count
        self.min_time = min_time
        self.max_time = max_time
        self.time_data = time_data
        self.column_data = column_data
        self.predicted = predicted

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        """Compressed payload size in bytes."""
        return len(self.time_data) + sum(len(d) for d in self.column_data)

    def decode_times(self) -> np.ndarray:
        return decode_timestamps(self.time_data, self.count)

    def arrays(self, predictors: "Predictors" = None) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Decode every column: (times, {field: values}).

        ``predictors`` must be the same mapping the chunk was sealed
        with (the series owns it); predicted columns decode after the
        plain ones they derive from.
        """
        if self.predicted and not predictors:
            raise ValueError(
                f"chunk has predicted columns {sorted(self.predicted)} "
                f"but no predictors were supplied"
            )
        times = self.decode_times()
        values: Dict[str, np.ndarray] = {}
        for name, data in zip(self.fields, self.column_data):
            if name not in self.predicted:
                values[name] = decode_column(data, self.count)
        for name, data in zip(self.fields, self.column_data):
            if name in self.predicted:
                values[name] = decode_column(
                    data, self.count, predictors[name](values)
                )
        return times, values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SealedChunk n={self.count} t=[{self.min_time:.3f},"
            f"{self.max_time:.3f}] {self.nbytes}B>"
        )
