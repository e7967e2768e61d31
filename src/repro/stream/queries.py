"""Continuous queries: standing predicates evaluated incrementally.

The application-facing query surface (after Al-Hawari & Manolakos's
runtime QoS service): instead of a consumer polling the matrix and
re-deriving "is the bandwidth to my peer still enough?" every cycle,
it registers a standing query once and receives
:class:`~repro.stream.events.QueryFired` / ``QueryCleared`` events when
the answer changes.  Queries hold O(pairs-touched) state and update in
O(1) per pair change -- never a rescan of history.

:class:`ThresholdQuery`
    "available on (A,B) < 20 Mbps for >= 2 samples": a comparison (of the
    metric and operator it names) plus
    a consecutive-sample debounce, the stream twin of the RM detector's
    hysteresis.  Fires once when the streak reaches ``for_samples``,
    clears on the first non-matching sample.

:class:`PercentileQuery`
    "p90 bottleneck utilization over the last 60 s": one
    :class:`~repro.telemetry.quantile.EwmaQuantiles` estimator per pair,
    its weight derived from the window length so observations older
    than roughly one window carry little weight (the classic EWMA
    span ~ window equivalence) -- O(1) memory instead of a 60 s sample
    buffer.  The estimate is readable at any time
    (:meth:`PercentileQuery.value`), and with a ``threshold`` the query
    also fires while the *estimate* is above it, and clears below.

Queries see the pair's *raw* per-cycle values -- the publisher routes
every recomputed dirty pair to them before significance filtering, so
a deadband tuned for subscriber wake-ups never distorts a query's
statistics.  An *unavailable* report is not a value: its availability is
NaN and its utilization a stale figure, so a query holds its state
(streak, firing flag, estimator) on it -- "unknown" is evidence of
neither "still starved" nor "no longer starved".

A query keeps its per-pair state as columns (:mod:`repro.stream.columns`)
and the publisher feeds a cycle's pairs to its ``judge`` at once; one
pair is a batch of one.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Tuple

import numpy as np

from repro.stream.columns import PairColumns
from repro.stream.events import pair_key
from repro.telemetry.quantile import EwmaQuantiles

__all__ = ["ContinuousQuery", "PercentileQuery", "QueryError", "ThresholdQuery"]

PairKey = Tuple[str, str]
#: ``(fired, cleared, value)``: per pair, whether the query fired or
#: cleared on this batch, and the value its event carries.
Outcome = Tuple[np.ndarray, np.ndarray, np.ndarray]


#: The report metrics a query can read (a snapshot's value columns).
_METRICS = ("available", "used", "utilization")

# Each compares a float or, elementwise, an array.
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class QueryError(ValueError):
    """Raised for malformed query definitions."""


class ContinuousQuery(PairColumns):
    """Base: name, pair selection, firing state.

    A subclass names the report metric it reads (:attr:`metric`) and
    implements ``judge(slots, values, unavailable) -> (fired, cleared,
    value)``: it feeds a batch of distinct pairs' (:meth:`slots`)
    recomputed values, of which an ``unavailable`` pair's is no
    evidence, and says per pair whether the query fired or cleared and
    the value its event carries.
    """

    metric = "available"
    _EMPTY = {"_firing": False}

    def __init__(
        self, name: str, pairs: Optional[Tuple[Tuple[str, str], ...]] = None
    ) -> None:
        super().__init__()
        self.name = name
        self.pairs: Optional[frozenset] = (
            frozenset(pair_key(a, b) for a, b in pairs) if pairs is not None else None
        )

    def wants(self, pair: PairKey) -> bool:
        return self.pairs is None or pair in self.pairs

    def firing(self, pair: Tuple[str, str]) -> bool:
        """Is the predicate currently holding for this pair?"""
        slot = self._slot_of.get(pair_key(*pair))
        return slot is not None and bool(self._firing[slot])


class ThresholdQuery(ContinuousQuery):
    """``metric OP threshold`` sustained for >= ``for_samples`` samples."""

    _EMPTY = {**ContinuousQuery._EMPTY, "_streaks": 0}

    def __init__(
        self,
        name: str,
        metric: str,
        op: str,
        threshold: float = 0.0,
        for_samples: int = 1,
        pairs: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> None:
        if metric not in _METRICS:
            raise QueryError(
                f"unknown metric {metric!r}; pick from {sorted(_METRICS)}"
            )
        if op not in _OPS:
            raise QueryError(f"unknown operator {op!r}; pick from {sorted(_OPS)}")
        if for_samples < 1:
            raise QueryError(f"for_samples must be >= 1, got {for_samples!r}")
        super().__init__(name, pairs=pairs)
        self.metric = metric
        self.op = op
        self._compare = _OPS[op]
        self.threshold = threshold
        self.for_samples = for_samples

    def describe(self) -> str:
        tail = f" for >= {self.for_samples} samples" if self.for_samples > 1 else ""
        return f"{self.metric} {self.op} {self.threshold:g}{tail}"

    def judge(
        self, slots: np.ndarray, values: np.ndarray, unavailable: np.ndarray
    ) -> Outcome:
        live = ~unavailable
        matches = live & ~np.isnan(values) & self._compare(values, self.threshold)
        streaks = self._streaks[slots]
        was_firing = self._firing[slots]
        # A match extends the streak, a live miss ends it, "unknown" holds it.
        self._streaks[slots] = np.where(
            matches, streaks + 1, np.where(live, 0, streaks)
        )
        fired = matches & (streaks + 1 >= self.for_samples) & ~was_firing
        cleared = live & ~matches & was_firing
        self._firing[slots] = (was_firing | fired) & ~cleared
        return fired, cleared, values


class PercentileQuery(ContinuousQuery):
    """Windowed percentile of the bottleneck's utilization, estimated in
    O(1) memory; with a ``threshold`` it fires while the estimate is above.

    ``window_s`` sets the effective look-back: the estimator's EWMA
    weight is ``2 / (window_s / interval_s + 1)`` (the span formula),
    so samples older than about one window have negligible influence.
    """

    metric = "utilization"

    def __init__(
        self,
        name: str,
        p: float = 0.9,
        window_s: float = 60.0,
        interval_s: float = 2.0,
        threshold: Optional[float] = None,
        pairs: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> None:
        if window_s <= 0 or interval_s <= 0 or window_s < interval_s:
            raise QueryError(
                f"need window_s >= interval_s > 0, got {window_s!r}/{interval_s!r}"
            )
        super().__init__(name, pairs=pairs)
        self.p = p
        self.window_s = window_s
        self.interval_s = interval_s
        self.threshold = threshold
        self.weight = 2.0 / (window_s / interval_s + 1.0)
        self._estimators = EwmaQuantiles(p, self.weight)

    def describe(self) -> str:
        base = f"p{round(self.p * 100)}(utilization) over {self.window_s:g}s"
        if self.threshold is None:
            return base
        return f"{base} > {self.threshold:g}"

    def _grow(self, size: int) -> None:
        self._estimators.grow(size)

    def value(self, pair: Tuple[str, str]) -> float:
        """Current percentile estimate for one pair (NaN: no samples)."""
        slot = self._slot_of.get(pair_key(*pair))
        return math.nan if slot is None else float(self._estimators.estimate[slot])

    def judge(
        self, slots: np.ndarray, values: np.ndarray, unavailable: np.ndarray
    ) -> Outcome:
        live = ~unavailable
        if live.any():
            self._estimators.observe(slots[live], values[live])
        estimates = self._estimators.estimate[slots]
        if self.threshold is None:
            quiet = np.zeros(len(slots), dtype=bool)
            return quiet, quiet, estimates
        matches = estimates > self.threshold
        was_firing = self._firing[slots]
        fired = live & matches & ~was_firing
        cleared = live & ~matches & was_firing
        self._firing[slots] = (was_firing | fired) & ~cleared
        return fired, cleared, estimates

    def reset(self) -> None:
        super().reset()
        self._estimators = EwmaQuantiles(self.p, self.weight)
        self._estimators.grow(len(self._slot_of))

