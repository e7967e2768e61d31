"""Continuous queries: standing predicates evaluated incrementally.

The application-facing query surface (after Al-Hawari & Manolakos's
runtime QoS service): instead of a consumer polling the matrix and
re-deriving "is the bandwidth to my peer still enough?" every cycle,
it registers a standing query once and receives
:class:`~repro.stream.events.QueryFired` / ``QueryCleared`` events when
the answer changes.  Queries hold O(pairs-touched) state and update in
O(1) per pair change -- never a rescan of history.

:class:`ThresholdQuery`
    "available on (A,B) < 20 Mbps for >= 2 samples": a comparison plus
    a consecutive-sample debounce, the stream twin of the RM detector's
    hysteresis.  Fires once when the streak reaches ``for_samples``,
    clears on the first non-matching sample.

:class:`PercentileQuery`
    "p90 utilization over the last 60 s": one
    :class:`~repro.telemetry.quantile.EwmaQuantile` estimator per pair,
    its weight derived from the window length so observations older
    than roughly one window carry little weight (the classic EWMA
    span ~ window equivalence) -- O(1) memory instead of a 60 s sample
    buffer.  The estimate is readable at any time
    (:meth:`PercentileQuery.value`), and with a ``threshold`` the query
    also fires/clears like a threshold query on the *estimate*.

Queries see the pair's *raw* per-cycle values -- the publisher routes
every recomputed dirty pair to them before significance filtering, so
a deadband tuned for subscriber wake-ups never distorts a query's
statistics.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from repro.core.report import PathReport
from repro.stream.events import pair_key
from repro.telemetry.quantile import EwmaQuantile

__all__ = ["ContinuousQuery", "PercentileQuery", "QueryError", "ThresholdQuery"]

PairKey = Tuple[str, str]

_METRICS: Dict[str, Callable[[PathReport], float]] = {
    "available": lambda r: r.available_bps,
    "used": lambda r: r.used_bps,
    "utilization": lambda r: (
        r.bottleneck.utilization if r.bottleneck is not None else 0.0
    ),
}

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda x, t: x < t,
    "<=": lambda x, t: x <= t,
    ">": lambda x, t: x > t,
    ">=": lambda x, t: x >= t,
}


class QueryError(ValueError):
    """Raised for malformed query definitions."""


class ContinuousQuery:
    """Base: name, metric extraction, pair selection, firing state."""

    def __init__(
        self,
        name: str,
        metric: str = "available",
        pairs: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> None:
        if metric not in _METRICS:
            raise QueryError(
                f"unknown metric {metric!r}; pick from {sorted(_METRICS)}"
            )
        self.name = name
        self.metric = metric
        self._extract = _METRICS[metric]
        self.pairs: Optional[frozenset] = (
            frozenset(pair_key(a, b) for a, b in pairs) if pairs is not None else None
        )
        self._firing: Dict[PairKey, bool] = {}

    def wants(self, pair: PairKey) -> bool:
        return self.pairs is None or pair in self.pairs

    def firing(self, pair: Tuple[str, str]) -> bool:
        """Is the predicate currently holding for this pair?"""
        return self._firing.get(pair_key(*pair), False)

    def offer(self, pair: PairKey, report: PathReport) -> Optional[Tuple[str, float]]:
        """Feed one recomputed pair; ("fired"|"cleared", value) on change."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all per-pair state (topology epoch bump)."""
        self._firing.clear()


class ThresholdQuery(ContinuousQuery):
    """``metric OP threshold`` sustained for >= ``for_samples`` samples."""

    def __init__(
        self,
        name: str,
        metric: str = "available",
        op: str = "<",
        threshold: float = 0.0,
        for_samples: int = 1,
        pairs: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> None:
        if op not in _OPS:
            raise QueryError(f"unknown operator {op!r}; pick from {sorted(_OPS)}")
        if for_samples < 1:
            raise QueryError(f"for_samples must be >= 1, got {for_samples!r}")
        super().__init__(name, metric=metric, pairs=pairs)
        self.op = op
        self._compare = _OPS[op]
        self.threshold = threshold
        self.for_samples = for_samples
        self._streaks: Dict[PairKey, int] = {}

    def describe(self) -> str:
        tail = f" for >= {self.for_samples} samples" if self.for_samples > 1 else ""
        return f"{self.metric} {self.op} {self.threshold:g}{tail}"

    def offer(self, pair: PairKey, report: PathReport) -> Optional[Tuple[str, float]]:
        value = self._extract(report)
        matches = not math.isnan(value) and self._compare(value, self.threshold)
        if matches:
            streak = self._streaks.get(pair, 0) + 1
            self._streaks[pair] = streak
            if streak >= self.for_samples and not self._firing.get(pair, False):
                self._firing[pair] = True
                return ("fired", value)
            return None
        self._streaks[pair] = 0
        if self._firing.get(pair, False):
            self._firing[pair] = False
            return ("cleared", value)
        return None

    def reset(self) -> None:
        super().reset()
        self._streaks.clear()


class PercentileQuery(ContinuousQuery):
    """Windowed percentile of a metric, estimated in O(1) memory.

    ``window_s`` sets the effective look-back: the estimator's EWMA
    weight is ``2 / (window_s / interval_s + 1)`` (the span formula),
    so samples older than about one window have negligible influence.
    """

    def __init__(
        self,
        name: str,
        p: float = 0.9,
        metric: str = "utilization",
        window_s: float = 60.0,
        interval_s: float = 2.0,
        threshold: Optional[float] = None,
        op: str = ">",
        pairs: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> None:
        if window_s <= 0 or interval_s <= 0 or window_s < interval_s:
            raise QueryError(
                f"need window_s >= interval_s > 0, got {window_s!r}/{interval_s!r}"
            )
        if op not in _OPS:
            raise QueryError(f"unknown operator {op!r}; pick from {sorted(_OPS)}")
        super().__init__(name, metric=metric, pairs=pairs)
        self.p = p
        self.window_s = window_s
        self.interval_s = interval_s
        self.threshold = threshold
        self.op = op
        self._compare = _OPS[op]
        self.weight = 2.0 / (window_s / interval_s + 1.0)
        self._estimators: Dict[PairKey, EwmaQuantile] = {}

    def describe(self) -> str:
        base = f"p{round(self.p * 100)}({self.metric}) over {self.window_s:g}s"
        if self.threshold is None:
            return base
        return f"{base} {self.op} {self.threshold:g}"

    def _estimator(self, pair: PairKey) -> EwmaQuantile:
        estimator = self._estimators.get(pair)
        if estimator is None:
            estimator = self._estimators[pair] = EwmaQuantile(
                self.p, weight=self.weight
            )
        return estimator

    def value(self, pair: Tuple[str, str]) -> float:
        """Current percentile estimate for one pair (NaN: no samples)."""
        estimator = self._estimators.get(pair_key(*pair))
        return estimator.value if estimator is not None else math.nan

    def offer(self, pair: PairKey, report: PathReport) -> Optional[Tuple[str, float]]:
        sample = self._extract(report)
        if math.isnan(sample):
            return None  # an unavailable path contributes no statistics
        estimator = self._estimator(pair)
        estimator.observe(sample)
        if self.threshold is None:
            return None
        estimate = estimator.value
        matches = self._compare(estimate, self.threshold)
        if matches and not self._firing.get(pair, False):
            self._firing[pair] = True
            return ("fired", estimate)
        if not matches and self._firing.get(pair, False):
            self._firing[pair] = False
            return ("cleared", estimate)
        return None

    def reset(self) -> None:
        super().reset()
        for estimator in self._estimators.values():
            estimator.reset()
