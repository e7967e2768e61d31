"""The per-pair stream path the columnar one is held bit-identical to.

``BandwidthMatrix.snapshot`` and ``MatrixPublisher.publish`` judge every
pair of a cycle as columns and compose a report only where one is read.
This module is the path they replaced, verbatim: an eager snapshot that
composes every pair, and a publisher that walks each dirty pair through
the queries, the trust-status check and a per-pair
:class:`EwmaQuantile` deadband, one Python call chain a pair.  The one
departure is the rule both paths now share: a continuous query holds its
state on an unavailable report ("unknown" is no evidence either way).
The subscription manager and the events are the product's own.
"""

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.bandwidth import BandwidthCalculator
from repro.core.dataflow import BoundPath, ConnCacheEntry, PublishClock
from repro.core.matrix import MatrixSnapshot
from repro.core.report import PathReport
from repro.core.traversal import NoPathError, find_path, pair_redundant
from repro.stream.events import (
    PairChanged,
    PathDegraded,
    PathRestored,
    QueryCleared,
    QueryFired,
    StreamEvent,
    pair_key,
)
from repro.stream.manager import SubscriptionManager
from repro.telemetry.trace import NULL_SPAN
from repro.topology.graph import TopologyGraph
from repro.topology.model import TopologySpec

PairKey = Tuple[str, str]

_STATUS_RANK = {"fresh": 0, "degraded": 1, "unavailable": 2}


class QueryError(ValueError):
    """Raised for malformed query definitions."""


class EwmaQuantile:
    """Exponentially-weighted incremental quantile for drifting streams.

    ``weight`` plays the usual EWMA role: larger values track changes
    faster at the price of more estimation noise.  The step size adapts
    to the data's scale through an exponentially-weighted mean absolute
    deviation, so the estimator needs no prior knowledge of units.
    """

    __slots__ = ("p", "weight", "count", "_estimate", "_scale")

    def __init__(self, p: float, weight: float = 0.05) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p!r}")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {weight!r}")
        self.p = p
        self.weight = weight
        self.reset()

    def reset(self) -> None:
        """Forget every observation; the next one re-seeds the estimate."""
        self.count = 0
        self._estimate: Optional[float] = None
        self._scale = 0.0

    def observe(self, x: float) -> None:
        self.count += 1
        if self._estimate is None:
            self._estimate = float(x)
            return
        deviation = abs(x - self._estimate)
        self._scale += self.weight * (deviation - self._scale)
        step = self.weight * (self._scale if self._scale > 0.0 else deviation or 1.0)
        if x > self._estimate:
            self._estimate += step * self.p / max(self.p, 1.0 - self.p)
        else:
            self._estimate -= step * (1.0 - self.p) / max(self.p, 1.0 - self.p)

    @property
    def value(self) -> float:
        return math.nan if self._estimate is None else self._estimate


class QuantileDeadbandFilter:
    """Adaptive deadband: ``factor`` x the ``q``-quantile of recent moves.

    The first observation of a pair is always significant (a subscriber
    must learn the initial level), NaN transitions in either direction
    are always significant, and :meth:`delivered` records the value a
    passing event actually carried so the deadband is anchored at what
    the consumer last saw, not at every intermediate twitch.

    ``min_samples`` moves must be observed for a pair before the learned
    quantile is trusted; until then ``floor_bps`` (a fixed deadband)
    stands in, so a cold filter neither floods nor starves its
    subscribers.  ``weight`` is the estimator's EWMA weight -- larger
    follows a drifting noise floor faster.
    """

    q = 0.9
    factor = 2.0
    min_samples = 8
    weight = 0.1

    def __init__(self, floor_bps: float = 0.0) -> None:
        if floor_bps < 0.0:
            raise ValueError(f"floor_bps must be >= 0, got {floor_bps!r}")
        self.floor_bps = floor_bps
        self._estimators: Dict[PairKey, EwmaQuantile] = {}
        self._last_delivered: Dict[PairKey, float] = {}
        self._last_seen: Dict[PairKey, float] = {}

    # -- the one question ----------------------------------------------
    def significant(self, pair: PairKey, value: float) -> bool:
        """Would delivering ``value`` tell the subscriber anything new?

        Learning happens against the *previous sample* (the Chambers
        estimators track the distribution of routine per-sample moves);
        the significance test runs against the *last delivered* value,
        so a slow drift accumulates against the anchor and eventually
        passes instead of being suppressed one small step at a time.
        """
        seen = self._last_seen.get(pair)
        if seen is not None and not (math.isnan(value) or math.isnan(seen)):
            self._observe(pair, abs(value - seen))
        self._last_seen[pair] = value
        last = self._last_delivered.get(pair)
        if last is None:
            return True
        value_nan = math.isnan(value)
        last_nan = math.isnan(last)
        if value_nan or last_nan:
            return value_nan != last_nan  # NaN flip: yes; NaN steady: no
        return abs(value - last) > self._deadband(pair)

    def delivered(self, pair: PairKey, value: float) -> None:
        """Record that an event carrying ``value`` was actually emitted."""
        self._last_delivered[pair] = value

    def last_delivered(self, pair: PairKey) -> float:
        """The anchor value (NaN before any delivery)."""
        return self._last_delivered.get(pair, math.nan)

    def _observe(self, pair: PairKey, delta: float) -> None:
        estimator = self._estimators.get(pair)
        if estimator is None:
            estimator = self._estimators[pair] = EwmaQuantile(
                self.q, weight=self.weight
            )
        estimator.observe(delta)

    def _deadband(self, pair: PairKey) -> float:
        estimator = self._estimators.get(pair)
        if estimator is None or estimator.count < self.min_samples:
            return self.floor_bps
        learned = self.factor * estimator.value
        return max(self.floor_bps, learned)

    def noise_floor(self, pair: PairKey) -> Optional[float]:
        """The learned q-quantile of moves for one pair (None: cold)."""
        estimator = self._estimators.get(pair)
        if estimator is None or estimator.count < self.min_samples:
            return None
        return estimator.value

    def reset(self) -> None:
        """Re-baseline: forget anchors and learned noise floors."""
        self._last_delivered.clear()
        self._last_seen.clear()
        for estimator in self._estimators.values():
            estimator.reset()


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


class ContinuousQuery:
    """Base: name, pair selection, firing state; a subclass reads its
    metric off each report (:meth:`_extract`)."""

    def __init__(
        self, name: str, pairs: Optional[Tuple[Tuple[str, str], ...]] = None
    ) -> None:
        self.name = name
        self.pairs: Optional[frozenset] = (
            frozenset(pair_key(a, b) for a, b in pairs) if pairs is not None else None
        )
        self._firing: Dict[PairKey, bool] = {}

    @staticmethod
    def _extract(report: PathReport) -> float:
        raise NotImplementedError

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
        self._extract = _METRICS[metric]
        self.op = op
        self._compare = _OPS[op]
        self.threshold = threshold
        self.for_samples = for_samples
        self._streaks: Dict[PairKey, int] = {}

    def describe(self) -> str:
        tail = f" for >= {self.for_samples} samples" if self.for_samples > 1 else ""
        return f"{self.metric} {self.op} {self.threshold:g}{tail}"

    def offer(self, pair: PairKey, report: PathReport) -> Optional[Tuple[str, float]]:
        if report.unavailable:
            return None  # unknown is no evidence: hold the streak and the flag
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
    """Windowed percentile of the bottleneck's utilization, estimated in
    O(1) memory; with a ``threshold`` it fires while the estimate is above.

    ``window_s`` sets the effective look-back: the estimator's EWMA
    weight is ``2 / (window_s / interval_s + 1)`` (the span formula),
    so samples older than about one window have negligible influence.
    """

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
        self._estimators: Dict[PairKey, EwmaQuantile] = {}

    def describe(self) -> str:
        base = f"p{round(self.p * 100)}(utilization) over {self.window_s:g}s"
        if self.threshold is None:
            return base
        return f"{base} > {self.threshold:g}"

    _extract = staticmethod(_METRICS["utilization"])

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
        if report.unavailable:
            return None  # an unavailable path contributes no statistics
        sample = self._extract(report)
        estimator = self._estimator(pair)
        estimator.observe(sample)
        if self.threshold is None:
            return None
        estimate = estimator.value
        matches = estimate > self.threshold
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


class BandwidthMatrix:
    """Computes :class:`MatrixSnapshot` from a calculator's live state."""

    def __init__(
        self,
        spec: TopologySpec,
        calculator: BandwidthCalculator,
        graph: Optional[TopologyGraph] = None,
    ) -> None:
        """Every host pair of the spec.  ``graph`` shares a caller-owned
        :class:`TopologyGraph` so traversal memos are shared too."""
        self.spec = spec
        self.calculator = calculator
        self.graph = graph if graph is not None else TopologyGraph(spec)
        self.hosts = [n.name for n in spec.hosts()]
        # Paths traversed, bound to the calculator's cache entries and
        # named once, up front (topology is static, paper §3.2), and again
        # only when the graph's topology epoch moves.
        self._build_paths()
        self.pair_cache_hits = 0
        self.pair_recomputes = 0
        self.dirty_pairs_last = 0
        # Stream hook: the dirty-pair set behind the latest snapshot, and
        # whether that snapshot rebuilt its paths (topology epoch moved).
        # The stream publisher reads these instead of diffing snapshots.
        self.last_dirty_pairs: Set[Tuple[str, str]] = set()
        self.last_snapshot_rebuilt = False

    def _build_paths(self) -> None:
        self._topology_epoch = self.graph.topology_epoch
        # pair -> (bound path, report name, redundant), None when disconnected
        self._paths: Dict[Tuple[str, str], Optional[Tuple[BoundPath, str, bool]]] = {}
        self._pairs_of_conn: Dict[ConnCacheEntry, List[Tuple[str, str]]] = {}
        bind = self.calculator.bind
        # A pair is redundant when its path crosses a connection whose own
        # two ends are a redundant pair (pair_redundant on that one
        # connection: it is not a bridge).  Asked once per distinct
        # connection, then a set test per pair.
        spare: Set[ConnCacheEntry] = set()
        for i, a in enumerate(self.hosts):
            for b in self.hosts[i + 1:]:
                try:
                    bound = bind(find_path(self.graph, a, b))
                except NoPathError:
                    self._paths[(a, b)] = None
                    continue
                for entry in bound:
                    pairs = self._pairs_of_conn.get(entry)
                    if pairs is None:
                        pairs = self._pairs_of_conn[entry] = []
                        conn = entry.conn
                        if pair_redundant(
                            self.graph, conn.end_a.node, conn.end_b.node, (conn,)
                        ):
                            spare.add(entry)
                    pairs.append((a, b))
                self._paths[(a, b)] = (
                    bound, f"matrix:{a}<->{b}", not spare.isdisjoint(bound)
                )
        self._conns = BoundPath(self._pairs_of_conn)  # each distinct entry
        # Previous-snapshot state for dirty-pair reuse: void on new paths.
        self._prev_reports: Dict[Tuple[str, str], Optional[PathReport]] = {}
        self._prev_time: Optional[float] = None
        self._prev_tokens: Dict[ConnCacheEntry, Tuple] = {}

    def snapshot(self, time: float) -> MatrixSnapshot:
        tel = getattr(self.calculator, "telemetry", None)
        span = tel.tracer.begin("matrix_snapshot") if tel is not None else NULL_SPAN
        rebuilt = False
        if self.graph.topology_epoch != self._topology_epoch:
            # Topology changed: paths may differ, previous state is void.
            self._build_paths()
            rebuilt = True
        # One validation pass over the distinct connections; a pair is
        # dirty when it crosses an entry whose token moved since the
        # previous snapshot.
        self.calculator.refresh(self._conns, time)
        dirty_pairs: Set[Tuple[str, str]] = set()
        prev_tokens = self._prev_tokens
        for entry, pairs in self._pairs_of_conn.items():
            if prev_tokens.get(entry) != entry.token:
                prev_tokens[entry] = entry.token
                dirty_pairs.update(pairs)
        # A previous report is reusable *verbatim* only at the same report
        # instant (age fields depend on it); across instants the pair is
        # recomposed from the entries validated just above, which is
        # cheap but produces a new PathReport with fresh age figures.
        same_time = self._prev_time == time and bool(self._prev_reports)
        compose = self.calculator.compose
        composed_entries = 0
        reports: Dict[Tuple[str, str], Optional[PathReport]] = {}
        for pair, held in self._paths.items():
            if held is None:
                reports[pair] = None
                continue
            if same_time and pair not in dirty_pairs:
                prev = self._prev_reports.get(pair)
                if prev is not None:
                    reports[pair] = prev
                    self.pair_cache_hits += 1
                    continue
            bound, name, redundant = held
            reports[pair] = compose(bound, pair[0], pair[1], time, name, redundant)
            composed_entries += len(bound)
            self.pair_recomputes += 1
        # A composed pair asked the cache for each of its entries: count
        # them as lookups, as a report built through measure_path does.
        self.calculator.lookups += composed_entries
        self._prev_reports = reports
        self._prev_time = time
        self.dirty_pairs_last = len(dirty_pairs)
        # After a rebuild previous tokens were void, so every measurable
        # pair landed in dirty_pairs -- exactly what the stream publisher
        # must re-deliver; it still needs the rebuilt flag to re-baseline
        # its significance filters.
        self.last_dirty_pairs = dirty_pairs
        self.last_snapshot_rebuilt = rebuilt
        span.finish(pairs=len(reports), dirty_pairs=len(dirty_pairs), rebuilt=rebuilt)
        return MatrixSnapshot(hosts=list(self.hosts), time=time, reports=reports)


class MatrixPublisher:
    """Publishes one matrix's dirty-pair changes as stream events."""

    def __init__(
        self,
        matrix: BandwidthMatrix,
        manager: Optional[SubscriptionManager] = None,
        significance: Optional[QuantileDeadbandFilter] = None,
    ) -> None:
        """``significance``: the publisher-wide filter applied before
        enqueue (None: every change on a dirty pair is an event).
        Status transitions, query events, heartbeats and resyncs are
        never filtered."""
        self.matrix = matrix
        self.manager = manager if manager is not None else SubscriptionManager()
        self.significance = significance
        self.clock = PublishClock()
        self._queries: Dict[str, ContinuousQuery] = {}
        self._query_owner: Dict[str, str] = {}
        self._last_status: Dict[PairKey, str] = {}
        self._last_snapshot: Optional[MatrixSnapshot] = None
        self.cycles = 0
        self.filter_resets = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def register_query(self, query: ContinuousQuery, subscriber: str) -> None:
        """Attach a standing query; its events land in ``subscriber``'s
        queue (which must already exist)."""
        if query.name in self._queries:
            raise ValueError(f"query {query.name!r} already registered")
        self.manager.get(subscriber)  # raises StreamError if unknown
        self._queries[query.name] = query
        self._query_owner[query.name] = subscriber

    def queries(self) -> List[ContinuousQuery]:
        return [self._queries[name] for name in sorted(self._queries)]

    # ------------------------------------------------------------------
    # The publish cycle
    # ------------------------------------------------------------------
    def publish(self, time: float) -> MatrixSnapshot:
        """Snapshot the matrix and emit this cycle's events."""
        snapshot = self.matrix.snapshot(time)
        epoch = self.clock.advance()
        self.cycles += 1
        if self.matrix.last_snapshot_rebuilt:
            self._rebaseline()
        candidates = [
            pair
            for pair in self.matrix.last_dirty_pairs
            if snapshot.reports.get(pair) is not None
        ]
        candidates.sort()
        for pair in candidates:
            self._publish_pair(pair, snapshot.reports[pair], time, epoch)
        self._serve_heartbeats(snapshot, time, epoch)
        self._serve_resyncs(snapshot, time, epoch)
        self._last_snapshot = snapshot
        return snapshot

    def _rebaseline(self) -> None:
        """Topology changed: learned baselines describe a dead network."""
        if self.significance is not None:
            self.significance.reset()
        for query in self._queries.values():
            query.reset()
        self._last_status.clear()
        self.filter_resets += 1

    def _publish_pair(
        self, pair: PairKey, report: PathReport, time: float, epoch: int
    ) -> None:
        key = pair_key(*pair)
        # 1. Continuous queries see the raw, unfiltered value.
        for name, query in self._queries.items():
            if not query.wants(key):
                continue
            outcome = query.offer(key, report)
            if outcome is None:
                continue
            what, value = outcome
            owner = self._query_owner[name]
            if what == "fired":
                describe = getattr(query, "describe", None)
                event: StreamEvent = QueryFired(
                    pair=key, time=time, epoch=epoch, query=name, value=value,
                    detail=describe() if describe is not None else None,
                )
            else:
                event = QueryCleared(
                    pair=key, time=time, epoch=epoch, query=name, value=value
                )
            self.manager.deliver_to(self.manager.get(owner), event)
        # 2. Trust-status transitions are always events.
        status = report.status
        previous_status = self._last_status.get(key)
        if previous_status is not None and status != previous_status:
            if _STATUS_RANK[status] > _STATUS_RANK[previous_status]:
                self.manager.deliver(
                    PathDegraded(
                        pair=key, time=time, epoch=epoch, report=report,
                        status=status, previous_status=previous_status,
                    )
                )
            else:
                self.manager.deliver(
                    PathRestored(
                        pair=key, time=time, epoch=epoch, report=report,
                        status=status, previous_status=previous_status,
                    )
                )
        self._last_status[key] = status
        # 3. The value change itself, behind the significance filter.
        available = report.available_bps
        if self.significance is not None:
            if not self.significance.significant(key, available):
                self.manager.note_suppressed()
                return
            previous = self.significance.last_delivered(key)
            self.significance.delivered(key, available)
        else:
            previous = math.nan
        self.manager.deliver(self._changed_event(key, report, time, epoch, previous))

    @staticmethod
    def _changed_event(
        key: PairKey, report: PathReport, time: float, epoch: int, previous: float
    ) -> PairChanged:
        bottleneck = report.bottleneck
        return PairChanged(
            pair=key,
            time=time,
            epoch=epoch,
            report=report,
            available_bps=report.available_bps,
            used_bps=report.used_bps,
            utilization=bottleneck.utilization if bottleneck is not None else 0.0,
            status=report.status,
            previous_available_bps=previous,
        )

    @staticmethod
    def _report_for(
        snapshot: MatrixSnapshot, key: PairKey
    ) -> Optional[PathReport]:
        """Snapshot lookup tolerant of host order: event keys are
        order-normalised, snapshot keys follow the matrix host list."""
        report = snapshot.reports.get(key)
        if report is None:
            report = snapshot.reports.get((key[1], key[0]))
        return report

    def _serve_heartbeats(
        self, snapshot: MatrixSnapshot, time: float, epoch: int
    ) -> None:
        """Per-cycle events for ``deliver_unchanged`` subscriptions."""
        for sub in self.manager.subscriptions():
            if not sub.deliver_unchanged or sub.pairs is None:
                continue
            for key in sorted(sub.pairs):
                report = self._report_for(snapshot, key)
                if report is None:
                    continue
                self.manager.deliver_to(
                    sub, self._changed_event(key, report, time, epoch, math.nan)
                )

    def _serve_resyncs(
        self, snapshot: MatrixSnapshot, time: float, epoch: int
    ) -> None:
        """Re-deliver current values to drained ``block`` subscriptions."""
        for sub in self.manager.subscriptions():
            if not sub.stalled:
                continue
            missed = sub.resync_pairs()
            if not missed:
                continue  # backlog not drained yet; stay stalled
            delivered = set()
            for key in sorted(missed):
                report = self._report_for(snapshot, key)
                if report is None:
                    delivered.add(key)  # pair no longer measurable
                    continue
                if not self.manager.deliver_to(
                    sub, self._changed_event(key, report, time, epoch, math.nan)
                ):
                    break  # bound hit again; the rest resync next round
                delivered.add(key)
            sub.resynced(delivered)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        out = dict(self.manager.stats())
        out.update(
            cycles=self.cycles,
            epoch=self.clock.epoch,
            queries=len(self._queries),
            filter_resets=self.filter_resets,
        )
        return out
