"""The matrix publisher: dirty-pair recomputation becomes typed events.

:class:`MatrixPublisher` closes the gap between PR 5's incremental
dataflow and the consumers who need its output: the epoch machinery
already knows exactly which (A, B) pairs crossed a dirty connection in
each cycle, and the publisher turns precisely that set -- never the full
O(hosts squared) matrix -- into :class:`~repro.stream.events.PairChanged`
/ ``PathDegraded`` / ``PathRestored`` events, filters them for
significance, evaluates continuous queries, and fans out through the
:class:`~repro.stream.manager.SubscriptionManager`.

Per :meth:`publish` cycle:

1. advance the :class:`~repro.core.dataflow.PublishClock` (all events
   this cycle share the new epoch -- the coherence guarantee);
2. take a matrix snapshot and read the dirty-pair hook;
3. for each dirty pair: route the raw value to continuous queries,
   emit trust-status transitions unconditionally, and emit a
   ``PairChanged`` only if the significance filter agrees;
4. serve ``deliver_unchanged`` subscriptions (the RM heartbeat mode)
   and ``block``-policy resyncs from the same snapshot.

A topology rebuild (the matrix re-traversed its paths) resets the
significance filters and query state: the distribution of moves on a
rewired network is a new distribution (see
:mod:`repro.stream.significance`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.dataflow import PublishClock
from repro.core.matrix import BandwidthMatrix, MatrixSnapshot
from repro.core.report import PathReport
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
from repro.stream.queries import ContinuousQuery
from repro.stream.significance import QuantileDeadbandFilter

__all__ = ["MatrixPublisher"]

PairKey = Tuple[str, str]

_STATUS_RANK = {"fresh": 0, "degraded": 1, "unavailable": 2}


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
