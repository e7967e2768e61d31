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
2. take a matrix snapshot, whose cells carry every pair's ``A``, trust
   status and dirtiness as columns;
3. judge all dirty pairs at once, as columns: route the raw values to
   the continuous queries, compare each status with the pair's last, and
   run the significance filter -- a few array operations per cycle
   whatever the pair count, because every piece of per-pair state lives
   in arrays (:mod:`repro.stream.columns`);
4. then, pair by pair in sorted order and only for pairs that have one,
   emit the events: query events, then a trust-status transition
   (always), then a ``PairChanged`` if the filter passed the value and
   someone subscribes to the pair.  Only these pairs' reports are
   composed;
5. serve ``deliver_unchanged`` subscriptions (the RM heartbeat mode)
   and ``block``-policy resyncs from the same snapshot.

A topology rebuild (the matrix re-traversed its paths) resets the
significance filters and query state: the distribution of moves on a
rewired network is a new distribution (see
:mod:`repro.stream.significance`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro._numpy import np
from repro.core.dataflow import PublishClock
from repro.core.matrix import STATUSES, BandwidthMatrix, MatrixSnapshot
from repro.core.report import PathReport
from repro.stream.columns import PairColumns
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

_UNAVAILABLE = STATUSES.index("unavailable")


class _Statuses(PairColumns):
    """Each pair's last trust status, as an index into STATUSES."""

    _EMPTY = {"last": -1}  # no status seen yet


class _Plan:
    """What the publisher derives from one pair layout (one topology
    epoch of the matrix): each pair's event key and its state slots."""

    __slots__ = ("layout", "keys", "status_slots", "filter_slots", "queries")

    def __init__(self, layout, keys: List[PairKey]) -> None:
        self.layout = layout
        self.keys = keys
        self.status_slots: Optional[np.ndarray] = None
        self.filter_slots: Optional[np.ndarray] = None
        # query name -> (pair wanted, slot), both over the layout's pairs
        self.queries: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}


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
        self._statuses = _Statuses()
        self._plan: Optional[_Plan] = None
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
        self._judge(snapshot.reports, time, epoch)
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
        self._statuses.reset()
        self.filter_resets += 1

    def _plan_for(self, layout) -> _Plan:
        plan = self._plan
        if plan is None or plan.layout is not layout:
            keys = [pair_key(a, b) for a, b in layout.keys]
            plan = self._plan = _Plan(layout, keys)
            plan.status_slots = self._statuses.slots(keys)
            if self.significance is not None:
                plan.filter_slots = self.significance.slots(keys)
        return plan

    def _query_plan(self, plan: _Plan, query: ContinuousQuery):
        held = plan.queries.get(query.name)
        if held is None:
            wanted = np.array([query.wants(key) for key in plan.keys], dtype=bool)
            held = plan.queries[query.name] = (wanted, query.slots(plan.keys))
        return held

    def _judge(self, cells, time: float, epoch: int) -> None:
        """Judge every dirty pair of the cycle at once, then emit each
        pair's events in sorted-pair order."""
        rows = cells.candidates()
        count = len(rows)
        if not count:
            return
        plan = self._plan_for(cells.layout)
        status = cells.status[rows]
        unavailable = status == _UNAVAILABLE
        emit = np.zeros(count, dtype=bool)
        # 1. Continuous queries see the raw, unfiltered value.
        outcomes = []
        for name, query in self._queries.items():
            wanted, slots = self._query_plan(plan, query)
            pick = wanted[rows]
            if not pick.any():
                continue
            fired, cleared, values = query.judge(
                slots[rows][pick], cells.column(query.metric)[rows][pick],
                unavailable[pick],
            )
            hit = fired | cleared
            if hit.any():
                at = np.flatnonzero(pick)[hit]
                emit[at] = True
                outcomes.append((name, query, dict(
                    zip(at.tolist(), zip(fired[hit].tolist(), values[hit].tolist()))
                )))
        # 2. Trust-status transitions are always events.
        status_slots = plan.status_slots[rows]
        previous = self._statuses.last[status_slots]
        self._statuses.last[status_slots] = status
        moved = (previous >= 0) & (previous != status)
        # 3. The value change itself, behind the significance filter.
        available = cells.available[rows]
        if self.significance is None:
            passed = np.ones(count, dtype=bool)
            anchors = np.full(count, math.nan)
        else:
            filter_slots = plan.filter_slots[rows]
            passed = self.significance.significant(filter_slots, available)
            anchors = self.significance.last_delivered(filter_slots)
            self.significance.delivered(filter_slots[passed], available[passed])
            suppressed = count - int(np.count_nonzero(passed))
            if suppressed:
                self.manager.note_suppressed(suppressed)
        emit |= moved | passed
        # Then the events, pair by pair, composing only these reports.
        manager = self.manager
        rows_at = rows.tolist()
        status_at = status.tolist()
        previous_at = previous.tolist()
        moved_at = moved.tolist()
        passed_at = passed.tolist()
        anchors_at = anchors.tolist()
        for j in np.flatnonzero(emit).tolist():
            i = rows_at[j]
            key = plan.keys[i]
            for name, query, hits in outcomes:
                hit = hits.get(j)
                if hit is None:
                    continue
                was_fired, value = hit
                if was_fired:
                    describe = getattr(query, "describe", None)
                    event: StreamEvent = QueryFired(
                        pair=key, time=time, epoch=epoch, query=name, value=value,
                        detail=describe() if describe is not None else None,
                    )
                else:
                    event = QueryCleared(
                        pair=key, time=time, epoch=epoch, query=name, value=value
                    )
                manager.deliver_to(manager.get(self._query_owner[name]), event)
            report = None
            if moved_at[j]:
                report = cells.cell(i)
                now, before = STATUSES[status_at[j]], STATUSES[previous_at[j]]
                kind = PathDegraded if status_at[j] > previous_at[j] else PathRestored
                manager.deliver(
                    kind(
                        pair=key, time=time, epoch=epoch, report=report,
                        status=now, previous_status=before,
                    )
                )
            if passed_at[j] and manager.subscribers_of(key):
                if report is None:
                    report = cells.cell(i)
                manager.deliver(
                    self._changed_event(key, report, time, epoch, anchors_at[j])
                )

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
