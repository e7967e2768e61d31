"""Tests for the streaming subscription subsystem (``repro.stream``).

Covers the event surface, significance filters, bounded subscription
queues and their overflow policies (including the hypothesis property
that conflation always delivers the latest value per pair within the
queue bound), continuous queries, the matrix publisher's epoch
coherence, the monitor integration, and the guarantee that the RM
detector's hysteresis is bit-identical in stream and snapshot modes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import BandwidthCalculator
from repro.core.matrix import BandwidthMatrix
from repro.core.monitor import NetworkMonitor
from repro.core.poller import RateTable
from repro.experiments.scale import scale_spec
from repro.experiments.testbed import MONITOR_HOST, build_testbed
from repro.rm.middleware import RmMiddleware
from repro.rm.qos import QosRequirement
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.stream import (
    MatrixPublisher,
    OverflowPolicy,
    PairChanged,
    PathDegraded,
    PathRestored,
    PercentileQuery,
    QuantileDeadbandFilter,
    QueryCleared,
    QueryError,
    QueryFired,
    StreamError,
    Subscription,
    SubscriptionManager,
    ThresholdQuery,
    pair_key,
)
from repro.telemetry import Telemetry
from tests.synthetic import populate_rates

PAIR = ("a", "b")


def make_event(pair, value=0.0, epoch=1, time=0.0):
    """A light StreamEvent for queue tests (no PathReport needed)."""
    return QueryFired(pair=pair, time=time, epoch=epoch, query="q", value=value)


def make_publisher(significance=None, **spec_kw):
    """A publisher over a small generated topology, no simulator."""
    spec_kw.setdefault("switches", 2)
    spec_kw.setdefault("hosts_per_switch", 3)
    spec = scale_spec(**spec_kw)
    rates = RateTable()
    populate_rates(spec, rates, time=0.0)
    calculator = BandwidthCalculator(spec, rates, stale_after=6.0, dead_after=30.0)
    matrix = BandwidthMatrix(spec, calculator)
    publisher = MatrixPublisher(matrix, significance=significance)
    return spec, rates, publisher


def touch(rates, key, t, factor=1.5):
    """Refresh one interface's sample, scaling its traffic by ``factor``."""
    old = rates.latest(*key)
    rates.update(
        replace(
            old,
            time=t,
            in_bytes_per_s=old.in_bytes_per_s * factor,
            out_bytes_per_s=old.out_bytes_per_s * factor,
        )
    )


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
class TestEvents:
    def test_pair_key_normalises_order(self):
        assert pair_key("b", "a") == ("a", "b")
        assert pair_key("a", "b") == ("a", "b")

    def test_kind_and_str(self):
        event = make_event(PAIR, value=5.0)
        assert event.kind == "QueryFired"
        assert "a<->b" in str(event)

    def test_events_are_frozen(self):
        event = make_event(PAIR)
        with pytest.raises(Exception):
            event.value = 1.0


# ----------------------------------------------------------------------
# Significance filters
# ----------------------------------------------------------------------
def significant(f, value, pair=PAIR):
    """The filter's answer for one pair: its batch of one."""
    return bool(f.significant(f.slots([pair]), np.array([value], dtype=float))[0])


def delivered(f, value, pair=PAIR):
    f.delivered(f.slots([pair]), np.array([value], dtype=float))


class TestDeadbandFilter:
    """The rules every deadband applies, seen through a cold filter, whose
    deadband is its fixed ``floor_bps``."""

    @staticmethod
    def cold(floor_bps):
        f = QuantileDeadbandFilter(floor_bps=floor_bps)
        f.min_samples = 1_000  # never warm: the floor is the deadband
        return f

    def test_first_observation_always_significant(self):
        f = self.cold(1000.0)
        assert significant(f, 5000.0)

    def test_moves_inside_deadband_suppressed(self):
        f = self.cold(1000.0)
        significant(f, 5000.0)
        delivered(f, 5000.0)
        assert not significant(f, 5500.0)
        assert significant(f, 7000.0)

    def test_slow_drift_accumulates_against_anchor(self):
        # Each step is sub-deadband, but the anchor is the last
        # *delivered* value, so the drift eventually passes.
        f = self.cold(1000.0)
        delivered(f, 0.0)
        value, fired = 0.0, False
        for _ in range(10):
            value += 400.0
            if significant(f, value):
                fired = True
                break
        assert fired

    def test_nan_flip_significant_steady_nan_not(self):
        f = self.cold(1e12)  # nothing numeric passes
        delivered(f, 5000.0)
        assert significant(f, math.nan)  # value -> NaN: a flip
        delivered(f, math.nan)
        assert not significant(f, math.nan)  # steady NaN: nothing new
        assert significant(f, 5000.0)  # NaN -> value: a flip

    def test_reset_forgets_anchor(self):
        f = self.cold(1e12)
        delivered(f, 5000.0)
        assert not significant(f, 5000.0)
        f.reset()
        assert significant(f, 5000.0)


class TestQuantileDeadbandFilter:
    def test_learns_jitter_and_suppresses_it(self):
        f = QuantileDeadbandFilter()
        base = 1_000_000.0
        # Teach the filter +-1000 B/s jitter (cold period: floor 0, so
        # the early jitter is delivered while the estimator warms).
        value = base
        for i in range(30):
            value = base + (1000.0 if i % 2 else -1000.0)
            if significant(f, value):
                delivered(f, value)
        assert f.noise_floor(PAIR) is not None
        # Routine jitter is now sub-deadband...
        assert not significant(f, value + 1000.0)
        # ...but a genuine level shift far exceeds the learned quantile.
        assert significant(f, base + 200_000.0)

    def test_floor_stands_in_while_cold(self):
        f = QuantileDeadbandFilter(floor_bps=5000.0)
        f.min_samples = 100
        delivered(f, 10_000.0)
        significant(f, 10_000.0)
        assert not significant(f, 12_000.0)  # under the floor
        assert significant(f, 20_000.0)

    def test_reset_clears_learned_state(self):
        f = QuantileDeadbandFilter()
        f.min_samples = 2
        for i in range(10):
            significant(f, 1000.0 * i)
        assert f.noise_floor(PAIR) is not None
        f.reset()
        assert f.noise_floor(PAIR) is None
        assert significant(f, 0.0)  # first observation again

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuantileDeadbandFilter(floor_bps=-1.0)


# ----------------------------------------------------------------------
# Subscription queues and overflow policies
# ----------------------------------------------------------------------
class TestDropOldest:
    def test_ring_evicts_oldest(self):
        sub = Subscription("s", policy=OverflowPolicy.DROP_OLDEST, bound=3)
        for i in range(5):
            assert sub.offer(make_event(PAIR, value=float(i), epoch=i + 1))
        assert len(sub) == 3
        assert sub.events_dropped == 2
        assert [e.value for e in sub.drain()] == [2.0, 3.0, 4.0]

    def test_epoch_gap_reveals_drops(self):
        sub = Subscription("s", policy=OverflowPolicy.DROP_OLDEST, bound=2)
        for epoch in range(1, 6):
            sub.offer(make_event(PAIR, epoch=epoch))
        epochs = [e.epoch for e in sub.drain()]
        assert epochs == [4, 5]  # non-consecutive from 1: cycles missed


class TestConflate:
    def test_newest_value_per_pair_wins_in_place(self):
        sub = Subscription("s", policy=OverflowPolicy.CONFLATE, bound=8)
        sub.offer(make_event(("a", "b"), value=1.0))
        sub.offer(make_event(("c", "d"), value=2.0))
        sub.offer(make_event(("a", "b"), value=3.0))  # replaces, keeps slot
        events = sub.drain()
        assert [(e.pair, e.value) for e in events] == [
            (("a", "b"), 3.0),
            (("c", "d"), 2.0),
        ]
        assert sub.events_conflated == 1

    def test_bound_evicts_oldest_pair(self):
        sub = Subscription("s", policy=OverflowPolicy.CONFLATE, bound=2)
        sub.offer(make_event(("a", "b"), value=1.0))
        sub.offer(make_event(("c", "d"), value=2.0))
        sub.offer(make_event(("e", "f"), value=3.0))
        assert len(sub) == 2
        assert [e.pair for e in sub.drain()] == [("c", "d"), ("e", "f")]
        assert sub.events_dropped == 1


class TestBlock:
    def test_refuses_and_stalls_at_bound(self):
        sub = Subscription("s", policy=OverflowPolicy.BLOCK, bound=2)
        assert sub.offer(make_event(("a", "b")))
        assert sub.offer(make_event(("c", "d")))
        assert not sub.offer(make_event(("e", "f")))
        assert sub.stalled
        assert sub.events_dropped == 1
        assert len(sub) == 2  # bound never exceeded

    def test_resync_only_after_drain(self):
        sub = Subscription("s", policy=OverflowPolicy.BLOCK, bound=1)
        sub.offer(make_event(("a", "b")))
        sub.offer(make_event(("c", "d")))  # refused
        assert sub.resync_pairs() == set()  # backlog not drained yet
        sub.drain()
        assert sub.resync_pairs() == {("c", "d")}
        sub.resynced()
        assert not sub.stalled
        assert sub.resync_pairs() == set()


class TestSubscriptionMisc:
    def test_callback_bypasses_queue(self):
        seen = []
        sub = Subscription("s", callback=seen.append)
        sub.offer(make_event(PAIR))
        assert len(seen) == 1
        assert len(sub) == 0

    def test_drain_limit(self):
        sub = Subscription("s", bound=10)
        for i in range(5):
            sub.offer(make_event(PAIR, epoch=i + 1))
        assert len(sub.drain(limit=2)) == 2
        assert len(sub) == 3

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            Subscription("s", bound=0)


# Conflation property (satellite): whatever the event sequence, the
# queue never exceeds its bound and every drained event carries the
# latest value offered for its pair.
_pairs = st.sampled_from([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])


class TestConflateProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        offers=st.lists(
            st.tuples(_pairs, st.floats(0.0, 1e9, allow_nan=False)),
            max_size=120,
        ),
        bound=st.integers(min_value=1, max_value=4),
    )
    def test_latest_value_per_pair_within_bound(self, offers, bound):
        sub = Subscription("s", policy=OverflowPolicy.CONFLATE, bound=bound)
        latest = {}
        for epoch, (pair, value) in enumerate(offers, start=1):
            sub.offer(make_event(pair, value=value, epoch=epoch))
            latest[pair] = value
            assert len(sub) <= bound  # the invariant, at every step
        drained = sub.drain()
        assert len(drained) <= bound
        seen_pairs = set()
        for event in drained:
            assert event.pair not in seen_pairs  # one slot per pair
            seen_pairs.add(event.pair)
            assert event.value == latest[event.pair]  # newest wins


# ----------------------------------------------------------------------
# Subscription manager
# ----------------------------------------------------------------------
class TestManager:
    def test_duplicate_name_rejected(self):
        manager = SubscriptionManager()
        manager.subscribe("s")
        with pytest.raises(StreamError):
            manager.subscribe("s")

    def test_empty_pair_set_rejected(self):
        with pytest.raises(StreamError):
            SubscriptionManager().subscribe("s", pairs=[])

    def test_deliver_unchanged_needs_explicit_pairs(self):
        with pytest.raises(StreamError):
            SubscriptionManager().subscribe("s", deliver_unchanged=True)

    def test_reverse_index_routes_by_pair(self):
        manager = SubscriptionManager()
        ab = manager.subscribe("ab", pairs=[("a", "b")])
        cd = manager.subscribe("cd", pairs=[("c", "d")])
        wild = manager.subscribe("wild")
        manager.deliver(make_event(("a", "b")))
        assert len(ab) == 1 and len(cd) == 0 and len(wild) == 1

    def test_pair_order_normalised_on_subscribe(self):
        manager = SubscriptionManager()
        sub = manager.subscribe("s", pairs=[("b", "a")])
        manager.deliver(make_event(("a", "b")))
        assert len(sub) == 1

    def test_unsubscribe_removes_from_index(self):
        manager = SubscriptionManager()
        manager.subscribe("s", pairs=[("a", "b")])
        manager.unsubscribe("s")
        assert manager.deliver(make_event(("a", "b"))) == 0
        with pytest.raises(StreamError):
            manager.get("s")
        with pytest.raises(StreamError):
            manager.unsubscribe("s")

    def test_deliver_skips_heartbeat_subscriptions(self):
        # deliver_unchanged subscriptions are served exclusively by the
        # publisher's per-cycle heartbeat -- normal fan-out must not
        # double-deliver to them.
        manager = SubscriptionManager()
        hb = manager.subscribe(
            "hb", pairs=[("a", "b")], deliver_unchanged=True
        )
        assert manager.deliver(make_event(("a", "b"))) == 0
        assert len(hb) == 0

    def test_telemetry_counters_track_flow(self):
        telemetry = Telemetry(clock=lambda: 0.0)
        manager = SubscriptionManager(telemetry)
        manager.subscribe("s", pairs=[("a", "b")], bound=1)
        manager.deliver(make_event(("a", "b"), epoch=1))
        manager.deliver(make_event(("a", "b"), epoch=2))  # evicts under bound
        manager.note_suppressed(3)
        value = telemetry.registry.value
        assert value("stream_subscribers") == 1
        assert value("stream_events_delivered_total") == 2
        assert value("stream_events_dropped_total") == 1
        assert value("stream_events_suppressed_total") == 3
        stats = manager.stats()
        assert stats["subscribers"] == 1
        assert stats["suppressed"] == 3


# ----------------------------------------------------------------------
# Continuous queries
# ----------------------------------------------------------------------
def report_with_utilization(utilization):
    """A one-connection PathReport whose bottleneck is this busy."""
    return report_with_available(10_000_000.0 * (1.0 - utilization))


def report_with_available(available_bps, time=0.0, src="a", dst="b"):
    """A one-connection PathReport with the given available bandwidth."""
    from repro.core.report import ConnectionMeasurement, PathReport
    from repro.topology.model import ConnectionSpec, InterfaceRef

    capacity = 10_000_000.0
    conn = ConnectionSpec(
        end_a=InterfaceRef(src, "eth0"),
        end_b=InterfaceRef(dst, "eth0"),
        bandwidth_bps=capacity,
    )
    return PathReport(
        src=src,
        dst=dst,
        time=time,
        name=f"{src}<->{dst}",
        connections=(
            ConnectionMeasurement(
                connection=conn,
                capacity_bps=capacity,
                used_bps=capacity - available_bps,
                source=None,
                rule="switch",
            ),
        ),
    )


#: A report's value under each query metric (what a snapshot's columns hold).
_METRIC_OF = {
    "available": lambda r: r.available_bps,
    "used": lambda r: r.used_bps,
    "utilization": lambda r: r.bottleneck.utilization if r.bottleneck is not None else 0.0,
}


def judged(query, pair, report):
    """The query's answer for one pair, its batch of one: ("fired" |
    "cleared", value) when its state changed, else None."""
    fired, cleared, values = query.judge(
        query.slots([pair]),
        np.array([_METRIC_OF[query.metric](report)], dtype=float),
        np.array([report.unavailable]),
    )
    if fired[0] or cleared[0]:
        return ("fired" if fired[0] else "cleared", float(values[0]))
    return None


class TestThresholdQuery:
    def test_fires_after_consecutive_samples_and_clears(self):
        query = ThresholdQuery(
            "low", metric="available", op="<", threshold=1000.0, for_samples=2
        )
        key = pair_key("a", "b")
        assert judged(query, key, report_with_available(500.0)) is None  # 1st
        outcome = judged(query, key, report_with_available(500.0))  # 2nd
        assert outcome == ("fired", 500.0)
        assert query.firing(key)
        assert judged(query, key, report_with_available(500.0)) is None  # held
        what, value = judged(query, key, report_with_available(5000.0))
        assert what == "cleared"
        assert not query.firing(key)

    def test_breach_streak_resets_on_healthy_sample(self):
        query = ThresholdQuery(
            "low", metric="available", op="<", threshold=1000.0, for_samples=2
        )
        key = pair_key("a", "b")
        judged(query, key, report_with_available(500.0))
        judged(query, key, report_with_available(5000.0))  # streak broken
        assert judged(query, key, report_with_available(500.0)) is None

    def test_an_unavailable_report_is_no_evidence(self):
        # Starved at t=1 and t=2, then the path goes unavailable: "unknown"
        # is not "no longer starved", so nothing clears and the streak holds.
        query = ThresholdQuery(
            "starved", metric="available", op="<", threshold=500.0, for_samples=2
        )
        key = pair_key("a", "b")
        assert judged(query, key, report_with_available(100.0, time=1.0)) is None
        assert judged(query, key, report_with_available(100.0, time=2.0)) == (
            "fired", 100.0,
        )
        dead = replace(report_with_available(100.0, time=3.0), unavailable=True)
        assert judged(query, key, dead) is None
        assert query.firing(key)
        assert judged(query, key, report_with_available(5000.0, time=4.0))[0] == "cleared"
        # A streak interrupted by an unavailable report is held, not reset.
        judged(query, key, report_with_available(100.0, time=5.0))
        judged(query, key, replace(report_with_available(100.0, time=6.0), unavailable=True))
        assert judged(query, key, report_with_available(100.0, time=7.0))[0] == "fired"

    def test_describe_mentions_threshold(self):
        query = ThresholdQuery("q", "available", op="<", threshold=20e6, for_samples=2)
        assert "available < 2e+07" in query.describe()

    def test_rejects_bad_definitions(self):
        with pytest.raises(QueryError):
            ThresholdQuery("q", metric="nope", op="<")
        with pytest.raises(QueryError):
            ThresholdQuery("q", metric="available", op="!=")
        with pytest.raises(QueryError):
            ThresholdQuery("q", metric="available", op="<", for_samples=0)


class TestPercentileQuery:
    def test_estimate_tracks_distribution(self):
        query = PercentileQuery("p90", p=0.9, window_s=60.0, interval_s=2.0)
        key = pair_key("a", "b")
        for i in range(200):
            judged(query, key, report_with_utilization(0.10 + (i % 10) * 0.01))
        estimate = query.value(("a", "b"))
        assert 0.10 <= estimate <= 0.19
        assert estimate > 0.14  # a p90 sits in the upper tail

    def test_threshold_fires_and_clears_on_estimate(self):
        query = PercentileQuery(
            "p50-high", p=0.5, window_s=8.0, interval_s=2.0, threshold=0.5
        )
        key = pair_key("a", "b")
        fired = None
        for _ in range(30):
            fired = fired or judged(query, key, report_with_utilization(0.99))
        assert fired is not None and fired[0] == "fired"
        cleared = None
        for _ in range(60):
            cleared = cleared or judged(query, key, report_with_utilization(0.1))
        assert cleared is not None and cleared[0] == "cleared"

    def test_an_unavailable_report_contributes_no_statistics(self):
        # A dead path's bottleneck utilization is a stale figure, not NaN:
        # it must not move the estimate.
        query = PercentileQuery("p90", p=0.9, window_s=60.0, interval_s=2.0)
        key = pair_key("a", "b")
        for _ in range(50):
            judged(query, key, report_with_utilization(0.10))
        before = query.value(key)
        stale = replace(report_with_utilization(0.95), unavailable=True)
        assert judged(query, key, stale) is None
        assert query.value(key) == before

    def test_window_sets_ewma_weight(self):
        query = PercentileQuery("q", window_s=60.0, interval_s=2.0)
        assert query.weight == pytest.approx(2.0 / 31.0)

    def test_rejects_bad_window(self):
        with pytest.raises(QueryError):
            PercentileQuery("q", window_s=1.0, interval_s=2.0)


# ----------------------------------------------------------------------
# The matrix publisher
# ----------------------------------------------------------------------
class TestPublisher:
    def test_first_publish_delivers_every_pair_one_epoch(self):
        spec, rates, publisher = make_publisher()
        sub = publisher.manager.subscribe("all", bound=1024)
        publisher.publish(0.5)
        events = sub.drain()
        measurable = sum(
            1 for r in publisher.matrix.snapshot(0.5).reports.values()
            if r is not None
        )
        assert len(events) == measurable
        assert {e.epoch for e in events} == {1}  # one coherent batch
        assert all(isinstance(e, PairChanged) for e in events)

    def test_quiet_cycle_emits_nothing(self):
        spec, rates, publisher = make_publisher()
        sub = publisher.manager.subscribe("all", bound=1024)
        publisher.publish(0.5)
        sub.drain()
        publisher.publish(2.5)  # no rate updates: no dirty pairs
        assert sub.drain() == []

    def test_only_dirty_pairs_become_events(self):
        spec, rates, publisher = make_publisher()
        sub = publisher.manager.subscribe("all", bound=1024)
        publisher.publish(0.5)
        sub.drain()
        key = sorted(rates.keys())[0]
        touch(rates, key, 2.0)
        cells = publisher.publish(2.5).reports
        events = sub.drain()
        assert events, "a dirty connection must produce events"
        dirty = [pair for pair, moved in zip(cells, cells.dirty) if moved]
        assert len(dirty) == publisher.matrix.dirty_pairs_last
        assert {e.pair for e in events} <= {pair_key(*p) for p in dirty}
        assert {e.epoch for e in events} == {2}

    def test_epochs_strictly_increase_across_cycles(self):
        spec, rates, publisher = make_publisher()
        sub = publisher.manager.subscribe("all", bound=4096)
        key = sorted(rates.keys())[0]
        t = 0.5
        for round_no in range(4):
            touch(rates, key, t)
            publisher.publish(t + 0.1)
            t += 2.0
        epochs = [e.epoch for e in sub.drain()]
        assert epochs == sorted(epochs)
        assert publisher.clock.epoch == 4

    def test_status_transitions_always_delivered(self):
        spec, rates, publisher = make_publisher(
            significance=QuantileDeadbandFilter(floor_bps=1e15)  # swallow values
        )
        sub = publisher.manager.subscribe("all", bound=4096)
        publisher.publish(0.5)
        sub.drain()
        key = sorted(rates.keys())[0]
        # Refresh one interface at t=2 (dirtying its pairs), then publish
        # far past stale_after: the dirty pairs recompute as degraded.
        touch(rates, key, 2.0, factor=1.0)
        publisher.publish(20.0)
        degraded = [e for e in sub.drain() if isinstance(e, PathDegraded)]
        assert degraded, "staleness crossing must emit PathDegraded"
        assert all(e.status == "degraded" for e in degraded)
        # Fresh samples on every interface restore the degraded paths
        # (a path is only fresh once all its connections are).
        for k in sorted(rates.keys()):
            touch(rates, k, 20.5, factor=1.0)
        publisher.publish(21.0)
        restored = [e for e in sub.drain() if isinstance(e, PathRestored)]
        assert {e.pair for e in restored} == {e.pair for e in degraded}

    def test_significance_filter_suppresses_jitter(self):
        # Once the adaptive filter has learned a pair's jitter amplitude,
        # pure jitter rounds deliver zero PairChanged events.
        filt = QuantileDeadbandFilter()
        filt.factor, filt.min_samples = 3.0, 4
        spec, rates, publisher = make_publisher(significance=filt)
        sub = publisher.manager.subscribe("all", bound=8192)
        keys = sorted(rates.keys())
        t = 0.5
        publisher.publish(t)
        for round_no in range(12):  # learning rounds: +-0.01% jitter
            t += 2.0
            for key in keys:
                touch(rates, key, t, factor=1.0001 if round_no % 2 else 0.9999)
            publisher.publish(t + 0.1)
        sub.drain()
        before = publisher.manager.events_suppressed
        for round_no in range(4):  # measured rounds: same jitter
            t += 2.0
            for key in keys:
                touch(rates, key, t, factor=1.0001 if round_no % 2 else 0.9999)
            publisher.publish(t + 0.1)
        changed = [e for e in sub.drain() if isinstance(e, PairChanged)]
        assert changed == [], "learned jitter must be suppressed entirely"
        assert publisher.manager.events_suppressed > before
        # A genuine shift on one interface still gets through.
        touch(rates, keys[0], t + 2.0, factor=50.0)
        publisher.publish(t + 2.1)
        assert any(isinstance(e, PairChanged) for e in sub.drain())

    def test_topology_rebuild_rebaselines_filters(self):
        filt = QuantileDeadbandFilter()
        filt.min_samples = 2
        spec, rates, publisher = make_publisher(significance=filt)
        sub = publisher.manager.subscribe("all", bound=8192)
        publisher.publish(0.5)
        first = len(sub.drain())
        assert first > 0
        publisher.matrix.graph.invalidate_paths()
        publisher.publish(2.5)
        assert publisher.filter_resets == 1
        # Every pair is redelivered: the filter forgot its anchors.
        assert len(sub.drain()) == first

    def test_heartbeat_subscription_gets_event_every_cycle(self):
        spec, rates, publisher = make_publisher()
        hosts = publisher.matrix.hosts
        pair = pair_key(hosts[0], hosts[1])
        seen = []
        publisher.manager.subscribe(
            "hb", pairs=[pair], callback=seen.append, deliver_unchanged=True
        )
        quiet = publisher.manager.subscribe("quiet", pairs=[pair])
        publisher.publish(0.5)
        publisher.publish(2.5)  # nothing dirty
        publisher.publish(4.5)
        assert [e.time for e in seen] == [0.5, 2.5, 4.5]
        assert len(quiet) == 1  # the change-only sub saw just the first

    def test_block_subscriber_resyncs_after_drain(self):
        spec, rates, publisher = make_publisher()
        sub = publisher.manager.subscribe(
            "slow", policy=OverflowPolicy.BLOCK, bound=2
        )
        first = publisher.publish(0.5)  # more pairs than the bound: stalls
        assert sub.stalled
        measurable = {
            pair_key(*p) for p, r in first.reports.items() if r is not None
        }
        # Stalled + full queue: a publish cycle cannot resync yet.
        publisher.publish(2.5)
        assert sub.stalled
        # Each drain frees the bound; resyncs arrive in bound-sized
        # slices until every missed pair has been re-delivered.
        seen = {e.pair for e in sub.drain()}
        t = 4.5
        for _ in range(40):
            publisher.publish(t)
            t += 2.0
            seen.update(e.pair for e in sub.drain())
            if not sub.stalled:
                break
        assert not sub.stalled, "resync must converge once drains resume"
        assert seen == measurable  # nothing was silently lost

    def test_query_events_route_to_owner(self):
        spec, rates, publisher = make_publisher()
        hosts = publisher.matrix.hosts
        pair = (hosts[0], hosts[1])
        owner = publisher.manager.subscribe("owner", pairs=[pair])
        other = publisher.manager.subscribe("other", pairs=[pair])
        publisher.register_query(
            ThresholdQuery(
                "always", metric="available", op=">", threshold=0.0,
                for_samples=1, pairs=[pair],
            ),
            "owner",
        )
        publisher.publish(0.5)
        owner_kinds = {e.kind for e in owner.drain()}
        other_kinds = {e.kind for e in other.drain()}
        assert "QueryFired" in owner_kinds
        assert "QueryFired" not in other_kinds

    def test_query_needs_existing_subscriber(self):
        spec, rates, publisher = make_publisher()
        with pytest.raises(StreamError):
            publisher.register_query(ThresholdQuery("q", "available", "<"), "nobody")

    def test_duplicate_query_name_rejected(self):
        spec, rates, publisher = make_publisher()
        publisher.manager.subscribe("s")
        publisher.register_query(ThresholdQuery("q", "available", "<"), "s")
        with pytest.raises(ValueError):
            publisher.register_query(ThresholdQuery("q", "available", "<"), "s")

    def test_stats_surface(self):
        spec, rates, publisher = make_publisher()
        publisher.manager.subscribe("s")
        publisher.publish(0.5)
        stats = publisher.stats()
        assert stats["cycles"] == 1
        assert stats["epoch"] == 1
        assert stats["subscribers"] == 1
        assert stats["delivered"] > 0


class TestSlowSubscriberSoak:
    def test_memory_stays_bounded_under_sustained_load(self):
        # A subscriber that never drains must hold O(bound) events no
        # matter how many cycles flow past it.
        spec, rates, publisher = make_publisher()
        conflate = publisher.manager.subscribe(
            "dash", policy=OverflowPolicy.CONFLATE, bound=8
        )
        ring = publisher.manager.subscribe(
            "log", policy=OverflowPolicy.DROP_OLDEST, bound=16
        )
        keys = sorted(rates.keys())
        t = 0.5
        publisher.publish(t)
        for round_no in range(60):
            t += 2.0
            for key in keys:
                touch(rates, key, t, factor=1.1 if round_no % 2 else 0.95)
            publisher.publish(t + 0.1)
            assert len(conflate) <= 8
            assert len(ring) <= 16
        assert conflate.events_delivered + conflate.events_conflated > 60
        assert ring.events_dropped > 0
        assert conflate.high_watermark <= 8
        assert ring.high_watermark <= 16


# ----------------------------------------------------------------------
# Monitor integration
# ----------------------------------------------------------------------
class TestMonitorIntegration:
    def test_enable_streaming_publishes_each_cycle(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, MONITOR_HOST, poll_jitter=0.0)
        publisher = monitor.enable_streaming()
        assert monitor.enable_streaming() is publisher  # idempotent
        sub = publisher.manager.subscribe("ui", bound=4096)
        monitor.start()
        build.network.run(20.0)
        assert publisher.cycles >= 8
        events = sub.drain()
        assert events
        stats = monitor.stats()
        assert stats["stream_subscribers"] == 1
        assert stats["stream_events_delivered"] >= len(events)
        assert stats["stream_events_suppressed"] > 0  # filter at work

    def test_stats_keys_resolve_without_streaming(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, MONITOR_HOST)
        stats = monitor.stats()
        assert stats["stream_subscribers"] == 0
        assert stats["stream_events_delivered"] == 0
        assert stats["stream_events_suppressed"] == 0
        assert stats["stream_events_dropped"] == 0


# ----------------------------------------------------------------------
# RM adapter: stream mode ≡ snapshot mode
# ----------------------------------------------------------------------
def run_rm_scenario(stream):
    build = build_testbed()
    monitor = NetworkMonitor(build, MONITOR_HOST, poll_jitter=0.0)
    requirement = QosRequirement(
        name="S1->N1", src="S1", dst="N1", min_available_bps=900 * KBPS
    )
    rm = RmMiddleware(
        monitor, [requirement], stream=stream, advise_reallocation=False
    )
    StaircaseLoad(
        build.network.host("L"),
        build.network.ip_of("N1"),
        StepSchedule.pulse(10.0, 26.0, 500 * KBPS),
    ).start()
    monitor.start()
    build.network.run(40.0)
    return rm


class TestRmStreamMode:
    def test_hysteresis_bit_identical_to_snapshot_mode(self):
        snapshot_rm = run_rm_scenario(stream=False)
        stream_rm = run_rm_scenario(stream=True)
        snapshot_events = [
            (a.event.state, a.event.time) for a in snapshot_rm.actions
        ]
        stream_events = [
            (a.event.state, a.event.time) for a in stream_rm.actions
        ]
        assert snapshot_events == stream_events
        assert len(snapshot_rm.violations()) >= 1  # the pulse really bit
        detector_a = snapshot_rm.detectors["S1<->N1"]
        detector_b = stream_rm.detectors["S1<->N1"]
        assert detector_a.reports_seen == detector_b.reports_seen
        assert detector_a.state == detector_b.state

    def test_stream_mode_uses_adapter_not_callback(self):
        rm = run_rm_scenario(stream=True)
        assert len(rm.stream_adapters) == 1
        assert rm.stream_adapters[0].events_seen > 0
        assert rm.monitor.stream is not None
