"""The columnar matrix and stream path, held to the per-pair path it replaced.

``BandwidthMatrix.snapshot`` computes every pair's ``A``, trust status and
dirtiness as columns and composes a report only where a cell is read;
``MatrixPublisher.publish`` judges a cycle's pairs as columns and builds
events only for pairs that have one.  ``tests/stream_reference.py`` is
the eager snapshot and the per-pair publisher, filter and queries they
replaced.  Held here: the two deliver the same events, bit for bit, to
every kind of subscriber over any sequence of measurements, and on the
ledger's ``mesh_flat`` rig; and a publish cycle costs its connections and
its events, not its pairs.
"""

import math
from dataclasses import replace
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import BandwidthCalculator
from repro.core.dataflow import DegradedSourceSet
from repro.core.health import AgentHealthTracker
from repro.core.linkstate import LinkStateRegistry
from repro.core.matrix import BandwidthMatrix
from repro.core.poller import RateTable
from repro.experiments.scale import scale_spec
from repro.integrity.quarantine import QuarantineManager
from repro.stream import (
    MatrixPublisher,
    OverflowPolicy,
    PairChanged,
    PercentileQuery,
    QuantileDeadbandFilter,
    SubscriptionManager,
    ThresholdQuery,
    pair_key,
)
from repro.core.traversal import find_path
from repro.topology.graph import TopologyGraph
from tests import stream_reference as ref
from tests.costs import call_counts
from tests.synthetic import populate_rates
from repro.integrity.validators import IntegrityVerdict, Severity
from tests.dataflow_reference import RecomputingCalculator
from tests.test_dataflow import _NODES, _SOURCES, _SPEC, _op, sample, set_link


def fingerprint(event):
    """Everything an event says, floats by their bits: the dataclass repr
    (every float written round-trip exact, the report's included) and
    ``float.hex`` of the figures the repr leaves out or a reader compares."""
    out = [repr(event)]
    for name in ("available_bps", "previous_available_bps", "value"):
        value = getattr(event, name, None)
        if value is not None:
            out.append(float(value).hex())
    report = getattr(event, "report", None)
    if report is not None:
        out.append(float(report.available_bps).hex())
    return tuple(out)


def cells(snapshot):
    """A snapshot's cells as comparable text: pair, report repr, A bits."""
    return [
        (pair, repr(report), None if report is None else report.available_bps.hex())
        for pair, report in snapshot.reports.items()
    ]


# ----------------------------------------------------------------------
# Property: columns ≡ per pair, over any sequence of measurements
# ----------------------------------------------------------------------
# test_dataflow's topology (two switches, a hub pocket and a parallel
# uplink: switch and hub rules, shared uplinks, a topology that can
# reroute), its counter sources and their agents.
_HOSTS = [node.name for node in _SPEC.hosts()]
_PAIRS = [(a, b) for i, a in enumerate(_HOSTS) for b in _HOSTS[i + 1:]]

# Rates in bytes/s against 12.5 MB/s switch links and a 1.25 MB/s hub:
# idle, routine, near-saturated, saturated past capacity, and NaN.
_RATES = st.one_of(
    st.sampled_from([0.0, 1e5, 2e6, 6e6, 1.1e7, 1.3e7, math.nan]),
    st.floats(0.0, 1.3e7, allow_nan=False),
)

_OPS = st.one_of(
    st.tuples(st.just("sample"), st.integers(0, len(_SOURCES) - 1), _RATES),
    # A poll cycle: the instant advances and every source is re-sampled,
    # source i at rate * ((i + k) % 3 + 1) / 3, so every pair is dirty.
    st.tuples(st.just("poll"), st.integers(0, 2), _RATES),
    st.tuples(st.just("poll"), st.integers(0, 2), _RATES),
    _op("advance"),
    _op("tick"),  # a sub-poll instant: only ages move
    _op("same"),  # publish again at the same instant
    _op("stall"),  # ages cross stale_after, then dead_after
    _op("down", len(_SPEC.connections) - 1),
    _op("up", len(_SPEC.connections) - 1),
    _op("fail", len(_NODES) - 1),  # a dead agent: its paths go unavailable
    _op("ok", len(_NODES) - 1),
    _op("degrade", len(_SOURCES) - 1),
    _op("restore", len(_SOURCES) - 1),
    _op("block", len(_SPEC.connections) - 1),
    _op("unblock", len(_SPEC.connections) - 1),
    _op("rewire"),
    _op("drain"),
)


class _Side:
    """One stream stack over its own calculator: the product's
    (``product``) or the reference's, with the same subscribers and
    queries."""

    def __init__(self, product, inputs, graph, filtered, calculator_cls=BandwidthCalculator):
        rates, links, health, integrity, lossy = inputs
        calculator = calculator_cls(
            _SPEC, rates, stale_after=4.0, dead_after=12.0,
            health=health, integrity=integrity, degraded_sources=lossy,
        )
        calculator.link_state = links
        matrix_cls = BandwidthMatrix if product else ref.BandwidthMatrix
        self.matrix = matrix_cls(_SPEC, calculator, graph=graph)
        self.filter = None
        if filtered:
            self.filter = (QuantileDeadbandFilter if product else ref.QuantileDeadbandFilter)()
            self.filter.min_samples = 3  # warm within a short sequence
        publisher_cls = MatrixPublisher if product else ref.MatrixPublisher
        self.publisher = publisher_cls(
            self.matrix, manager=SubscriptionManager(), significance=self.filter
        )
        manager = self.publisher.manager
        self.log = {"all": [], "heartbeat": [], "slow": [], "few": []}
        manager.subscribe("all", callback=self._recorder("all"))
        manager.subscribe(
            "heartbeat", pairs=_PAIRS[:2], deliver_unchanged=True,
            callback=self._recorder("heartbeat"),
        )
        self.slow = manager.subscribe("slow", policy=OverflowPolicy.BLOCK, bound=4)
        self.few = manager.subscribe("few", pairs=_PAIRS[3:7], bound=8)
        threshold = ThresholdQuery if product else ref.ThresholdQuery
        percentile = PercentileQuery if product else ref.PercentileQuery
        self.queries = [
            threshold("starved", "available", "<", 2e6, for_samples=2),
            threshold("busy", "used", ">=", 3e6, pairs=tuple(_PAIRS[::2])),
            percentile(
                "p90", p=0.9, window_s=8.0, interval_s=2.0, threshold=0.3,
                pairs=tuple(_PAIRS[1::3]),
            ),
        ]
        for query, owner in zip(self.queries, ("all", "few", "all")):
            self.publisher.register_query(query, owner)

    def _recorder(self, name):
        return lambda event: self.log[name].append(fingerprint(event))

    def drain(self):
        self.log["slow"].extend(fingerprint(e) for e in self.slow.drain())
        self.log["few"].extend(fingerprint(e) for e in self.few.drain())


def _assert_same_state(product, oracle):
    assert product.publisher.stats() == oracle.publisher.stats()
    assert product.log == oracle.log
    for counter in ("pair_cache_hits", "pair_recomputes", "dirty_pairs_last",
                    "last_snapshot_rebuilt"):
        assert getattr(product.matrix, counter) == getattr(oracle.matrix, counter)
    assert product.matrix.calculator.lookups == oracle.matrix.calculator.lookups
    for a, b in _PAIRS:
        key = pair_key(a, b)
        if product.filter is not None:
            floors = (product.filter.noise_floor(key), oracle.filter.noise_floor(key))
            assert (floors[0] is None) == (floors[1] is None)
            if floors[0] is not None:
                assert floors[0].hex() == floors[1].hex()
            anchor = product.filter.last_delivered(product.filter.slots([key]))[0]
            assert anchor.hex() == oracle.filter.last_delivered(key).hex()
        for mine, theirs in zip(product.queries, oracle.queries):
            assert mine.firing(key) == theirs.firing(key)
        assert product.queries[2].value(key).hex() == oracle.queries[2].value(key).hex()


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=40), filtered=st.booleans())
# A starved streak interrupted by a dead agent is held, not restarted.
@example(
    ops=[("poll", 0, 1.3e7), ("fail", 0, 0.0), ("ok", 0, 0.0), ("poll", 0, 1.3e7)],
    filtered=True,
)
def test_columns_publish_what_the_per_pair_path_did(ops, filtered):
    rates = RateTable()
    populate_rates(_SPEC, rates, time=0.0)
    links = LinkStateRegistry(_SPEC, {})
    health = AgentHealthTracker()
    inputs = (rates, links, health, QuarantineManager(), DegradedSourceSet())
    lossy = inputs[-1]
    graph = TopologyGraph(_SPEC)  # both matrices see one active view
    product = _Side(True, inputs, graph, filtered)
    oracle = _Side(False, inputs, graph, filtered)
    blocked = set()
    t = 0.5
    for op, index, arg in ops:
        if op == "sample":
            rates.update(sample(_SOURCES[index].node, _SOURCES[index].if_index, t, arg))
        elif op == "poll":
            t += 2.0
            for i, source in enumerate(_SOURCES):
                bps = arg * ((i + index) % 3 + 1) / 3
                rates.update(sample(source.node, source.if_index, t, bps))
        elif op == "advance":
            t += 2.0
        elif op == "tick":
            t += 0.5
        elif op == "stall":
            t += 5.0
        elif op in ("down", "up"):
            set_link(links, _SPEC.connections[index], up=op == "up")
        elif op == "fail":
            for _ in range(5):
                health.record_failure(_NODES[index], t)
        elif op == "ok":
            health.record_success(_NODES[index], t)
        elif op == "degrade":
            lossy.mark(*_SOURCES[index].key())
        elif op == "restore":
            lossy.clear(*_SOURCES[index].key())
        elif op in ("block", "unblock"):
            (blocked.add if op == "block" else blocked.discard)(index)
            graph.set_blocked([_SPEC.connections[i] for i in sorted(blocked)])
        elif op == "rewire":
            graph.invalidate_paths()
        elif op == "drain":
            product.drain()
            oracle.drain()
        got = product.publisher.publish(t)
        want = oracle.publisher.publish(t)
        assert cells(got) == cells(want)
        dirty = {pair for pair, moved in zip(got.reports, got.reports.dirty) if moved}
        assert dirty == oracle.matrix.last_dirty_pairs
        _assert_same_state(product, oracle)
    product.drain()
    oracle.drain()
    _assert_same_state(product, oracle)


# ----------------------------------------------------------------------
# Property: the report cache keyed on rate epochs ≡ the parent's
# ----------------------------------------------------------------------
_CACHE_OPS = st.one_of(
    # A poll cycle: every source re-sampled at a new instant -- those in
    # ``moved`` (a bit mask) at the drawn rate, the rest at their own last
    # rates: a quiet interface's sample, moved in time alone.
    st.tuples(st.just("poll"), st.integers(0, 2 ** len(_SOURCES) - 1), _RATES),
    st.tuples(st.just("poll"), st.just(0), st.just(0.0)),
    st.tuples(st.just("sample"), st.integers(0, len(_SOURCES) - 1), _RATES),
    st.tuples(st.just("again"), st.integers(0, len(_SOURCES) - 1), st.just(0.0)),
    _op("advance"),
    _op("tick"),
    _op("stall"),
    _op("down", len(_SPEC.connections) - 1),
    _op("up", len(_SPEC.connections) - 1),
    _op("fail", len(_NODES) - 1),
    _op("ok", len(_NODES) - 1),
    _op("violate", len(_SOURCES) - 1),
    _op("clean", len(_SOURCES) - 1),
    _op("degrade", len(_SOURCES) - 1),
    _op("restore", len(_SOURCES) - 1),
    _op("drain"),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_CACHE_OPS, min_size=1, max_size=40), filtered=st.booleans())
@example(ops=[("poll", 1, math.nan), ("poll", 0, 0.0)], filtered=False)  # NaN rates
def test_a_measurement_moves_with_its_rates_and_reports_as_the_parents(ops, filtered):
    """The product's calculator re-times a cached measurement to a newer
    sample with the same rates; the parent's
    (``tests/dataflow_reference.py::RecomputingCalculator``) measured it
    afresh.  Over moved and unmoved samples and link-state, health,
    integrity and degraded-source changes: every field of every watch
    report, every matrix cell and every stream event is the parent's, bit
    for bit -- and the product recomputes no more than the parent."""
    rates = RateTable()
    inputs = (rates, LinkStateRegistry(_SPEC, {}), AgentHealthTracker(),
              QuarantineManager(), DegradedSourceSet())
    _rates, links, health, integrity, lossy = inputs
    graph = TopologyGraph(_SPEC)
    product = _Side(True, inputs, graph, filtered)
    parent = _Side(True, inputs, graph, filtered, calculator_cls=RecomputingCalculator)
    watched = find_path(graph, _HOSTS[0], _HOSTS[-1])
    bounds = [side.matrix.calculator.bind(watched) for side in (product, parent)]
    last = {}  # source index -> (its last rate, when)
    t = 0.5

    def resample(i, bps):
        # The interval is the time since this source's last sample: it
        # moves with the instant, rates or no rates.
        interval = t - last[i][1] if i in last and t > last[i][1] else 2.0
        last[i] = bps, t
        source = _SOURCES[i]
        rates.update(replace(sample(source.node, source.if_index, t, bps), interval=interval))

    for i in range(len(_SOURCES)):
        resample(i, 1e5 * (i + 1))
    for op, index, arg in ops:
        if op == "poll":
            t += 2.0
            for i in range(len(_SOURCES)):
                resample(i, arg if index >> i & 1 else last[i][0])
        elif op == "sample":
            resample(index, arg)
        elif op == "again":
            resample(index, last[index][0])
        elif op == "advance":
            t += 2.0
        elif op == "tick":
            t += 0.5
        elif op == "stall":
            t += 5.0
        elif op in ("down", "up"):
            set_link(links, _SPEC.connections[index], up=op == "up")
        elif op == "fail":
            for _ in range(5):
                health.record_failure(_NODES[index], t)
        elif op == "ok":
            health.record_success(_NODES[index], t)
        elif op == "violate":
            node, if_index = _SOURCES[index].key()
            verdict = IntegrityVerdict("rate_bound", Severity.VIOLATION, node, if_index, t)
            integrity.apply(node, if_index, [verdict], t)
        elif op == "clean":
            integrity.record_clean(*_SOURCES[index].key(), t)
        elif op == "degrade":
            lossy.mark(*_SOURCES[index].key())
        elif op == "restore":
            lossy.clear(*_SOURCES[index].key())
        elif op == "drain":
            product.drain()
            parent.drain()
        reports = [
            side.matrix.calculator.measure_path(bound, _HOSTS[0], _HOSTS[-1], t, name="w")
            for side, bound in zip((product, parent), bounds)
        ]
        # Every field by its repr: floats round-trip exact, NaN and -0.0 included.
        assert repr(reports[0]) == repr(reports[1]), op
        assert reports[0].available_bps.hex() == reports[1].available_bps.hex()
        got, want = product.publisher.publish(t), parent.publisher.publish(t)
        assert cells(got) == cells(want), op
        assert list(got.reports.dirty) == list(want.reports.dirty), op
        assert product.log == parent.log, op
        assert product.publisher.stats() == parent.publisher.stats()
    mine, theirs = (side.matrix.calculator for side in (product, parent))
    assert mine.lookups == theirs.lookups and mine.recomputes <= theirs.recomputes


# ----------------------------------------------------------------------
# The ledger's mesh_flat rig, event for event
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7])
def test_mesh_flat_rig_publishes_what_the_per_pair_path_did(seed):
    from bench.workloads import POLL_INTERVAL, MeshFlat

    rig = MeshFlat(seed, cycles=30)
    rig.spec()
    rig.build()
    rig.start()
    monitor = rig.monitor
    publisher = monitor.stream
    oracle = ref.MatrixPublisher(
        ref.BandwidthMatrix(monitor.spec, monitor.calculator, graph=monitor.graph),
        significance=ref.QuantileDeadbandFilter(),
    )
    logs = {"product": {}, "oracle": {}}
    for sub in publisher.manager.subscriptions():
        mine = logs["product"][sub.name] = []
        theirs = logs["oracle"][sub.name] = []

        def record(event, log=mine, forward=sub.callback):
            log.append(fingerprint(event))
            forward(event)

        sub.callback = record
        oracle.manager.subscribe(
            sub.name, pairs=sub.pairs,
            callback=lambda event, log=theirs: log.append(fingerprint(event)),
        )
    for query in publisher.queries():
        oracle.register_query(
            ref.ThresholdQuery(
                query.name, query.metric, query.op, query.threshold, query.for_samples
            ),
            publisher._query_owner[query.name],
        )
    publish = publisher.publish

    def both(time):
        snapshot = publish(time)
        oracle.publish(time)
        return snapshot

    publisher.publish = both
    rig.network.run(MeshFlat.WARM_UNTIL + 30 * POLL_INTERVAL)
    assert publisher.cycles >= 30
    assert publisher.stats() == oracle.stats()
    assert sum(map(len, logs["product"].values())) > 100
    assert logs["product"] == logs["oracle"]
    # The rig's own check: subscribers saw what the manager delivered.
    assert rig.events_seen == publisher.stats()["delivered"]


# ----------------------------------------------------------------------
# Cost: a publish cycle is its connections and its events
# ----------------------------------------------------------------------
class TestPublishCost:
    # The ledger's mesh_flat matrix: 36 hosts, 630 pairs, 41 connections,
    # with its 64 three-pair subscribers and its all-pairs query.
    SPEC = scale_spec(switches=6, hosts_per_switch=6, arity=1, redundant_uplinks=1)

    def _rig(self, subscribers=64):
        rates = RateTable()
        populate_rates(self.SPEC, rates, time=0.0)
        calc = BandwidthCalculator(self.SPEC, rates, stale_after=5.0, dead_after=12.0)
        publisher = MatrixPublisher(
            BandwidthMatrix(self.SPEC, calc), significance=QuantileDeadbandFilter()
        )
        rng = random.Random(0)
        hosts = publisher.matrix.hosts
        self.seen = []
        for i in range(subscribers):
            publisher.manager.subscribe(
                f"sub{i}", pairs=[tuple(rng.sample(hosts, 2)) for _ in range(3)],
                callback=self.seen.append,
            )
        if subscribers:
            publisher.register_query(
                ThresholdQuery("starved", "available", "<", 1e6, for_samples=2), "sub0"
            )
        # Warm: every interface re-sampled each cycle, the filter learns.
        for k in range(12):
            populate_rates(self.SPEC, rates, time=2.0 * k, seed=k % 3)
            publisher.publish(2.0 * k + 0.5)
        populate_rates(self.SPEC, rates, time=24.0, seed=5)
        # Every connection moved.  Validating the 41 of them is the
        # calculator's cost (TestReportCost in test_dataflow.py holds it),
        # paid here before the count, as a monitor's watches pay it before
        # its publisher runs; their tokens still read as moved.
        matrix = publisher.matrix
        calc.refresh(matrix._conns, 24.5)
        return publisher

    def test_a_publish_cycle_costs_its_pairs_and_its_events(self):
        publisher = self._rig()
        del self.seen[:]
        calls = call_counts(lambda: publisher.publish(24.5), by_file=True)
        candidates = publisher.matrix.dirty_pairs_last
        assert candidates == 630
        by_name = Counter()
        for (_, name), n in calls.items():
            by_name[name] += n
        emitted = by_name["deliver"] + by_name["deliver_to"]
        assert emitted > 0
        # 11 calls a pair judged one by one (12.6 with the snapshot);
        # now the 41 connections, a few array passes, and the events.
        assert sum(calls.values()) <= 2 * candidates + 40 * emitted
        # A report is composed for each pair an event carries, and for
        # no other cell.
        carried = {e.pair for e in self.seen if isinstance(e, PairChanged)}
        assert by_name["compose"] == len(carried)

    def test_a_cycle_nobody_reads_composes_nothing(self):
        publisher = self._rig(subscribers=0)
        calls = call_counts(lambda: publisher.publish(24.5))
        assert publisher.matrix.dirty_pairs_last == 630
        assert calls["compose"] == 0
        assert calls["__post_init__"] == 0  # no report, no measurement built
        assert sum(calls.values()) <= 2 * 630
