"""Incremental dataflow: epoch stamping and incremental ≡ full recompute.

The cache-coherence contract (see ``src/repro/core/dataflow.py``): the
incremental pipeline may only ever change how much work is done, never a
single output bit.  The hypothesis test at the bottom drives randomized
sample / link-flap / health / quarantine sequences through an incremental
matrix and a naive from-scratch one and requires exact report equality
after every operation.
"""

import struct
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import BandwidthCalculator
from repro.core.counters import if_index_of
from repro.core.dataflow import ConnCacheEntry, DegradedSourceSet
from repro.core.health import AgentHealthTracker
from repro.core.hierarchy import HierarchicalMonitor
from repro.core.linkstate import LinkStateRegistry
from repro.core.matrix import STATUSES, BandwidthMatrix, MatrixError, MatrixSnapshot
from repro.core.monitor import NetworkMonitor, ReportCore
from repro.core.poller import InterfaceRates, RateTable
from repro.core.report import ConnectionMeasurement, PathReport
from repro.core.traversal import NoPathError, find_path, pair_redundant
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.experiments.testbed import TESTBED_SPEC_TEXT
from repro.integrity.quarantine import QuarantineManager
from repro.integrity.validators import IntegrityVerdict, Severity
from repro.simnet.address import IPv4Address
from repro.snmp.datatypes import Integer, TimeTicks
from repro.snmp.mib import IF_INDEX
from repro.snmp.pdu import VarBind
from repro.snmp.trap import TRAP_LINK_DOWN, TRAP_LINK_UP, TrapEvent
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.stream import MatrixPublisher
from repro.telemetry import Telemetry
from repro.topology.graph import TopologyGraph
from repro.topology.model import ConnectionSpec, InterfaceRef
from tests.costs import call_counts
from tests.dataflow_reference import find_all_paths, reference_redundant, reference_snapshot
from tests.synthetic import populate_rates


def _bits(value):
    """A float's IEEE-754 bytes: equal only when bit-identical (NaN too)."""
    return struct.pack("<d", value)


def set_link(ls, conn, up):
    """Flip ``conn`` through the registry's ifOperStatus sink, as a poll
    of its first end's interface would."""
    end = conn.end_a
    ls.apply_oper_status(end.node, if_index_of(ls.spec.node(end.node), end.interface), up)


def sample(node, if_index, time, bps=1e6):
    return InterfaceRates(
        node=node,
        if_index=if_index,
        time=time,
        interval=2.0,
        in_bytes_per_s=bps / 2.0,
        out_bytes_per_s=bps / 2.0,
        in_pkts_per_s=bps / 1500.0,
        out_pkts_per_s=bps / 1500.0,
    )


# ----------------------------------------------------------------------
# Epoch sources
# ----------------------------------------------------------------------
class TestEpochSources:
    def test_rate_table_bumps_per_ingest(self):
        rates = RateTable()
        assert rates.clock == 0
        assert rates.epoch("A", 1) == 0
        rates.update(sample("A", 1, 0.0))
        assert rates.epoch("A", 1) == 1
        rates.update(sample("B", 2, 0.0))
        assert rates.epoch("B", 2) == 2
        assert rates.epoch("A", 1) == 1  # untouched key keeps its stamp
        rates.update(sample("A", 1, 2.0))
        assert rates.epoch("A", 1) == 3
        assert rates.clock == 3

    def test_link_state_bumps_only_on_flips(self):
        spec = scale_spec(switches=1, hosts_per_switch=2)
        conn = spec.connections[0]
        end = conn.end_a
        agent = IPv4Address("10.0.0.1")
        ls = LinkStateRegistry(spec, {end.node: agent})
        idx = if_index_of(spec.node(end.node), end.interface)
        uptimes = iter(range(100, 1000, 100))

        def trap(kind):
            return TrapEvent(
                agent, TimeTicks(next(uptimes)), kind,
                (VarBind(IF_INDEX + str(idx), Integer(idx)),), 0.0,
            )

        assert ls.epoch_of(conn) == 0
        assert ls.apply_trap(trap(TRAP_LINK_DOWN)) is conn
        first = ls.epoch_of(conn)
        assert first == 1
        ls.apply_trap(trap(TRAP_LINK_DOWN))  # redundant: no flip, no bump
        assert ls.epoch_of(conn) == first
        ls.apply_trap(trap(TRAP_LINK_UP))
        assert ls.epoch_of(conn) == 2
        ls.apply_trap(trap(TRAP_LINK_UP))
        assert ls.epoch_of(conn) == 2
        assert (ls.clock, ls.events_applied) == (2, 4)

    def test_oper_status_bumps_only_on_flips(self):
        spec = scale_spec(switches=1, hosts_per_switch=2)
        ls = LinkStateRegistry(spec, {})
        conn = spec.connections[0]
        end = conn.end_a
        idx = if_index_of(spec.node(end.node), end.interface)
        ls.apply_oper_status(end.node, idx, up=True)  # already up
        assert ls.clock == 0
        ls.apply_oper_status(end.node, idx, up=False)
        assert ls.clock == 1
        ls.apply_oper_status(end.node, idx, up=False)
        assert ls.clock == 1

    def test_health_bumps_on_transitions_only(self):
        health = AgentHealthTracker()
        health.suspect_after, health.dead_after = 2, 3
        assert health.epoch_of("A") == 0
        health.record_success("A", 1.0)  # HEALTHY -> HEALTHY: no bump
        assert health.epoch_of("A") == 0
        health.record_failure("A", 2.0)  # -> DEGRADED
        assert health.epoch_of("A") == 1
        health.record_failure("A", 3.0)  # -> SUSPECT
        assert health.epoch_of("A") == 2
        health.record_failure("A", 4.0)  # -> DEAD
        assert health.epoch_of("A") == 3
        health.record_failure("A", 5.0)  # DEAD -> DEAD: no bump
        assert health.epoch_of("A") == 3
        assert health.clock == 3

    def test_quarantine_bumps_on_enter_and_release_only(self):
        qm = QuarantineManager()

        def violate(t):
            qm.apply(
                "A",
                1,
                [IntegrityVerdict("rate_bound", Severity.VIOLATION, "A", 1, t)],
                t,
            )

        violate(1.0)  # score 0.5: not yet quarantined
        assert qm.epoch_of("A", 1) == 0
        violate(2.0)  # score 0.25 < 0.3: enters quarantine
        assert qm.is_quarantined("A", 1)
        assert qm.epoch_of("A", 1) == 1
        violate(3.0)  # deeper, but already quarantined: no bump
        assert qm.epoch_of("A", 1) == 1
        for i in range(8):  # recover to >= 0.8: releases once
            qm.record_clean("A", 1, 4.0 + i)
        assert not qm.is_quarantined("A", 1)
        assert qm.epoch_of("A", 1) == 2
        assert qm.clock == 2


# ----------------------------------------------------------------------
# Traversal: iterative DFS + path memoization
# ----------------------------------------------------------------------
class TestTraversal:
    def test_deep_chain_does_not_hit_recursion_limit(self):
        # 1200 chained switches: the old recursive DFS would raise
        # RecursionError well before reaching the far end.
        spec = scale_spec(switches=1200, hosts_per_switch=1, arity=1)
        path = find_path(spec, "h0_0", "h1199_0")
        assert len(path) == 1201  # host leg + 1199 inter-switch + host leg

    def test_find_all_paths_iterative_matches_semantics(self):
        spec = scale_spec(switches=3, hosts_per_switch=2, arity=1)
        paths = find_all_paths(spec, "h0_0", "h2_1")
        assert len(paths) == 1  # trees have exactly one simple path
        assert paths[0] == find_path(spec, "h0_0", "h2_1")

    def test_graph_path_cache_hit_and_invalidate(self):
        spec = scale_spec(switches=2, hosts_per_switch=2, arity=1)
        graph = TopologyGraph(spec)
        first = find_path(graph, "h0_0", "h1_1")
        hit, stored = graph.cached_path("h0_0", "h1_1")
        assert hit and list(stored) == first
        again = find_path(graph, "h0_0", "h1_1")
        assert again == first
        assert again is not first  # callers get their own list
        epoch = graph.topology_epoch
        graph.invalidate_paths()
        assert graph.topology_epoch == epoch + 1
        assert graph.cached_path("h0_0", "h1_1") == (False, None)

    def test_disconnection_is_memoized_as_no_path(self):
        from repro.topology.model import (
            InterfaceSpec,
            NodeSpec,
            TopologySpec,
        )

        spec = TopologySpec(
            "islands",
            [
                NodeSpec("a", interfaces=[InterfaceSpec("eth0")]),
                NodeSpec("b", interfaces=[InterfaceSpec("eth0")]),
            ],
            [],
        )
        graph = TopologyGraph(spec)
        with pytest.raises(NoPathError):
            find_path(graph, "a", "b")
        hit, stored = graph.cached_path("a", "b")
        assert hit and stored is None
        with pytest.raises(NoPathError):  # served from the memo
            find_path(graph, "a", "b")

    def test_bare_spec_calls_do_not_populate_any_cache(self):
        spec = scale_spec(switches=2, hosts_per_switch=2, arity=1)
        find_path(spec, "h0_0", "h1_1")  # builds a throwaway graph


# ----------------------------------------------------------------------
# Vectorized MatrixSnapshot.values()
# ----------------------------------------------------------------------
class TestMatrixValues:
    def _snapshot(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1, hub_pockets=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        return BandwidthMatrix(spec, calc).snapshot(2.0)

    def test_matches_scalar_reference(self):
        snap = self._snapshot()
        for metric in ("available", "used", "utilization"):
            got = snap.values(metric)
            n = len(snap.hosts)
            want = np.full((n, n), np.nan)
            for i, a in enumerate(snap.hosts):
                for j, b in enumerate(snap.hosts):
                    if i >= j:
                        continue
                    report = snap.report(a, b)
                    if report is None:
                        continue
                    if metric == "available":
                        value = report.available_bps
                    elif metric == "used":
                        value = report.used_bps
                    else:
                        bn = report.bottleneck
                        value = bn.utilization if bn else 0.0
                    want[i, j] = want[j, i] = value
            assert np.array_equal(got, want, equal_nan=True)

    def test_diagonal_and_disconnected_stay_nan(self):
        snap = self._snapshot()
        values = snap.values()
        assert np.all(np.isnan(np.diag(values)))
        disconnected = MatrixSnapshot(
            hosts=["a", "b"], time=0.0, reports={("a", "b"): None}
        )
        assert np.all(np.isnan(disconnected.values()))

    def test_unknown_metric_raises(self):
        snap = self._snapshot()
        with pytest.raises(MatrixError):
            snap.values("latency")

    def test_returned_array_is_a_private_copy(self):
        snap = self._snapshot()
        first = snap.values()
        first[0, 1] = -1.0
        assert snap.values()[0, 1] != -1.0


# ----------------------------------------------------------------------
# Incremental matrix bookkeeping
# ----------------------------------------------------------------------
class TestIncrementalMatrix:
    def test_same_time_snapshot_reuses_reports_verbatim(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        matrix = BandwidthMatrix(spec, calc)
        s1 = matrix.snapshot(2.0)
        s2 = matrix.snapshot(2.0)
        for key, report in s1.reports.items():
            assert s2.reports[key] is report
        assert matrix.pair_cache_hits == len(s1.reports)

    def test_dirty_connection_recomputes_only_crossing_pairs(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        matrix = BandwidthMatrix(spec, calc)
        matrix.snapshot(2.0)
        # Touch one host leg: pairs involving that host are dirty, the
        # rest reuse verbatim at the same instant.
        conn = spec.connections[0]  # h0_0 <-> sw0
        from repro.core.counters import resolve_counter_source

        source = resolve_counter_source(spec, conn)
        rates.update(sample(source.node, source.if_index, 2.0, bps=5e6))
        before_hits = matrix.pair_cache_hits
        snap = matrix.snapshot(2.0)
        n = len(matrix.hosts)
        dirty = matrix.dirty_pairs_last
        assert dirty == n - 1  # every pair touching h0_0
        assert matrix.pair_cache_hits - before_hits == len(snap.reports) - dirty

    def test_topology_invalidation_rebuilds_paths(self):
        spec = scale_spec(switches=2, hosts_per_switch=3, arity=1)
        rates = RateTable()
        populate_rates(spec, rates, time=0.0)
        calc = BandwidthCalculator(spec, rates)
        matrix = BandwidthMatrix(spec, calc)
        s1 = matrix.snapshot(2.0)
        matrix.graph.invalidate_paths()
        s2 = matrix.snapshot(2.0)  # must not reuse pre-invalidation state
        assert s1.reports == s2.reports
        for key in s1.reports:
            assert s2.reports[key] is not s1.reports[key]


# ----------------------------------------------------------------------
# Property: incremental ≡ full recompute, bit-identical
# ----------------------------------------------------------------------
# Small-but-complete topology: two switches, a hub pocket, switch and hub
# rules, shared inter-switch uplink on most paths.
_SPEC = scale_spec(
    switches=2, hosts_per_switch=2, arity=1, hub_pockets=1, hub_hosts=2,
    redundant_uplinks=1,  # a parallel uplink so topology churn can reroute
)
_SOURCES = []
for _conn in _SPEC.connections:
    from repro.core.counters import resolve_counter_source as _rcs

    _src = _rcs(_SPEC, _conn)
    if _src is not None and _src.key() not in {s.key() for s in _SOURCES}:
        _SOURCES.append(_src)
_NODES = sorted({s.node for s in _SOURCES})

def _op(name, high=0):
    return st.tuples(st.just(name), st.integers(0, high), st.just(0.0))


_OPS = st.one_of(
    st.tuples(
        st.just("sample"),
        st.integers(0, len(_SOURCES) - 1),
        st.floats(0.0, 1e7, allow_nan=False),
    ),
    _op("advance"),
    # A sub-poll advance (the probe round interval): the instant moves
    # and no input clock does, interleaved with the input changes below.
    _op("tick"),
    # Polls lost for a while: ages cross ``stale_after`` on re-ageing alone.
    _op("stall"),
    _op("down", len(_SPEC.connections) - 1),
    _op("up", len(_SPEC.connections) - 1),
    _op("fail", len(_NODES) - 1),
    _op("ok", len(_NODES) - 1),
    _op("violate", len(_SOURCES) - 1),
    _op("clean", len(_SOURCES) - 1),
    _op("degrade", len(_SOURCES) - 1),
    _op("restore", len(_SOURCES) - 1),
    # The probe plane opens / lifts its dispute cap on the watched pair.
    _op("cap"),
    _op("uncap"),
    # Topology churn: spanning-tree blocking/unblocking connections in
    # the shared graph's active view, plus a bare epoch bump.  Paths
    # re-resolve (possibly to "disconnected"); the matrix and the watch
    # must still match the from-scratch reference bit for bit.
    _op("block", len(_SPEC.connections) - 1),
    _op("unblock", len(_SPEC.connections) - 1),
    _op("rewire"),
)


class _ProbeCap:
    """The one thing the report core asks of a prober."""

    cap = None

    def confidence_cap_for(self, label):
        return self.cap


def _report_core(calc, graph, prober):
    """A :class:`ReportCore` over ``calc`` with no network behind it:
    watches, ``current_report`` and ``watch_trust`` are the real code."""
    core = ReportCore.__new__(ReportCore)
    core.calculator, core.graph, core.prober = calc, graph, prober
    core.sim = SimpleNamespace(now=0.0)
    core.telemetry = Telemetry.disabled()
    core._m_reroutes = core.telemetry.registry.counter("path_reroutes_total", "")
    core.stream = None
    core._watches = {}
    return core


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=40))
def test_incremental_equals_full_recompute(ops):
    rates = RateTable()
    ls = LinkStateRegistry(_SPEC, {})
    health = AgentHealthTracker()
    qm = QuarantineManager()
    lossy = DegradedSourceSet()
    calc = BandwidthCalculator(
        _SPEC,
        rates,
        stale_after=4.0,
        dead_after=12.0,
        health=health,
        integrity=qm,
        degraded_sources=lossy,
    )
    calc.link_state = ls
    incremental = BandwidthMatrix(_SPEC, calc)
    graph = incremental.graph  # the reference traverses the same active view
    # A watch holds one bound path across the topology churn and re-binds
    # the way ``_refresh_watch`` does, because it *is* ``_refresh_watch``.
    prober = _ProbeCap()
    core = _report_core(calc, graph, prober)
    src, dst = "n0_1", "h1_1"  # hub pocket, then the redundant uplink
    label = core.watch_path(src, dst)
    blocked_idx = set()
    t = 0.0
    for step, (op, index, arg) in enumerate(ops):
        if op == "sample":
            source = _SOURCES[index]
            rates.update(sample(source.node, source.if_index, t, bps=arg))
        elif op == "advance":
            t += 2.0
        elif op == "tick":
            t += 0.096
        elif op == "stall":
            t += 5.0
        elif op in ("down", "up"):
            set_link(ls, _SPEC.connections[index], up=op == "up")
        elif op == "fail":
            health.record_failure(_NODES[index], t)
        elif op == "ok":
            health.record_success(_NODES[index], t)
        elif op == "violate":
            source = _SOURCES[index]
            qm.apply(
                source.node,
                source.if_index,
                [
                    IntegrityVerdict(
                        "rate_bound", Severity.VIOLATION, source.node,
                        source.if_index, t,
                    )
                ],
                t,
            )
        elif op == "clean":
            source = _SOURCES[index]
            qm.record_clean(source.node, source.if_index, t)
        elif op == "degrade":
            lossy.mark(*_SOURCES[index].key())
        elif op == "restore":
            lossy.clear(*_SOURCES[index].key())
        elif op == "cap":
            prober.cap = 0.4
        elif op == "uncap":
            prober.cap = None
        elif op == "block":
            blocked_idx.add(index)
            graph.set_blocked([_SPEC.connections[i] for i in sorted(blocked_idx)])
        elif op == "unblock":
            blocked_idx.discard(index)
            graph.set_blocked([_SPEC.connections[i] for i in sorted(blocked_idx)])
        elif op == "rewire":
            graph.invalidate_paths()
        core.sim.now = t
        # The pick query, asked before anything else validated the entries
        # at this instant on even steps and after the matrix did on odd.
        trust = core.watch_trust(label) if step % 2 == 0 else None
        # Every third step only the watch reports, so entries off its path
        # fall more than one stamp behind before the matrix next asks.
        if step % 3 != 2:
            got = incremental.snapshot(t)
            want = reference_snapshot(incremental, t)
            # Exact equality, field by field: confidence, trusted/degraded
            # flags, freshness, the redundancy flag, every
            # ConnectionMeasurement.  Caching must be invisible in the
            # output.  ``available_bps`` is derived, so outside equality:
            # held bit for bit on its own.
            assert got.reports == want.reports
            columns = got.reports
            for i, (pair, cell) in enumerate(got.reports.items()):
                if cell is not None:
                    assert _bits(cell.available_bps) == _bits(
                        want.reports[pair].available_bps
                    )
                    # What the columns say of a pair is what its report says.
                    assert _bits(columns.available[i]) == _bits(cell.available_bps)
                    assert STATUSES[columns.status[i]] == cell.status
                    assert _bits(columns.column("used")[i]) == _bits(cell.used_bps)
                    assert _bits(columns.column("utilization")[i]) == _bits(
                        cell.bottleneck.utilization
                    )
            assert np.array_equal(got.values(), want.values(), equal_nan=True)
            assert np.array_equal(
                got.values("utilization"), want.values("utilization"),
                equal_nan=True,
            )
        # The watch: its held, re-bound path against the same path from
        # scratch; and the pick query against the report it stands for.
        report = core.current_report(label)
        raw = core.current_report(label, _probe_cap=False)
        scratch = calc.measure_path(
            core.path_of(label), src, dst, time=t, name=label, fresh=True,
            redundant=reference_redundant(graph, src, dst),
        )
        assert raw == scratch
        assert _bits(raw.available_bps) == _bits(scratch.available_bps)
        if trust is None:
            trust = core.watch_trust(label)
        assert trust == (report.confidence, report.degraded)
        if prober.cap is not None:
            assert report.confidence <= prober.cap and report.degraded


# ----------------------------------------------------------------------
# Redundancy: a matrix cell carries its pair's flag, by the bridge rule
# ----------------------------------------------------------------------
def _host_pairs(spec):
    hosts = [node.name for node in spec.hosts()]
    return [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]]


def _fresh_matrix(spec, graph=None):
    rates = RateTable()
    populate_rates(spec, rates, time=0.0)
    return BandwidthMatrix(spec, BandwidthCalculator(spec, rates), graph=graph)


class TestMatrixRedundancy:
    # The ledger's mesh_flat topology: a chain of six switches, each
    # uplink doubled by a parallel spare.
    MESH = scale_spec(switches=6, hosts_per_switch=6, arity=1, redundant_uplinks=1)

    def test_cells_carry_the_pairs_redundancy(self):
        matrix = _fresh_matrix(self.MESH)
        cells = matrix.snapshot(2.0).reports
        # Every pair that crosses an uplink can fail over; the 6 x 15
        # pairs that share a switch have one path.
        assert sum(cell.redundant for cell in cells.values()) == 540
        assert cells[("h0_1", "h5_2")].redundant
        assert not cells[("h0_1", "h0_2")].redundant
        for (a, b), cell in cells.items():
            assert cell.redundant == reference_redundant(matrix.graph, a, b)

    def test_a_watch_and_the_cell_agree(self):
        build = build_network(self.MESH)
        monitor = NetworkMonitor(build, "h0_0", poll_jitter=0.0)
        for a, b in (("h0_1", "h5_2"), ("h0_1", "h0_2")):
            monitor.watch_path(a, b)
        # The watch asks pair_redundant once, when it binds its path.
        with mock.patch("repro.core.monitor.pair_redundant") as asked:
            monitor.start()
            build.network.run(7.0)
        assert not asked.called
        watched = {
            (r.src, r.dst): r.redundant
            for r in (monitor.current_report(label) for label in monitor.watched_paths())
        }
        cells = _fresh_matrix(self.MESH, monitor.graph).snapshot(2.0).reports
        assert watched == {pair: cells[pair].redundant for pair in watched}
        assert watched == {("h0_1", "h5_2"): True, ("h0_1", "h0_2"): False}

    def test_stream_events_carry_it(self):
        matrix = _fresh_matrix(self.MESH)
        publisher = MatrixPublisher(matrix)
        events = []
        publisher.manager.subscribe(
            "rm", pairs=[("h0_1", "h5_2"), ("h0_1", "h0_2")], callback=events.append
        )
        publisher.publish(2.0)
        flags = {event.pair: event.report.redundant for event in events}
        assert flags == {("h0_1", "h5_2"): True, ("h0_1", "h0_2"): False}

    def test_figure3_testbed(self):
        matrix = _fresh_matrix(parse_spec(TESTBED_SPEC_TEXT))
        for (a, b), cell in matrix.snapshot(2.0).reports.items():
            assert cell.redundant == reference_redundant(matrix.graph, a, b)

    def test_bridges_are_computed_once_per_graph(self):
        graph = TopologyGraph(self.MESH)
        assert graph.bridges() is graph.bridges()
        # 36 host legs; every uplink has its parallel twin.
        assert len(graph.bridges()) == 36


@settings(max_examples=60, deadline=None)
@given(
    switches=st.integers(1, 5),
    hosts_per_switch=st.integers(1, 3),
    arity=st.integers(1, 3),
    hubs=st.integers(0, 5),
    hub_hosts=st.integers(1, 3),
    redundant_uplinks=st.integers(0, 2),
    blocked=st.sets(st.integers(0, 63), max_size=4),
)
def test_bridge_rule_equals_path_enumeration(
    switches, hosts_per_switch, arity, hubs, hub_hosts, redundant_uplinks, blocked
):
    """A pair has >= 2 simple physical paths iff some connection on one of
    its paths is not a bridge: ``pair_redundant``'s rule -- on the path it
    walks itself, on the active path a caller hands it, and per distinct
    connection in the matrix's cells -- against
    ``find_all_paths(max_paths=2)`` on every host pair, with spanning
    tree blocking some connections out of the active view."""
    spec = scale_spec(
        switches=switches, hosts_per_switch=hosts_per_switch, arity=arity,
        hub_pockets=min(hubs, switches), hub_hosts=hub_hosts,
        redundant_uplinks=redundant_uplinks,
    )
    graph = TopologyGraph(spec)
    graph.set_blocked([spec.connections[i % len(spec.connections)] for i in blocked])
    cells = _fresh_matrix(spec, graph).snapshot(2.0).reports
    for a, b in _host_pairs(spec):
        enumerated = len(find_all_paths(graph, a, b, max_paths=2)) >= 2
        assert pair_redundant(graph, a, b) == enumerated
        try:
            path = find_path(graph, a, b)
        except NoPathError:
            assert cells[(a, b)] is None
            continue
        assert pair_redundant(graph, a, b, path) == enumerated
        assert cells[(a, b)].redundant == enumerated


# ----------------------------------------------------------------------
# A = min(a_i): computed once per measurement and once per report, the
# same float as the formula recomputed from the fields
# ----------------------------------------------------------------------
def _reference_a_i(m):
    """The per-connection figure, recomputed from the measurement's fields."""
    if m.rule == "down":
        return 0.0
    return max(0.0, m.capacity_bps - m.used_bps)


def _reference_available(report):
    """``A`` recomputed from the report's fields: same order, ``inf``
    start, NaN when unavailable."""
    if report.unavailable:
        return float("nan")
    least = float("inf")
    for m in report.connections:
        available = _reference_a_i(m)
        if available < least:
            least = available
    return least


_MEASUREMENTS = st.lists(
    st.tuples(
        st.sampled_from(["switch", "hub", "down", "unmeasured"]),
        st.sampled_from([1e6, 1.25e6, 1.25e7]),  # capacities (bytes/s)
        st.floats(0.0, 2e7, allow_nan=False),  # used: above capacity too
        st.sampled_from([None, "A", "dead"]),  # source agent ("dead" is DEAD)
        st.one_of(st.none(), st.floats(0.0, 20.0)),  # sample age
        st.booleans(),  # quarantined
        st.booleans(),  # degraded source
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(mix=_MEASUREMENTS, now=st.floats(0.0, 30.0))
def test_available_once_equals_available_recomputed(mix, now):
    health = AgentHealthTracker()
    health.suspect_after, health.dead_after = 1, 2
    health.record_failure("dead", 0.0)
    health.record_failure("dead", 0.0)
    calc = BandwidthCalculator(
        _SPEC, RateTable(), stale_after=4.0, dead_after=12.0, health=health
    )
    entries = []
    for k, (rule, capacity, used, agent, age, quarantined, lossy) in enumerate(mix):
        conn = ConnectionSpec(InterfaceRef(f"x{k}", "eth0"), InterfaceRef(f"y{k}", "eth0"))
        m = ConnectionMeasurement(
            connection=conn, capacity_bps=capacity, used_bps=used,
            source=None if agent is None else InterfaceRef(agent, "eth0"),
            rule=rule,
            sample_time=None if age is None else now - age,
            sample_age=age,
            stale=age is not None and age > 4.0,
            quarantined=quarantined,
            degraded_source=lossy,
        )
        assert _bits(m.available_bps) == _bits(_reference_a_i(m))
        # Re-ageing builds a new measurement; its a_i is the same float.
        aged = calc._refresh_measurement(m, now + 3.0)
        assert _bits(aged.available_bps) == _bits(_reference_a_i(aged))
        entries.append(
            ConnCacheEntry(conn, measurement=m, confidence=calc._connection_confidence(m))
        )
    src, dst = ("h", "h") if not entries else ("h", "g")  # empty: src == dst
    report = calc.compose(entries, src, dst, now, None, False)
    want = _reference_available(report)
    assert _bits(report.available_bps) == _bits(want)
    if not entries:
        assert report.available_bps == float("inf")
    # A hand-built report, and a copy with its trust changed, hold it too.
    by_hand = PathReport(
        src=src, dst=dst, time=now, connections=report.connections,
        unavailable=report.unavailable,
    )
    assert _bits(by_hand.available_bps) == _bits(want)
    dead = replace(report, confidence=0.0, degraded=True, unavailable=True)
    assert _bits(dead.available_bps) == _bits(float("nan"))
    revived = replace(dead, confidence=1.0, degraded=False, unavailable=False)
    assert _bits(revived.available_bps) == _bits(
        _reference_available(revived)
    )


def test_reageing_carries_every_field():
    """Re-ageing spells the measurement's fields out by hand; every one
    but the age and staleness must come through as ``replace`` would
    carry it.  ``values`` must name every field, so a field added later
    fails here until it is set to a non-default value and carried."""
    conn = ConnectionSpec(InterfaceRef("x", "eth0"), InterfaceRef("y", "eth0"))
    values = dict(
        connection=conn, capacity_bps=1.25e6, used_bps=2e5,
        source=InterfaceRef("x", "eth0"), rule="hub", sample_time=1.0,
        sample_interval=2.0, sample_age=6.0, stale=True, quarantined=True,
        degraded_source=True,
    )
    init = [f for f in fields(ConnectionMeasurement) if f.init]
    assert set(values) == {f.name for f in init}
    for f in init:
        assert values[f.name] != f.default, f.name
    m = ConnectionMeasurement(**values)
    calc = BandwidthCalculator(_SPEC, RateTable(), stale_after=4.0)
    aged = calc._refresh_measurement(m, 2.0)
    want = replace(m, sample_age=1.0, stale=False)
    for f in fields(ConnectionMeasurement):
        assert getattr(aged, f.name) == getattr(want, f.name), f.name


# ----------------------------------------------------------------------
# Cost guards (Python calls, not wall clock): a report is a composition
# of bound entries, telemetry is paid per report somebody receives
# ----------------------------------------------------------------------
def _in(where, calls):
    """Calls made inside source files matching ``where``, from a
    ``by_file`` count."""
    return sum(n for (path, _), n in calls.items() if where in path)


class TestReportCost:
    # The ledger's mesh_flat matrix: 36 hosts, 630 pairs, mean path 4.0.
    SPEC = scale_spec(switches=6, hosts_per_switch=6, arity=1, redundant_uplinks=1)

    def _matrix(self):
        rates = RateTable()
        populate_rates(self.SPEC, rates, time=0.0)
        calc = BandwidthCalculator(
            self.SPEC, rates, stale_after=5.0, dead_after=12.0,
            health=AgentHealthTracker(), integrity=QuarantineManager(),
            telemetry=Telemetry(),
        )
        calc.link_state = LinkStateRegistry(self.SPEC, {})
        matrix = BandwidthMatrix(self.SPEC, calc)
        matrix.snapshot(0.5)
        return rates, matrix

    def test_new_instant_snapshot_is_o_connections_not_o_pairs(self):
        rates, matrix = self._matrix()
        calc = matrix.calculator
        populate_rates(self.SPEC, rates, time=2.0)  # every interface re-sampled
        lookups = calc.lookups
        calls = call_counts(lambda: matrix.snapshot(2.5), by_file=True)
        pairs, conns = len(matrix._layout.keys), len(matrix._conns)
        assert (pairs, matrix.dirty_pairs_last) == (630, 630)
        # One validation of the 41 connections, then no call per pair:
        # every pair's A, trust and dirtiness are array operations (12.1
        # calls a pair when each pair was validated on its own, 7.2 when
        # each was composed).
        assert sum(calls.values()) <= 70 * conns
        assert _in("/repro/core/matrix.py", calls) <= 3
        by_name = Counter()
        for (_, name), n in calls.items():
            by_name[name] += n
        assert by_name["_revalidate"] == 1
        assert by_name["connection_token"] == conns
        assert by_name["endpoints"] <= 8 * conns
        assert by_name["compose"] == 0  # no cell read, no report composed
        assert by_name["measure_path"] == 0
        # a_i once per measurement built (every connection moved), and no
        # report built.
        built = sum(
            n for (path, name), n in calls.items()
            if name == "__post_init__" and path.endswith("/repro/core/report.py")
        )
        assert built == conns
        assert by_name["available_bps"] == 0
        # Every recomposed pair's entries still count as lookups, so
        # dataflow.cache_hit_ratio reads as it did per measure_path.
        path_entries = sum(len(held[0]) for held in matrix._layout.held if held)
        assert calc.lookups - lookups == conns + path_entries
        # Telemetry: the one matrix_snapshot span, whatever the size.
        assert _in("/repro/telemetry/", calls) <= 6

    def test_a_steady_campus_cycle_scans_no_spec_node(self):
        """A recomputed measurement reads its connection's capacity from
        the calculator's cache, not two ``TopologySpec.node`` scans."""
        shape = dict(switches=2, hosts_per_switch=3)
        build = build_network(scale_spec(hierarchical=2, host_agents=False, **shape))
        monitor = HierarchicalMonitor(build, hierarchy_plan(2, **shape), poll_jitter=0.0)
        monitor.watch_path("p0h0_2", "p1h1_2")
        monitor.start()
        build.network.run(10.0)
        recomputes = monitor.calculator.recomputes
        calls = call_counts(lambda: build.network.run(12.0), by_file=True)
        assert monitor.calculator.recomputes > recomputes  # a cycle that recomputed
        spec_calls = {
            name: n for (path, name), n in calls.items()
            if path.endswith("/repro/topology/model.py")
        }
        assert "node" not in spec_calls and "effective_bandwidth" not in spec_calls, spec_calls

    def test_a_steady_campus_report_recomputes_only_what_moved(self):
        """Every watched connection gets a new sample each cycle, and on an
        idle campus few of them carry new rates: only those are measured
        afresh.  The rest are re-timed to their new sample -- no
        ``_compute_measurement``, no spec method -- and read as they
        would afresh (``test_a_measurement_moves_with_its_rates_and_reports_as_the_parents``
        in ``tests/test_stream_columns.py``)."""
        shape = dict(switches=2, hosts_per_switch=3)
        build = build_network(scale_spec(hierarchical=2, host_agents=False, **shape))
        monitor = HierarchicalMonitor(build, hierarchy_plan(2, **shape), poll_jitter=0.0)
        for a, b in (("p0h0_2", "p1h1_2"), ("p0h1_0", "p1h0_1")):
            monitor.watch_path(a, b)
        monitor.start()
        calc = monitor.calculator
        build.network.run(10.0)
        for until in (12.0, 14.0, 16.0):
            entries = list(calc._entries.values())
            values = [entry.token[1:] for entry in entries]
            times = [entry.measurement.sample_time for entry in entries]
            recomputes = calc.recomputes
            calls = call_counts(lambda: build.network.run(until), by_file=True)
            moved = sum(entry.token[1:] != old for entry, old in zip(entries, values))
            retimed = sum(
                entry.measurement.sample_time != old for entry, old in zip(entries, times)
            )
            assert calc.recomputes - recomputes == moved < retimed, (until, moved, retimed)
            by_name = Counter(name for (_path, name), n in calls.items() for _ in range(n))
            assert by_name["_compute_measurement"] == moved
            spec = [key for key in calls if key[0].endswith("/repro/topology/model.py")]
            assert not spec, spec

    def test_reading_a_cells_available_costs_no_call(self):
        # A cell's report is composed when the cell is first read, and
        # once; A is then an attribute.
        _, matrix = self._matrix()
        cells = matrix.snapshot(2.0).reports
        pairs = list(cells)[:10]
        first = call_counts(lambda: [cells[pair] for pair in pairs])
        assert first["compose"] == len(pairs)
        again = call_counts(lambda: [cells[pair] for pair in pairs])
        assert again["compose"] == 0
        reports = list(cells.values())

        def read():  # what a consumer reads of a composed cell, and more
            for cell in reports:
                cell.available_bps, cell.available_bps
                for m in cell.connections:
                    m.available_bps

        assert _in("/repro/", call_counts(read, by_file=True)) == 0

    def test_instant_only_move_reads_no_token(self):
        _, matrix = self._matrix()
        calls = call_counts(lambda: matrix.snapshot(0.596))
        assert matrix.dirty_pairs_last == 0
        assert calls["_revalidate"] == 1
        assert calls["connection_token"] == 0
        assert calls["_compute_measurement"] == 0
        assert calls["_refresh_measurement"] == len(matrix._conns)
        assert calls["replace"] == 0  # re-ageing builds each measurement directly

    def test_probe_pick_builds_no_report(self):
        build = build_network(self.SPEC)
        monitor = NetworkMonitor(build, "h0_0", poll_jitter=0.0)
        for a, b in (("h0_1", "h5_0"), ("h1_0", "h4_0"), ("h2_0", "h3_0"), ("h0_2", "h3_1")):
            monitor.watch_path(a, b)
        prober = monitor.enable_probing()
        monitor.start()
        build.network.run(7.0)
        started = monitor.telemetry.tracer.spans_started
        entries = list(monitor.calculator._entries.values())
        before = [entry.measurement for entry in entries]
        with mock.patch.object(
            PathReport, "__post_init__", autospec=True,
            side_effect=PathReport.__post_init__,
        ) as path_reports:
            calls = call_counts(prober._pick, by_file=True)
        assert sum(calls.values()) <= 250
        assert path_reports.call_count == 0  # no PathReport built
        # Nor read: report.py runs only where a measurement the pick
        # re-aged or recomputed derives its a_i, once per one built.
        built = sum(
            entry.measurement is not held for entry, held in zip(entries, before)
        )
        assert _in("/repro/core/report.py", calls) == built
        assert monitor.telemetry.tracer.spans_started == started
