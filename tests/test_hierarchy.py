"""Two-level coordinator tree: leaf shards, root aggregation, failover.

The hierarchical plane must be observationally a DistributedMonitor --
same rate table, same report surface, same lease/ARQ behaviour -- while
routing every sample through a leaf coordinator first.  These tests
drive a small two-pod campus: end-to-end reports, shard affinity,
leaf-coordinator crash (re-adoption within three poll cycles, then
failback), uplink delta economics, and the root-facing worker surface
the leaves emulate.
"""

import pytest

from repro.core.distributed import DistributedMonitor, poll_targets
from repro.core.hierarchy import HierarchicalMonitor, LeafCoordinator
from repro.core.monitor import NetworkMonitor
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.rm.detector import QosState
from repro.rm.middleware import RmMiddleware
from repro.rm.qos import QosRequirement
from repro.simnet.faults import WorkerCrash
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.stream.events import PairChanged

PODS, SWITCHES, HOSTS = 2, 2, 3
POD_SWITCHES = [f"p{p}sw{s}" for p in range(PODS) for s in range(SWITCHES)]


def hierarchical(whole_pool=False, **kwargs):
    """The two-pod tree.  Its pool follows its watches, unless
    ``whole_pool`` pins it through ``targets=`` to every connection: the
    shard-layout and failover tests reason about every switch."""
    spec = scale_spec(
        hierarchical=PODS, switches=SWITCHES, hosts_per_switch=HOSTS,
        host_agents=False,
    )
    plan = hierarchy_plan(PODS, switches=SWITCHES, hosts_per_switch=HOSTS)
    build = build_network(spec)
    if whole_pool:
        kwargs["targets"] = poll_targets(build, spec.connections)
    dm = HierarchicalMonitor(build, plan, poll_jitter=0.0, **kwargs)
    return build, dm


class TestShardLayout:
    def test_targets_stay_in_home_shard(self):
        """Affinity: a pod's switches are polled by that pod's shard, so
        poll traffic never crosses the core until aggregation."""
        build, dm = hierarchical(whole_pool=True)
        for p in range(PODS):
            mine = dm.targets_of(f"mon{p}")
            for s in range(SWITCHES):
                assert f"p{p}sw{s}" in mine
                assert f"p{p}sw{s}" not in dm.targets_of(f"mon{1 - p}")

    def test_every_switch_assigned_exactly_once(self):
        build, dm = hierarchical(whole_pool=True)
        owned = [t for leaf in dm.leaves for t in dm.targets_of(leaf)]
        assert sorted(t for t in owned if t in POD_SWITCHES) == sorted(POD_SWITCHES)
        assert len(owned) == len(set(owned))

    def test_empty_plan_rejected(self):
        spec = scale_spec(hierarchical=1, switches=1, hosts_per_switch=2,
                          host_agents=False)
        build = build_network(spec)
        with pytest.raises(ValueError):
            HierarchicalMonitor(build, {"root": "monroot", "shards": {}})

    def test_leaves_quack_like_workers(self):
        build, dm = hierarchical(whole_pool=True)
        for leaf in dm.leaves.values():
            assert isinstance(leaf, LeafCoordinator)
            assert leaf.assign_version >= 1  # seeded by the root ctor
            assert leaf.poller.targets  # the surface targets_of reads
            assert leaf.requests_sent == 0
            assert leaf.window_peak == 0


class TestEndToEnd:
    def test_reports_flow_through_the_tree(self):
        """Load in pod 0 reaches the root's report surface through the
        leaf aggregation path, and the report is trusted."""
        build, dm = hierarchical()
        label = dm.watch_path("p0h0_0", f"p{PODS - 1}h{SWITCHES - 1}_{HOSTS - 1}")
        reports = []
        dm.subscribe(reports.append)
        StaircaseLoad(
            build.network.host("p0h0_0"),
            build.network.ip_of(f"p{PODS - 1}h{SWITCHES - 1}_{HOSTS - 1}"),
            StepSchedule.pulse(4.0, 20.0, 64 * KBPS),
        ).start()
        dm.start()
        build.network.run(24.0)
        assert dm.samples_received > 0
        assert reports and any(r.trusted for r in reports)
        loaded = [r for r in reports if 8.0 <= r.time <= 20.0]
        assert loaded and max(r.bottleneck.used_bps for r in loaded) > 0
        stats = dm.stats()
        assert stats["shards"] == float(PODS)
        for p in range(PODS):
            assert stats[f"per_shard_exchanges.mon{p}"] > 0
        assert stats["decode_errors"] == 0.0
        dm.stop()

    def test_uplinks_ship_deltas(self):
        """Quiescent interfaces ship as ADVANCE records, so a sample
        costs less than one FULL record (>= 53 bytes) even with a
        keyframe every fourth batch bounding resync cost."""
        build, dm = hierarchical(whole_pool=True, keyframe_every=4)
        dm.start()
        build.network.run(20.0)
        stats = dm.stats()
        for p in range(PODS):
            assert stats[f"per_shard_keyframes.mon{p}"] >= 1
            shipper = dm.leaves[f"mon{p}"].shipper
            assert shipper.delta.records_advance > 0
            assert shipper.bytes_shipped < 50 * shipper.samples_shipped
        dm.stop()

    def test_pipelined_bulk_polling_inside_shards(self):
        build, dm = hierarchical(whole_pool=True, pipeline_window=2)
        dm.start()
        build.network.run(10.0)
        for leaf in dm.leaves.values():
            assert leaf.requests_sent > 0
            assert 1 <= leaf.window_peak <= 2
        dm.stop()


class TestLeafFailover:
    def test_leaf_crash_failover_and_failback(self):
        """The chaos acceptance scenario one level up: kill a leaf
        *coordinator* mid-run.  Its shard is re-adopted by the surviving
        leaf within three poll cycles; on restart the pod's targets come
        home."""
        build, dm = hierarchical(whole_pool=True)
        label = dm.watch_path("p1h0_0", "p1h1_0")  # pod 1: unaffected shard
        reports = []
        dm.subscribe(reports.append)
        net = build.network
        WorkerCrash(net.sim, dm.leaves["mon0"], at=10.0, until=25.0)
        dm.start()

        net.run(20.0)  # mid-crash
        assert dm.worker_states()["mon0"] == "dead"
        assert dm.stats()["failovers"] >= 1
        # Re-adoption: pod 0's switches now belong to the survivor, and
        # the survivor's own workers actually poll them.
        adopted = dm.targets_of("mon1")
        assert all(f"p0sw{s}" in adopted for s in range(SWITCHES))
        assert dm.assigned_targets_of("mon0") == []
        inner = [t for w in dm.leaves["mon1"].dm.workers.values()
                 for t in (tgt.node for tgt in w.poller.targets)]
        assert all(f"p0sw{s}" in inner for s in range(SWITCHES))

        net.run(40.0)  # restart at t=25, settle
        assert dm.worker_states() == {f"mon{p}": "alive" for p in range(PODS)}
        assert dm.stats()["rebalances"] >= 1
        # Failback: affinity pulls pod 0 home.
        home = dm.targets_of("mon0")
        assert all(f"p0sw{s}" in home for s in range(SWITCHES))
        late = [r for r in reports if r.time >= 30.0]
        assert late and all(r.trusted for r in late)
        assert dm.stats()["degraded_sources"] == 0.0
        dm.stop()

    def test_crash_leaves_inner_workers_polling(self):
        """A leaf crash kills the coordinator *process* only: the
        shard's worker hosts keep polling while the uplink is dark."""
        build, dm = hierarchical(whole_pool=True)
        dm.start()
        build.network.run(8.0)
        leaf = dm.leaves["mon0"]
        before = leaf.requests_sent
        leaf.crash()
        build.network.run(14.0)
        assert leaf.requests_sent > before  # inner workers still at it
        leaf.restart()
        assert leaf.incarnation == 2  # fresh uplink sequence space
        build.network.run(22.0)
        assert dm.worker_states()["mon0"] == "alive"
        dm.stop()

    def test_restarted_leaf_readopts_streams(self):
        """After a restart the leaf adopts its workers' mid-flight
        sequence streams rather than demanding history it never saw:
        no abandoned gaps, no permanently degraded sources."""
        build, dm = hierarchical()
        net = build.network
        WorkerCrash(net.sim, dm.leaves["mon0"], at=8.0, until=14.0)
        dm.start()
        net.run(30.0)
        stats = dm.stats()
        assert stats["degraded_sources"] == 0.0
        assert dm.worker_states()["mon0"] == "alive"
        # The root either never lost context or healed it via keyframe
        # requests -- both end with zero decode errors.
        assert stats["decode_errors"] == 0.0
        dm.stop()


# ----------------------------------------------------------------------
# One report surface on all three planes
# ----------------------------------------------------------------------
PARITY_SPEC = """
network topology parity {
    host A  { snmp community "public"; }
    host B  { snmp community "public"; }
    host R  { }
    host M1 { }
    host M2 { }
    host W1 { }
    host W2 { }
    switch sw1 { snmp community "public"; ports 8; stp "on"; }
    switch sw2 { snmp community "public"; ports 8; stp "on"; }
    connect A.eth0  <-> sw1.port1;
    connect W1.eth0 <-> sw1.port2;
    connect M1.eth0 <-> sw1.port3;
    connect R.eth0  <-> sw1.port4;
    connect B.eth0  <-> sw2.port1;
    connect W2.eth0 <-> sw2.port2;
    connect M2.eth0 <-> sw2.port3;
    connect sw1.port7 <-> sw2.port7;
    connect sw1.port8 <-> sw2.port8;
}
"""
PARITY_PLAN = {
    "root": "R",
    "shards": {
        "M1": {"workers": ["W1"], "members": ["sw1", "A", "W1", "M1", "R"]},
        "M2": {"workers": ["W2"], "members": ["sw2", "B", "W2", "M2"]},
    },
}
PLANES = {
    "flat": lambda build: NetworkMonitor(build, "R", poll_jitter=0.0),
    "distributed": lambda build: DistributedMonitor(
        build, "R", ["W1", "W2"], poll_jitter=0.0
    ),
    "hierarchical": lambda build: HierarchicalMonitor(
        build, PARITY_PLAN, poll_jitter=0.0
    ),
}
CORE_STATS_KEYS = {
    "reports", "history_samples", "history_dropped",
    "integrity_violations", "integrity_rejected", "integrity_quarantined",
    "cross_check_mismatches", "cache_hits", "recomputes", "dirty_pairs",
    "stream_subscribers", "stream_events_delivered",
    "stream_events_suppressed", "stream_events_dropped",
    "probe_trains", "probe_packets_sent", "probe_packets_lost",
    "probe_bytes_sent", "probe_disagreements", "probe_recoveries",
    "probe_active_disagreements", "topology_rounds", "topology_full_rounds",
    "topology_changes", "path_reroutes", "blocked_connections",
}


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_report_surface_is_the_same_on_every_plane(plane):
    """Watches, on-demand reports, the redundancy flag, streaming,
    budgeted probing, the RM hook and the core ``stats()`` keys behave
    alike whichever way the samples are collected."""
    build = build_network(parse_spec(PARITY_SPEC))
    net = build.network
    monitor = PLANES[plane](build)
    assert CORE_STATS_KEYS <= set(monitor.stats())

    ab = monitor.watch_path("A", "B")
    extra = monitor.watch_path("B", "A", name="spare")
    assert monitor.watched_paths() == [ab, extra]
    assert [str(c) for c in monitor.path_of(ab)][0].startswith("A.eth0")
    assert len(monitor.path_of(ab)) == 3  # A-sw1, one uplink, sw2-B
    monitor.unwatch_path(extra)
    assert monitor.watched_paths() == [ab]

    rm = RmMiddleware(
        monitor, [QosRequirement(name=ab, src="A", dst="B", min_available_bps=1.0)]
    )
    events = []
    publisher = monitor.enable_streaming()
    publisher.manager.subscribe("ui", pairs=[("A", "B")], callback=events.append)
    prober = monitor.enable_probing()
    reports = []
    monitor.subscribe(reports.append)

    StaircaseLoad(
        net.host("A"), net.ip_of("B"), StepSchedule.pulse(6.0, 30.0, 200 * KBPS)
    ).start()
    net.announce_hosts(at=2.0)  # after spanning tree settled
    monitor.start(at=2.5)
    net.run(20.0)
    before = monitor.stats()["reports"]
    net.run(20.0 + 3 * monitor.poll_interval)
    assert monitor.stats()["reports"] == before + 3  # one watch, three cycles
    assert monitor.stats()["reports"] == len(reports)

    assert reports[-1].redundant  # two parallel uplinks
    assert reports[-1].trusted
    assert reports[-1].used_bps >= 0.9 * 200 * KBPS  # the load (+ probe trains)
    now = monitor.current_report(ab)
    assert now.time == net.now and now.label == ab and now.redundant

    assert any(isinstance(e, PairChanged) and e.pair == ("A", "B") for e in events)
    assert rm.state_of(ab) is QosState.OK

    stats = monitor.stats()
    assert stats["probe_trains"] >= 1 and prober.trains_abandoned == 0
    elapsed = net.now - 2.5
    assert stats["probe_bytes_sent"] / elapsed <= 0.02 * 100e6 / 8.0
    monitor.stop()
