"""Two-level coordinator tree: leaf shards, root aggregation, failover.

The hierarchical plane must be observationally a DistributedMonitor --
same rate table, same report surface, same lease/gap behaviour -- while
routing every sample through a leaf coordinator first.  These tests
drive a small two-pod campus: end-to-end reports, shard affinity,
leaf-coordinator crash (re-adoption within three poll cycles, then
failback), uplink delta economics, and the root-facing worker surface
the leaves emulate.
"""

import pytest

from repro.core.deltas import REC_SAME, is_delta, parse_delta
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
    kwargs.setdefault("poll_jitter", 0.0)
    dm = HierarchicalMonitor(build, plan, **kwargs)
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
        """Quiescent interfaces ship as their id alone, so a reading
        costs less than one FULL entry (>= 53 bytes) even with a
        keyframe every fourth batch bounding resync cost."""
        build, dm = hierarchical(whole_pool=True, keyframe_every=4)
        kinds = {p: set() for p in range(PODS)}
        for p in range(PODS):
            shipper = dm.leaves[f"mon{p}"].shipper

            def tapped(payload, send=shipper.send, seen=kinds[p]):
                for record in parse_delta(payload).records:
                    seen.update(entry[0] for entry in record[3])
                send(payload)

            shipper.send = tapped
        dm.start()
        build.network.run(20.0)
        stats = dm.stats()
        for p in range(PODS):
            assert stats[f"per_shard_keyframes.mon{p}"] >= 1
            shipper = dm.leaves[f"mon{p}"].shipper
            assert REC_SAME in kinds[p]
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
        sequence streams rather than reading history it never saw as
        lost: no permanently degraded sources."""
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


# ----------------------------------------------------------------------
# Shipping follows the poll cycle, at every tier
# ----------------------------------------------------------------------
def _report_ages(plane):
    """Every report of ``plane`` on the parity spec under load, as
    ``{instant: [sample age of each connection]}``."""
    build = build_network(parse_spec(PARITY_SPEC))
    net = build.network
    monitor = PLANES[plane](build)
    monitor.watch_path("A", "B")
    ages = {}
    monitor.subscribe(
        lambda r: ages.__setitem__(r.time, [c.sample_age for c in r.connections])
    )
    StaircaseLoad(
        net.host("A"), net.ip_of("B"), StepSchedule.pulse(6.0, 30.0, 200 * KBPS)
    ).start()
    net.announce_hosts(at=2.0)
    monitor.start(at=2.5)
    net.run(20.0)
    return monitor, ages


class TestShippingFollowsTheCycle:
    """A worker ships when its poll cycle closes, and a leaf when its
    workers' cycles are in (``SampleIngest._closed_by``): a report reads
    the cycle just polled, on every plane."""

    def test_flat_and_tree_report_inputs_of_the_same_age(self):
        """The same watch on the same spec: at every report instant the
        tree's inputs are as old as the flat monitor's -- the cycle polled
        ``report_offset`` ago -- not a cycle older."""
        flat, flat_ages = _report_ages("flat")
        tree, tree_ages = _report_ages("hierarchical")
        assert len(flat_ages) == 8 and tree_ages.keys() == flat_ages.keys()
        for instant, ages in flat_ages.items():
            assert None not in tree_ages[instant], instant
            assert max(tree_ages[instant]) <= tree.report_offset
            assert tree_ages[instant] == pytest.approx(ages, abs=1e-3), instant

    def test_a_worker_crash_mid_cycle_holds_back_none_of_its_shard(self):
        """One of a shard's two workers crashes mid-cycle.  The leaf stops
        waiting for its close once its lease is lost, so the other
        worker's readings still reach the root within one poll interval
        of being taken."""
        build, dm = hierarchical(whole_pool=True)
        net = build.network
        landed = []
        sink = dm.sink

        def spy(decoder, readings):
            landed.extend((net.now, net.now - r[3], r[1]) for r in readings)
            return sink(decoder, readings)

        dm.sink = spy
        leaf = dm.leaves["mon0"]
        survivor, victim = leaf.dm.workers
        kept = set(leaf.dm.targets_of(survivor))
        WorkerCrash(net.sim, leaf.dm.workers[victim], at=11.0, until=100.0)
        dm.start()
        net.run(20.0)
        assert leaf.dm.worker_states()[victim] == "dead"
        after = [(lag, node) for at, lag, node in landed if at >= 11.0]
        assert {node for lag, node in after if lag < 2.0} >= kept
        assert max(lag for lag, node in after) < dm.poll_interval
        dm.stop()

    @pytest.mark.parametrize("end", ["stop", "crash"])
    def test_a_cycle_closed_by_stop_or_crash_ships_nothing(self, end):
        """A worker stopped or crashed with its cycle open closes that
        cycle (the poller's rule) but sends no closing batch: a straggler
        could land in a plane rebuilt on the same hosts."""
        build, dm = hierarchical(whole_pool=True)
        worker = dm.leaves["mon0"].dm.workers["p0h0_0"]
        shipped = []
        send = worker.shipper.send
        worker.shipper.send = lambda payload: (shipped.append(payload), send(payload))
        dm.start()
        build.network.run(4.0)  # cycles 1 and 2 closed; 3 has begun
        assert worker.poller._open_cycle == 3 and worker.manager._pending
        assert [parse_delta(p).closes for p in shipped] == [True, True]
        getattr(worker, end)()
        assert not worker.poller._open_cycle
        build.network.run(10.0)
        assert len(shipped) == 2
        dm.stop()


# ----------------------------------------------------------------------
# A batch is a heartbeat
# ----------------------------------------------------------------------
def _endpoints(dm):
    """Every uplink endpoint of the tree: the leaves and their workers."""
    workers = {n: w for leaf in dm.leaves.values() for n, w in leaf.dm.workers.items()}
    return {**dm.leaves, **workers}


def _tap_uplinks(dm, net, drop=lambda name, payload: False):
    """``{endpoint: [(time, payload)]}`` of every datagram each endpoint
    sends upstream, tapped at its socket, so a dropped one (``drop``) was
    sent as far as the endpoint knows."""
    sent = {}
    for name, endpoint in _endpoints(dm).items():
        log = sent[name] = []

        def sendto(payload, address, send=endpoint._report_socket.sendto, log=log, name=name):
            log.append((net.now, payload))
            if not drop(name, payload):
                send(payload, address)

        endpoint._report_socket.sendto = sendto
    return sent


class TestABatchIsAHeartbeat:
    """Every running endpoint ships a closing batch each poll cycle, and
    any datagram renews its lease: an ``hb`` goes only after a poll
    interval in which an endpoint sent nothing upstream."""

    def test_an_endpoint_that_ships_sends_no_hb(self):
        build, dm = hierarchical()
        dm.watch_path("p0h0_2", "p1h1_2")
        net = build.network
        sent = _tap_uplinks(dm, net)
        dm.start()
        net.run(20.0)
        hbs = {name: [t for t, p in log if not is_delta(p)] for name, log in sent.items()}
        shipping = {name for name, log in sent.items() if any(is_delta(p) for _, p in log)}
        idle = {name for name, w in _endpoints(dm).items() if not w.poller.targets}
        assert shipping and idle and shipping.isdisjoint(idle)
        assert set(dm.leaves) <= shipping
        for name in shipping:
            assert hbs[name] == [], name
        # A worker with no targets renews its lease once a poll interval.
        for name in idle:
            assert hbs[name] == pytest.approx([2.0 * k for k in range(1, 11)]), name
        dm.stop()

    @pytest.mark.parametrize("jitter", [0.0, 0.05, 0.25])
    def test_no_lease_leaves_alive(self, jitter):
        build, dm = hierarchical(poll_jitter=jitter)
        dm.watch_path("p0h0_2", "p1h1_2")
        dm.watch_path("p0h1_0", "p1h0_1")
        moved = []
        for ingest in (dm, *(leaf.dm for leaf in dm.leaves.values())):
            ingest.leases.subscribe(moved.append)
        dm.start()
        build.network.run(20.0)
        assert moved == []
        for ingest in (dm, *(leaf.dm for leaf in dm.leaves.values())):
            assert set(ingest.worker_states().values()) == {"alive"}
        dm.stop()

    def test_a_dropped_assign_heals_through_the_next_closing_batch(self):
        """A new watch moves the pool; the root's ``assign`` to one leaf is
        lost.  That leaf's next closing batch echoes the old version, and
        the root ships the assignment again: no ``hb`` involved."""
        build, dm = hierarchical()
        dm.watch_path("p0h0_2", "p1h1_2")
        net = build.network
        sent = _tap_uplinks(dm, net)
        dropped, assigns = [], []
        control = dm._send_control

        def lossy(worker, kind, **fields):
            if kind == "assign" and worker == "mon0":
                if not dropped:
                    dropped.append((net.now, fields["v"]))
                    return
                assigns.append((net.now, fields["v"]))
            control(worker, kind, **fields)

        dm._send_control = lossy
        dm.start()
        net.run(5.0)
        dm.watch_path("p0h1_0", "p1h0_1")  # pod 0's share grows
        net.run(10.0)
        leaf = dm.leaves["mon0"]
        assert dropped == [(5.0, 2)]
        # Re-sent once, as the leaf's first closing batch after the loss
        # landed with version 1 on it.
        closing = [t for t, p in sent["mon0"] if is_delta(p) and t > 5.0]
        assert [v for _, v in assigns] == [3]
        assert closing[0] <= assigns[0][0] < closing[0] + 0.01
        assert leaf.assign_version == 3
        assert dm.targets_of("mon0") == dm.assigned_targets_of("mon0")
        assert "p0sw1" in dm.targets_of("mon0")
        assert all(is_delta(p) for _, p in sent["mon0"])
        dm.stop()


class TestTheRootSeesAShardsLoss:
    def test_a_lost_worker_batch_degrades_the_roots_reports(self):
        """A worker's batch is lost on its way to the leaf.  The leaf
        degrades the worker's sources; its closing batch names those it
        still cannot vouch for, so the root marks them as well, and
        reports through them read degraded until fresh samples land."""
        build, dm = hierarchical()
        label = dm.watch_path("p0h0_2", "p1h1_2")
        net = build.network
        leaf = dm.leaves["mon0"]
        worker = leaf.dm.workers["p0h0_0"]
        assert [(t.node, t.if_indexes) for t in worker.poller.targets] == [("p0sw0", [3, 6])]
        lost = []

        def drop(name, payload):
            if name == "p0h0_0" and not lost and net.now >= 16.0 and is_delta(payload):
                lost.append(net.now)
                return True
            return False

        sent = _tap_uplinks(dm, net, drop)
        reports, marks = [], []
        dm.subscribe(reports.append)
        dm.start()
        for step in range(150, 260):
            net.run(step / 10)
            marks.append((net.now, set(dm.degraded.keys())))
        assert lost and 16.0 <= lost[0] < 16.1
        ports = {("p0sw0", 3), ("p0sw0", 6)}
        assert set().union(*(keys for _, keys in marks)) == ports
        first = min(t for t, keys in marks if keys)
        clear = min(t for t, keys in marks if t > first and not keys)
        # The leaf named what it could not vouch for in a closing batch.
        ids = {rec_id: key for key, rec_id in leaf.shipper.delta._ids.items()}
        named = {ids[i] for t, p in sent["mon0"] if is_delta(p) for i in parse_delta(p).unvouched}
        assert named and named <= ports
        window = [r for r in reports if r.label == label and first <= r.time < clear]
        assert window and all(r.degraded for r in window)
        after = [r for r in reports if r.label == label and r.time >= clear]
        assert after and all(r.trusted for r in after)
        assert clear <= lost[0] + 3 * dm.poll_interval
        dm.stop()
