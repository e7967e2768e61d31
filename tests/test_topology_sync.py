"""Live topology re-convergence: the discovery-driven sync loop.

The tentpole guarantee under test: when a redundant uplink dies, the
monitor's active view follows the spanning tree onto the backup link
without anyone calling ``invalidate_paths()`` by hand -- and when
nothing changes, the topology epoch holds perfectly still, so the
incremental dataflow's memos survive every sync round.
"""

import pytest

from repro.core.monitor import NetworkMonitor
from repro.simnet.faults import AgentOutage, LinkFailure
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.stream.events import TOPOLOGY_PAIR, PathRerouted, TopologyChanged
from repro.telemetry.events import PATH_REROUTED, TOPOLOGY_CHANGED

POLL = 2.0

REDUNDANT_PAIR = """
network topology redundant {
    host A { snmp community "public"; }
    host B { snmp community "public"; }
    switch sw1 { snmp community "public"; ports 4; stp "on"; }
    switch sw2 { snmp community "public"; ports 4; stp "on"; }
    connect A.eth0 <-> sw1.port1;
    connect B.eth0 <-> sw2.port1;
    connect sw1.port3 <-> sw2.port3;
    connect sw1.port4 <-> sw2.port4;
}
"""


def build_redundant(community="public"):
    return build_network(parse_spec(REDUNDANT_PAIR.replace("public", community)))


def start_monitor(build, **sync_options):
    monitor = NetworkMonitor(build, "A", poll_interval=POLL, poll_jitter=0.0)
    monitor.enable_topology_sync(**sync_options)
    monitor.enable_oper_status_tracking()
    monitor.watch_path("A", "B")
    build.network.announce_hosts(at=2.0)
    monitor.start(at=2.5)
    return monitor


def uplink_conns(monitor):
    return [
        conn
        for conn in monitor.spec.connections
        if {conn.end_a.node, conn.end_b.node} == {"sw1", "sw2"}
    ]


class TestStpSync:
    # Each agent is asked under its own spec community, not the manager's.
    @pytest.mark.parametrize("community", ["public", "private"])
    def test_blocked_uplink_synced_from_port_states(self, community):
        build = build_redundant(community)
        monitor = start_monitor(build)
        build.network.sim.run(until=6.0)
        blocked = monitor.graph.blocked_connections()
        # STP blocks exactly one of the two parallel uplinks; the sync
        # loop mirrors that into the graph's active view.
        assert len(blocked) == 1
        assert blocked[0] in uplink_conns(monitor)
        # The measured path crosses the forwarding uplink only.
        path = monitor.path_of("A<->B")
        assert blocked[0] not in path
        assert any(conn in uplink_conns(monitor) for conn in path)

    def test_epoch_stable_on_identical_view(self):
        build = build_redundant()
        monitor = start_monitor(build)
        sim = build.network.sim
        sim.run(until=6.0)
        epoch = monitor.graph.topology_epoch
        rounds = monitor.stats()["topology_rounds"]
        # Many more sync rounds (including a full discovery round) on an
        # unchanged network: the epoch must not move at all.
        sim.run(until=20.0)
        assert monitor.stats()["topology_rounds"] >= rounds + 5
        assert monitor.stats()["topology_full_rounds"] >= 1
        assert monitor.graph.topology_epoch == epoch
        assert monitor.stats()["topology_changes"] == 1  # initial block only

    def test_reports_carry_redundancy_flag(self):
        build = build_redundant()
        monitor = start_monitor(build)
        build.network.sim.run(until=8.0)
        report = monitor.current_report("A<->B")
        assert report.redundant  # two physical uplinks protect the pair
        # A pair on the same switch arm loses nothing from one cut...
        # (single-homed hosts are never redundant)
        assert not monitor.current_report("A<->B").unavailable


class TestFailover:
    def test_uplink_failure_reroutes_watch(self):
        build = build_redundant()
        net = build.network
        monitor = start_monitor(build)
        net.sim.run(until=8.9)
        before = monitor.path_of("A<->B")
        active = next(c for c in uplink_conns(monitor) if c in before)
        backup = next(c for c in uplink_conns(monitor) if c not in before)
        LinkFailure.between(net, "sw1", "sw2", at=9.0,
                            index=uplink_conns(monitor).index(active))
        # Recovery bound: re-converged and re-resolved within 3 cycles.
        net.sim.run(until=9.0 + 3 * POLL)
        after = monitor.path_of("A<->B")
        assert backup in after and active not in after
        stats = monitor.stats()
        assert stats["path_reroutes"] == 1
        assert monitor.telemetry.events.count(PATH_REROUTED) == 1
        assert monitor.telemetry.events.count(TOPOLOGY_CHANGED) >= 2
        # The report on the rerouted path is healthy, not wedged on the
        # memo of the dead path.
        report = monitor.current_report("A<->B")
        assert not report.unavailable
        assert report.available_bps > 0

    def test_rerouted_report_stays_fresh_after_failover(self):
        build = build_redundant()
        net = build.network
        monitor = start_monitor(build)
        reports = []
        monitor.subscribe(reports.append)
        net.sim.run(until=8.9)
        LinkFailure.between(net, "sw1", "sw2", at=9.0, index=0)
        net.sim.run(until=24.0)
        settled = [r for r in reports if r.time >= 9.0 + 3 * POLL]
        assert settled
        assert all(r.status == "fresh" for r in settled)
        assert all(r.redundant for r in reports)  # physical view: still 2 paths


class TestStreamEvents:
    def test_topology_and_reroute_events_reach_wildcard_subscriber(self):
        build = build_redundant()
        net = build.network
        monitor = NetworkMonitor(build, "A", poll_interval=POLL, poll_jitter=0.0)
        monitor.enable_topology_sync()
        monitor.enable_oper_status_tracking()
        monitor.watch_path("A", "B")
        stream = monitor.enable_streaming(significance=False)
        sub = stream.manager.subscribe("ops")  # wildcard
        net.announce_hosts(at=2.0)
        monitor.start(at=2.5)
        net.sim.run(until=8.9)
        LinkFailure.between(net, "sw1", "sw2", at=9.0, index=0)
        net.sim.run(until=16.0)
        events = sub.drain()
        topo = [e for e in events if isinstance(e, TopologyChanged)]
        rerouted = [e for e in events if isinstance(e, PathRerouted)]
        assert topo and topo[0].pair == TOPOLOGY_PAIR
        assert any(e.reason == "stp" for e in topo)
        assert len(rerouted) == 1
        assert rerouted[0].old_path != rerouted[0].new_path
        assert rerouted[0].watch == "A<->B"


class TestPartialOutage:
    def test_unreachable_agents_keep_last_known_attachments(self):
        build = build_redundant()
        net = build.network
        monitor = start_monitor(build, full_every=2)
        sim = net.sim
        # Full rounds land every second sync round (5.5s, 9.5s, ...).
        sim.run(until=8.0)
        sync = monitor.topology_sync
        baseline = sync.attachments()
        assert baseline == {"A": ("sw1", 1), "B": ("sw2", 1)}
        epoch = monitor.graph.topology_epoch
        # B's agent dies across the next two full rounds.  Its absence
        # from the discovered picture means "no data", not "detached":
        # the attachment view and the topology epoch must hold still.
        AgentOutage(sim, build.agents["B"], at=8.5, until=17.5)
        sim.run(until=17.0)
        assert sync.attachments() == baseline
        assert monitor.graph.topology_epoch == epoch
        sim.run(until=24.0)  # agent back; still no change
        assert sync.attachments() == baseline
        assert monitor.graph.topology_epoch == epoch

    def test_unreachable_switch_keeps_stp_and_attachments(self):
        build = build_redundant()
        net = build.network
        monitor = start_monitor(build, full_every=2)
        sim = net.sim
        sim.run(until=8.0)
        sync = monitor.topology_sync
        baseline = sync.attachments()
        blocked = list(monitor.graph.blocked_connections())
        epoch = monitor.graph.topology_epoch
        # The root switch's agent goes quiet (management-plane outage --
        # the data plane keeps forwarding).  Last-known port states and
        # attachments must survive the gap untouched.
        AgentOutage(sim, build.agents["sw1"], at=8.5, until=17.5)
        sim.run(until=17.0)
        assert sync.attachments() == baseline
        assert monitor.graph.blocked_connections() == blocked
        assert monitor.graph.topology_epoch == epoch


class TestSyncPlumbing:
    def test_stats_keys_resolve_without_sync(self):
        build = build_redundant()
        monitor = NetworkMonitor(build, "A", poll_jitter=0.0)
        stats = monitor.stats()
        for key in (
            "topology_rounds",
            "topology_full_rounds",
            "topology_changes",
            "path_reroutes",
            "blocked_connections",
        ):
            assert stats[key] == 0

    def test_enable_is_idempotent(self):
        build = build_redundant()
        monitor = NetworkMonitor(build, "A", poll_jitter=0.0)
        sync = monitor.enable_topology_sync(full_every=3)
        assert monitor.enable_topology_sync() is sync

    def test_full_every_validates(self):
        build = build_redundant()
        monitor = NetworkMonitor(build, "A", poll_jitter=0.0)
        with pytest.raises(ValueError):
            monitor.enable_topology_sync(full_every=0)

    def test_both_uplink_ends_polled(self):
        build = build_redundant()
        monitor = NetworkMonitor(build, "A", poll_jitter=0.0)
        targets = {t.node: t.if_indexes for t in monitor.poller.targets}
        # The counter source picks one switch per uplink; the far ends
        # must be polled too so link state is observable from both sides.
        assert 3 in targets["sw1"] and 4 in targets["sw1"]
        assert 3 in targets["sw2"] and 4 in targets["sw2"]
