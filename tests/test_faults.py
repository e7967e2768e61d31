"""Tests for fault injection: link failures, packet loss, agent outages,
and what overlapping faults on one target leave behind."""

import functools
import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import build_testbed
from repro.simnet.faults import (
    AgentOutage,
    AgentReboot,
    CounterCorruption,
    FaultError,
    Flap,
    LinkFailure,
    NetworkPartition,
    PacketLoss,
    ResponseDelay,
    SpeedMisreport,
    StuckCounters,
    WorkerCrash,
)
from repro.simnet.network import Network
from repro.simnet.sockets import DISCARD_PORT
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule


def small_net():
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(a, sw)
    net.connect(b, sw)
    net.announce_hosts()
    net.run(0.01)
    return net, a, b


class TestLinkFailure:
    def test_traffic_stops_and_resumes(self):
        net, a, b = small_net()
        link = b.interfaces[0].link
        LinkFailure(net.sim, link, at=5.0, until=10.0)
        StaircaseLoad(
            a, b.primary_ip, StepSchedule([(0.0, 100_000.0), (15.0, 0.0)])
        ).start()
        net.run(5.1)  # failure at 5.0; give in-flight frames 100ms to land
        before = b.discard.octets
        assert before > 0
        net.run(9.9)
        during = b.discard.octets - before
        assert during == 0  # nothing crossed the dead link
        net.run(15.0)
        after = b.discard.octets - before - during
        assert after > 0  # flow resumed on restore

    def test_interface_state_follows(self):
        net, a, b = small_net()
        link = b.interfaces[0].link
        failure = LinkFailure(net.sim, link, at=1.0, until=2.0)
        net.run(1.5)
        assert failure.active
        assert not b.interfaces[0].admin_up
        net.run(3.0)
        assert not failure.active
        assert b.interfaces[0].admin_up

    def test_permanent_failure(self):
        net, a, b = small_net()
        LinkFailure(net.sim, b.interfaces[0].link, at=1.0)  # no restore
        net.run(100.0)
        assert not b.interfaces[0].admin_up

    def test_restore_must_follow_failure(self):
        net, a, b = small_net()
        with pytest.raises(FaultError):
            LinkFailure(net.sim, b.interfaces[0].link, at=5.0, until=5.0)

    def test_discards_counted_during_failure(self):
        net, a, b = small_net()
        LinkFailure(net.sim, a.interfaces[0].link, at=0.5)
        StaircaseLoad(
            a, b.primary_ip, StepSchedule([(1.0, 100_000.0), (3.0, 0.0)])
        ).start()
        net.run(4.0)
        assert a.interfaces[0].counters.out_discards > 0


class TestPacketLoss:
    def test_zero_rate_is_transparent(self):
        net, a, b = small_net()
        PacketLoss(b.interfaces[0].link, loss_rate=0.0, seed=1)
        a.create_socket().sendto(100, (b.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert b.discard.datagrams == 1

    def test_full_loss_blocks_everything(self):
        net, a, b = small_net()
        loss = PacketLoss(b.interfaces[0].link, loss_rate=1.0, seed=1)
        sock = a.create_socket()
        for _ in range(10):
            sock.sendto(100, (b.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert b.discard.datagrams == 0
        assert loss.frames_lost == 10

    def test_partial_loss_approximates_rate(self):
        net, a, b = small_net()
        loss = PacketLoss(b.interfaces[0].link, loss_rate=0.3, seed=7)
        sock = a.create_socket()
        for _ in range(500):
            sock.sendto(100, (b.primary_ip, DISCARD_PORT))
            net.run(net.now + 0.001)
        net.run(net.now + 1.0)
        assert b.discard.datagrams == pytest.approx(350, abs=40)

    def test_deterministic_for_seed(self):
        results = []
        for _ in range(2):
            net, a, b = small_net()
            PacketLoss(b.interfaces[0].link, loss_rate=0.5, seed=3)
            sock = a.create_socket()
            for _ in range(50):
                sock.sendto(100, (b.primary_ip, DISCARD_PORT))
            net.run(2.0)
            results.append(b.discard.datagrams)
        assert results[0] == results[1]

    def test_rate_validated(self):
        net, a, b = small_net()
        with pytest.raises(FaultError):
            PacketLoss(b.interfaces[0].link, loss_rate=1.5)


class TestAgentOutage:
    def test_monitor_times_out_then_recovers(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        monitor.watch_path("S1", "N1")
        outage = AgentOutage(build.network.sim, build.agents["S1"], at=6.0, until=16.0)
        monitor.start()
        build.network.run(30.0)
        assert outage.requests_ignored > 0
        assert monitor.manager.timeouts > 0
        # Recovery: the last poll cycles succeeded again.
        assert monitor.poller.rates.latest("S1", 1) is not None
        stats = monitor.stats()
        assert stats["snmp_retransmissions"] >= stats["snmp_timeouts"]

    def test_other_targets_unaffected(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        AgentOutage(build.network.sim, build.agents["S1"], at=0.0, until=20.0)
        monitor.start()
        build.network.run(20.0)
        assert monitor.poller.rates.latest("N1", 1) is not None
        assert monitor.poller.rates.latest("S1", 1) is None

    def test_a_silent_hub_leg_ages_the_hub_connections(self):
        """N1's agent goes silent at t = 10 while its last sample stays in
        the hub's sum: at t = 30 both hub connections on S1 -> N2 are as
        old as that sample, stale, and the report is degraded."""
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        label = monitor.watch_path("S1", "N2")
        AgentOutage(build.network.sim, build.agents["N1"], at=10.0, until=60.0)
        monitor.start()
        build.network.run(30.0)
        report = monitor.current_report(label)
        hub = [m for m in report.connections if m.rule == "hub"]
        assert len(hub) == 2
        for m in hub:
            assert m.sample_time < 10.0 and m.sample_age > 20.0 and m.stale, m
        assert report.degraded and report.confidence < 1.0

    def test_a_hub_leg_never_sampled_degrades_the_hub_connections(self):
        """N2's agent is silent from t = 0, so the hub sum on S1 -> N1 never
        has N2's leg: N1's alone under-reports the shared medium.  Both hub
        connections say so (capped like a lossy source), and so do the
        reports: degraded, never trusted."""
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        label = monitor.watch_path("S1", "N1")
        reports = []
        monitor.subscribe(reports.append)
        AgentOutage(build.network.sim, build.agents["N2"], at=0.0, until=60.0)
        monitor.start()
        build.network.run(30.0)
        assert monitor.poller.rates.latest("N2", 1) is None
        assert reports and all(r.degraded and not r.trusted for r in reports)
        report = monitor.current_report(label)
        hub = [m for m in report.connections if m.rule == "hub"]
        assert len(hub) == 2 and all(m.degraded_source for m in hub)
        assert report.confidence == 0.5

    def test_window_validated(self):
        build = build_testbed()
        with pytest.raises(FaultError):
            AgentOutage(build.network.sim, build.agents["S1"], at=5.0, until=4.0)


class TestAgentReboot:
    def rebootable_net(self):
        from repro.snmp.agent import SnmpAgent
        from repro.snmp.manager import SnmpManager
        from repro.snmp.mib import SYS_UPTIME, build_mib2

        net, a, b = small_net()
        agent = SnmpAgent(b, build_mib2(b, net.sim))
        manager = SnmpManager(a, retries=1)
        return net, a, b, agent, manager, SYS_UPTIME

    def test_counters_zeroed_and_uptime_reset(self):
        net, a, b, agent, manager, SYS_UPTIME = self.rebootable_net()
        StaircaseLoad(
            a, b.primary_ip, StepSchedule([(0.0, 50_000.0), (25.0, 0.0)])
        ).start()
        fault = AgentReboot(net.sim, agent, at=30.0, outage=2.0)
        net.run(29.0)
        assert b.interfaces[0].counters.in_octets > 0
        net.run(33.0)
        assert fault.rebooted
        assert b.interfaces[0].counters.in_octets == 0  # wiped by the reboot
        uptimes = []
        manager.get(b.primary_ip, [SYS_UPTIME], lambda vbs: uptimes.append(vbs[0].value))
        net.run(40.0)
        # ~8 s since the reboot at t=32, nowhere near the 33+ s a
        # never-rebooted agent would report.
        assert len(uptimes) == 1
        assert uptimes[0].to_seconds() < 15.0

    def test_silent_during_outage_window(self):
        net, a, b, agent, manager, SYS_UPTIME = self.rebootable_net()
        fault = AgentReboot(net.sim, agent, at=5.0, outage=3.0)
        errors = []
        net.sim.schedule_at(
            5.5,
            lambda: manager.get(
                b.primary_ip, [SYS_UPTIME], lambda vbs: None, errors.append
            ),
        )
        net.run(20.0)
        assert fault.requests_ignored >= 1
        assert len(errors) == 1  # the request inside the window timed out

    def test_a_cached_agent_stops_the_old_snapshot_timer(self):
        """The reboot wraps the fresh tree in a new caching view; the old
        view, which nobody serves any more, stops refreshing, and the
        simulator is left with the events it had before the reboot."""
        from repro.snmp.agent import SnmpAgent
        from repro.snmp.mib import CachingMibTree, build_mib2

        net, _a, b = small_net()
        agent = SnmpAgent(b, CachingMibTree(build_mib2(b, net.sim), net.sim, 0.5))
        old = agent.mib
        net.run(1.0)
        before = net.sim.pending_count()
        AgentReboot(net.sim, agent, at=2.0, outage=1.0)
        net.run(3.5)
        assert isinstance(agent.mib, CachingMibTree) and agent.mib is not old
        refreshes = old.refreshes
        net.run(13.5)
        assert old.refreshes == refreshes
        assert agent.mib.refreshes >= 20
        assert net.sim.pending_count() == before

    def test_outage_validated(self):
        net, a, b, agent, manager, _ = self.rebootable_net()
        with pytest.raises(FaultError):
            AgentReboot(net.sim, agent, at=1.0, outage=0.0)


class TestResponseDelay:
    def test_delay_applied_then_restored(self):
        from repro.snmp.agent import SnmpAgent
        from repro.snmp.manager import SnmpManager
        from repro.snmp.mib import SYS_UPTIME, build_mib2

        net, a, b = small_net()
        agent = SnmpAgent(b, build_mib2(b, net.sim))
        manager = SnmpManager(a, retries=1)
        baseline = agent.response_delay
        fault = ResponseDelay(net.sim, agent, extra=0.5, at=2.0, until=10.0)
        arrivals = []

        def ask():
            sent = net.sim.now
            manager.get(
                b.primary_ip, [SYS_UPTIME],
                lambda vbs: arrivals.append(net.sim.now - sent),
            )

        net.sim.schedule_at(3.0, ask)   # inside the slow window
        net.sim.schedule_at(12.0, ask)  # after restoration
        net.run(20.0)
        assert len(arrivals) == 2
        assert arrivals[0] >= 0.5
        assert arrivals[1] < 0.5
        assert not fault.active
        assert agent.response_delay == pytest.approx(baseline)

    def test_parameters_validated(self):
        net, a, b = small_net()
        with pytest.raises(FaultError):
            ResponseDelay(net.sim, object(), extra=0.0, at=0.0, until=None)
        with pytest.raises(FaultError):
            ResponseDelay(net.sim, object(), extra=0.5, at=5.0, until=4.0)


class TestFlap:
    def test_cycles_down_and_up_then_settles_up(self):
        net, a, b = small_net()
        link = b.interfaces[0].link
        fault = Flap(net.sim, link, at=2.0, down_for=1.0, up_for=2.0, until=12.0)
        net.run(2.5)
        assert fault.active
        assert not b.interfaces[0].admin_up
        net.run(3.5)
        assert not fault.active
        assert b.interfaces[0].admin_up
        net.run(30.0)
        # The window closed: whatever the phase, the link ends up.
        assert not fault.active
        assert b.interfaces[0].admin_up
        assert fault.flaps >= 3

    def test_parameters_validated(self):
        net, a, b = small_net()
        link = b.interfaces[0].link
        with pytest.raises(FaultError):
            Flap(net.sim, link, at=0.0, down_for=0.0, up_for=1.0)
        with pytest.raises(FaultError):
            Flap(net.sim, link, at=0.0, down_for=1.0, up_for=0.0)
        with pytest.raises(FaultError):
            Flap(net.sim, link, at=5.0, down_for=1.0, up_for=1.0, until=5.0)


# ----------------------------------------------------------------------
# Overlapping faults on one target compose: the target is back at its
# base exactly when the last of them ends, whatever the order.
# ----------------------------------------------------------------------
def agent_net():
    """The three-node net with an SNMP agent on each host and a manager
    on A that gives up after a second."""
    from repro.snmp.agent import SnmpAgent
    from repro.snmp.manager import SnmpManager
    from repro.snmp.mib import build_mib2

    net, a, b = small_net()
    agents = [SnmpAgent(host, build_mib2(host, net.sim)) for host in (a, b)]
    return net, a, b, agents, SnmpManager(a, retries=0)


def channels(net):
    return [ch for link in net.links for ch in (link._a_to_b, link._b_to_a)]


class TestOverlappingFaults:
    def test_overlapping_partitions_heal_to_no_filter_and_traffic_flows(self):
        net, a, b = small_net()
        link = b.interfaces[0].link
        first = NetworkPartition(net.sim, [link], at=1.0, until=3.0)
        second = NetworkPartition(net.sim, [link], at=2.0, until=4.0)
        sock = a.create_socket()
        for t in (2.5, 3.5, 4.5):  # both active, second only, healed
            net.sim.schedule_at(t, sock.sendto, 100, (b.primary_ip, DISCARD_PORT))
        net.run(3.6)
        assert not first.active and second.active
        assert b.discard.datagrams == 0  # still partitioned by the second
        net.run(5.0)
        assert not second.active
        assert link._a_to_b.drop_filter is None and link._b_to_a.drop_filter is None
        assert b.discard.datagrams == 1
        assert first.frames_dropped + second.frames_dropped == 2

    def test_stuck_counters_then_speed_misreport_ends_on_the_live_tree(self):
        from repro.snmp.mib import IF_IN_OCTETS

        net, a, b, (_, agent), manager = agent_net()
        original = agent.mib
        stuck = CounterCorruption(net.sim, agent, at=1.0, until=3.0, mode="stuck")
        speed = SpeedMisreport(net.sim, agent, 1, 1_000_000, at=2.0, until=4.0)
        StaircaseLoad(
            a, b.primary_ip, StepSchedule([(0.0, 50_000.0), (8.0, 0.0)])
        ).start()
        seen = []
        for t in (5.0, 6.0):
            net.sim.schedule_at(
                t, manager.get, b.primary_ip, [IF_IN_OCTETS.extend(1)],
                lambda vbs: seen.append(vbs[0].value.value),
            )
        net.run(7.0)
        assert not stuck.active and not speed.active
        assert agent.mib is original
        assert len(seen) == 2 and seen[1] > seen[0]  # counters move again

    def test_reboot_inside_outage_stays_silent_until_the_later_end(self):
        from repro.snmp.mib import SYS_UPTIME

        net, a, b, (_, agent), manager = agent_net()
        outage = AgentOutage(net.sim, agent, at=1.0, until=5.0)
        reboot = AgentReboot(net.sim, agent, at=2.0, outage=2.0)  # back at 4
        answered, timed_out = [], []
        for t in (4.2, 5.2):
            net.sim.schedule_at(
                t, manager.get, b.primary_ip, [SYS_UPTIME],
                lambda vbs: answered.append(net.sim.now),
                lambda err: timed_out.append(net.sim.now),
            )
        net.run(4.9)
        assert answered == []  # the outage still holds
        assert reboot.rebooted and not reboot.active and outage.active
        net.run(6.0)
        assert not outage.active
        assert len(timed_out) == 1  # the 4.2 request was lost to the outage
        assert len(answered) == 1 and answered[0] > 5.2
        assert agent.socket.on_receive == agent._on_datagram

    def test_flap_over_a_permanent_link_failure_never_raises_the_link(self):
        net, a, b = small_net()
        link = b.interfaces[0].link
        failure = LinkFailure(net.sim, link, at=1.0)
        flap = Flap(net.sim, link, at=2.0, down_for=1.0, up_for=1.0, until=6.0)
        ups = []
        for iface in link.endpoints:
            iface.state_observers.append(lambda iface, up: ups.append((net.sim.now, up)))
        for t in (2.5, 3.5, 4.5, 10.0):  # flap down, up, down, over
            net.run(t)
            assert not any(iface.admin_up for iface in link.endpoints), t
        assert failure.active and not flap.active and flap.flaps >= 2
        # One transition per endpoint, the failure's; the flap moved nothing.
        assert ups == [(1.0, False), (1.0, False)]


# ----------------------------------------------------------------------
# Lying agents are believed alike on both wire forms of the poll
# ----------------------------------------------------------------------
LIES = {
    "random": lambda sim, agent: CounterCorruption(
        sim, agent, at=1.0, until=3.0, mode="random", if_index=3
    ),
    "stuck": lambda sim, agent: CounterCorruption(sim, agent, at=1.0, until=3.0, mode="stuck"),
    "scaled": lambda sim, agent: CounterCorruption(
        sim, agent, at=1.0, until=3.0, mode="scaled", scale=0.5
    ),
    "stuck-counters": lambda sim, agent: StuckCounters(sim, agent, at=1.0, until=3.0, if_index=2),
    "speed": lambda sim, agent: SpeedMisreport(sim, agent, 3, 10_000_000, at=1.0, until=3.0),
}
POLL_AT = (1.1, 2.0, 4.0)  # lying, still lying (traffic has moved since), cleared


def lying_run(cached, lie, bulk):
    """Poll ports 2 and 3 of a switch agent three times.  Traffic crosses
    those ports in two bursts that end before each poll, and the polls
    themselves cross port 1 only, so what a poll reads does not depend on
    how long its request was."""
    from repro.core.poller import PollTarget
    from repro.snmp.agent import SnmpAgent
    from repro.snmp.manager import SnmpManager
    from repro.snmp.mib import CachingMibTree, build_mib2

    net = Network()
    a, b, c = (net.add_host(name) for name in "ABC")
    sw = net.add_switch("sw", 4, managed=True)
    for host in (a, b, c):
        net.connect(host, sw)
    net.announce_hosts()
    mib = build_mib2(sw, net.sim)
    if cached:
        mib = CachingMibTree(mib, net.sim, 0.25)
    agent = SnmpAgent(net.endpoint("sw"), mib, seed=3)
    fault = lie(net.sim, agent) if lie else None
    StaircaseLoad(
        b, c.primary_ip,
        StepSchedule([(0.0, 50_000.0), (0.7, 0.0), (1.3, 80_000.0), (1.6, 0.0)]),
    ).start()
    sizes, polls = [], {}
    send_reply = agent._send_reply
    agent._send_reply = lambda payload, *to: sizes.append(len(payload)) or send_reply(payload, *to)
    manager = SnmpManager(a, retries=0)
    target = PollTarget("sw", net.endpoint("sw").primary_ip, [2, 3], include_oper_status=True,
                        include_speed=True)
    for t in POLL_AT:
        net.sim.schedule_at(  # an event takes no keywords: bind ``bulk`` here
            t, functools.partial(manager.poll_interfaces, bulk=bulk),
            target.address, target.if_indexes, target.columns(),
            lambda reply, t=t: polls.__setitem__(t, reply),
        )
    net.run(5.0)
    assert sorted(polls) == list(POLL_AT)
    return polls, sizes, fault


@pytest.mark.parametrize("cached", [False, True], ids=["mib-tree", "caching-tree"])
@pytest.mark.parametrize("lie", sorted(LIES))
def test_a_lying_agent_is_believed_alike_in_bulk_and_get_mode(lie, cached):
    """The bulk path reads the MIB through ``get_next_run``; a lying view
    that left that method to the tree it wraps would serve the truth
    there while every other test stayed green."""
    honest, honest_sizes, _ = lying_run(cached, None, bulk=True)
    by_get, get_sizes, get_fault = lying_run(cached, LIES[lie], bulk=False)
    by_bulk, bulk_sizes, bulk_fault = lying_run(cached, LIES[lie], bulk=True)
    for t in POLL_AT:
        assert by_bulk[t] == by_get[t], t  # uptime and every cell, tag and value
    assert by_bulk[1.1] != honest[1.1] or lie in ("stuck", "stuck-counters")
    assert by_bulk[2.0] != honest[2.0]  # the lie is served ...
    assert by_bulk[4.0] == honest[4.0]  # ... and the truth once it clears
    # Size-preserving: every reply is as long as the honest agent's.
    assert bulk_sizes == honest_sizes
    assert get_sizes == lying_run(cached, None, bulk=False)[1]
    assert bulk_fault.values_corrupted == get_fault.values_corrupted > 0
    assert not bulk_fault.active


class _StubWorker:
    """What WorkerCrash needs of a worker."""

    name = "w"

    def __init__(self):
        self.crashed = False
        self.restarts = 0

    def crash(self):
        self.crashed = True

    def restart(self):
        self.crashed = False
        self.restarts += 1


def test_overlapping_worker_crashes_keep_the_worker_down_until_the_later_end():
    net, a, b = small_net()
    worker = _StubWorker()
    WorkerCrash(net.sim, worker, at=1.0, until=3.0)
    later = WorkerCrash(net.sim, worker, at=2.0, until=4.0)
    net.run(3.5)
    assert later.active and worker.crashed  # the first one's end restarted nothing
    net.run(4.5)
    assert not worker.crashed and worker.restarts == 1


# Replay with REPRO_CHAOS_SEED=<n> (CI sets it, like tests/test_chaos.py).
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Every window-taking fault class.
WINDOWED = [
    "link_failure", "flap", "partition", "outage", "reboot", "delay",
    "corruption", "stuck", "speed", "worker_crash",
]
_fault = st.tuples(
    st.sampled_from(WINDOWED),
    st.integers(0, 1),  # which link / which agent
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),  # at
    st.floats(min_value=0.05, max_value=4.0, allow_nan=False),  # window length
    st.sampled_from(CounterCorruption.MODES),
)


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(st.lists(_fault, min_size=1, max_size=6))
def test_any_overlap_of_bounded_faults_returns_every_target_to_base(drawn):
    from repro.telemetry.events import FAULT_CLEARED, FAULT_INJECTED, EventBus

    net, a, b, agents, manager = agent_net()
    sim, bus, worker = net.sim, EventBus(), _StubWorker()
    base_mibs = [agent.mib for agent in agents]
    base_delays = [agent.response_delay for agent in agents]
    faults, rebooted = [], set()
    for kind, which, at, length, mode in drawn:
        link, agent, until = net.links[which], agents[which], at + length
        if kind == "link_failure":
            fault = LinkFailure(sim, link, at, until)
        elif kind == "flap":
            fault = Flap(sim, link, at, length / 3, length / 5, until)
        elif kind == "partition":
            fault = NetworkPartition(sim, net.links[: which + 1], at, until)
        elif kind == "outage":
            fault = AgentOutage(sim, agent, at, until)
        elif kind == "reboot":
            fault = AgentReboot(sim, agent, at, outage=length)
            rebooted.add(which)
        elif kind == "delay":
            fault = ResponseDelay(sim, agent, 0.1 + length, at, until)
        elif kind == "corruption":
            fault = CounterCorruption(sim, agent, at, until, mode=mode)
        elif kind == "stuck":
            fault = StuckCounters(sim, agent, at, until, if_index=1)
        elif kind == "speed":
            fault = SpeedMisreport(sim, agent, 1, 1_000_000, at, until)
        else:
            fault = WorkerCrash(sim, worker, at, until)
        fault.events = bus
        faults.append(fault)
    # Polls keep the lying MIB views and the silenced sockets exercised.
    from repro.snmp.mib import IF_IN_OCTETS, IF_SPEED

    sim.call_every(
        0.7, lambda: manager.get(
            b.primary_ip, [IF_IN_OCTETS.extend(1), IF_SPEED.extend(1)], lambda vbs: None,
            lambda err: None,
        ),
    )
    net.run(13.0)  # the last window closes by 8 + 4

    for channel in channels(net):
        assert channel.drop_filter is None
    for link in net.links:
        assert all(iface.admin_up for iface in link.endpoints)
    for which, agent in enumerate(agents):
        assert agent.socket.on_receive == agent._on_datagram
        assert agent.response_delay == base_delays[which]
        if which in rebooted:  # the (last) reboot's replacement, unwrapped
            assert type(agent.mib) is type(base_mibs[which])
            assert agent.mib is not base_mibs[which]
        else:
            assert agent.mib is base_mibs[which]
    assert not worker.crashed
    assert [f for f in faults if f.active] == []
    assert bus.count(FAULT_INJECTED) == bus.count(FAULT_CLEARED) >= len(faults)
