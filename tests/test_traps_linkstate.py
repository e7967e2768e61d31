"""Tests for SNMP traps and link-state-aware monitoring."""

import pytest

from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import TESTBED_SPEC_TEXT, build_testbed
from repro.simnet.faults import AgentReboot, LinkFailure
from repro.simnet.network import Network
from repro.snmp.agent import SnmpAgent
from repro.snmp.datatypes import Counter32, Integer, TimeTicks
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import IF_INDEX, SNMP_OUT_PKTS, build_mib2
from repro.snmp.trap import (
    TRAP_LINK_DOWN,
    TRAP_LINK_UP,
    TrapReceiver,
    build_trap_pdu,
)
from repro.snmp.message import VERSION_2C, Message
from repro.snmp.pdu import Pdu, VarBind
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec


def tap(receiver):
    """Every notification ``receiver`` delivers, collected beside its callback."""
    seen, deliver = [], receiver.callback

    def callback(event):
        seen.append(event)
        deliver(event)

    receiver.callback = callback
    return seen


def link_trap_pdu(uptime, if_index, up):
    """A linkUp/linkDown trap for one interface, as the agent builds it."""
    trap_oid = TRAP_LINK_UP if up else TRAP_LINK_DOWN
    return build_trap_pdu(uptime, trap_oid, [VarBind(IF_INDEX + str(if_index), Integer(if_index))])


class TestTrapPdu:
    def test_link_trap_structure(self):
        pdu = link_trap_pdu(TimeTicks(500), if_index=3, up=False)
        assert pdu.kind == "trap"
        assert pdu.varbinds[0].value == TimeTicks(500)
        assert pdu.varbinds[1].value.value == TRAP_LINK_DOWN
        assert pdu.varbinds[2].value == Integer(3)

    def test_trap_roundtrips_through_ber(self):
        pdu = link_trap_pdu(TimeTicks(12345), if_index=7, up=True)
        raw = Message(VERSION_2C, "public", pdu).encode()
        decoded = Message.decode(raw)
        assert decoded.pdu.kind == "trap"
        assert decoded.pdu.varbinds[1].value.value == TRAP_LINK_UP


def trap_pair():
    net = Network()
    mon = net.add_host("L")
    target = net.add_host("S1")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(mon, sw)
    net.connect(target, sw)
    net.announce_hosts()
    agent = SnmpAgent(target, build_mib2(target, net.sim))
    events = []
    receiver = TrapReceiver(mon, callback=events.append)
    return net, mon, target, agent, receiver, events


class TestTrapDelivery:
    def test_link_down_trap_received(self):
        net, mon, target, agent, receiver, events = trap_pair()
        # Trap about a second interface so the transport link stays up.
        net.add_host_interface(target, "eth1")
        agent.enable_link_traps(mon.primary_ip)
        net.run(0.5)
        target.interfaces[1].set_admin_up(False)
        net.run(1.0)
        assert len(events) == 1
        event = events[0]
        assert event.is_link_down
        assert event.if_index() == 2
        assert event.source_ip == target.primary_ip

    def test_link_up_trap_received(self):
        net, mon, target, agent, receiver, events = trap_pair()
        net.add_host_interface(target, "eth1")
        agent.enable_link_traps(mon.primary_ip)
        target.interfaces[1].set_admin_up(False)
        net.run(0.5)
        target.interfaces[1].set_admin_up(True)
        net.run(1.0)
        assert [e.is_link_down for e in events] == [True, False]

    def test_no_transition_no_trap(self):
        net, mon, target, agent, receiver, events = trap_pair()
        agent.enable_link_traps(mon.primary_ip)
        target.interfaces[0].set_admin_up(True)  # already up
        net.run(1.0)
        assert events == []

    def test_trap_for_own_dead_uplink_is_lost(self):
        """A linkDown for the agent's only link cannot leave the host."""
        net, mon, target, agent, receiver, events = trap_pair()
        agent.enable_link_traps(mon.primary_ip)
        target.interfaces[0].set_admin_up(False)
        net.run(1.0)
        assert events == []  # the trap died with the link (realistic)
        assert agent.traps_sent == 1  # it was emitted, just never arrived

    def test_wrong_community_dropped(self):
        net, mon, target, agent, receiver, events = trap_pair()
        net.add_host_interface(target, "eth1")
        agent.enable_link_traps(mon.primary_ip, community="other")
        target.interfaces[1].set_admin_up(False)
        net.run(1.0)
        assert events == []
        assert receiver.bad_community == 1

    def test_garbage_counted_malformed(self):
        net, mon, target, agent, receiver, events = trap_pair()
        target.create_socket().sendto(b"junk", (mon.primary_ip, 162))
        net.run(1.0)
        assert receiver.malformed == 1

    def test_non_trap_pdu_counted_malformed(self):
        net, mon, target, agent, receiver, events = trap_pair()
        from repro.snmp.oid import Oid

        raw = Message(VERSION_2C, "public", Pdu.get_request(1, [Oid("1.3")])).encode()
        target.create_socket().sendto(raw, (mon.primary_ip, 162))
        net.run(1.0)
        assert receiver.malformed == 1


class TestLinkStateMonitoring:
    def failure_scenario(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        label = monitor.watch_path("S1", "N1")
        registry = monitor.enable_trap_listener()
        return build, monitor, label, registry

    def test_downed_connection_zeroes_availability(self):
        build, monitor, label, registry = self.failure_scenario()
        net = build.network
        link = net.host("S1").interfaces[0].link
        LinkFailure(net.sim, link, at=10.0, until=20.0)
        monitor.start()
        net.run(12.0)
        report = monitor.current_report(label)
        assert report.available_bps == 0.0
        assert any(m.rule == "down" for m in report.connections)
        assert len(registry) == 1

    def test_recovery_restores_availability(self):
        build, monitor, label, registry = self.failure_scenario()
        net = build.network
        link = net.host("S1").interfaces[0].link
        LinkFailure(net.sim, link, at=10.0, until=20.0)
        monitor.start()
        net.run(30.0)
        report = monitor.current_report(label)
        assert report.available_bps > 1_000_000
        assert len(registry) == 0
        assert all(m.rule != "down" for m in report.connections)

    def test_agents_under_another_community_still_reach_the_listener(self):
        # The spec names each agent's community; the listener tells every
        # agent which one to send notifications under.
        text = TESTBED_SPEC_TEXT.replace('"public"', '"private"')
        build = build_network(parse_spec(text))
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        registry = monitor.enable_trap_listener()
        net = build.network
        LinkFailure(net.sim, net.host("S1").interfaces[0].link, at=10.0)
        monitor.start()
        net.run(10.1)
        assert monitor.trap_receiver.bad_community == 0
        assert registry.down_connections()

    def test_detection_faster_than_polling(self):
        """The trap lands within milliseconds, not a poll interval."""
        build, monitor, label, registry = self.failure_scenario()
        net = build.network
        link = net.host("S1").interfaces[0].link
        LinkFailure(net.sim, link, at=10.0)
        monitor.start()
        net.run(10.1)  # one tenth of a 2 s poll interval later
        assert registry.down_connections(), "trap should beat the poller"

    def test_a_link_down_after_an_agent_reboot_is_applied(self):
        """A reboot restarts the switch's sysUpTime, so its next trap
        carries a lower uptime than the last one before it: still news."""
        build, monitor, label, registry = self.failure_scenario()
        net = build.network
        port = net.switches["switch"].interfaces[2]
        monitor.start()
        net.run(30.0)
        port.set_admin_up(False)
        net.run(31.0)
        port.set_admin_up(True)
        AgentReboot(net.sim, build.agents["switch"], at=35.0, outage=2.0)
        net.run(40.0)
        port.set_admin_up(False)
        net.run(41.0)
        assert (registry.events_applied, len(registry)) == (3, 1)

    def test_enable_idempotent(self):
        build, monitor, label, registry = self.failure_scenario()
        assert monitor.enable_trap_listener() is registry

    def test_unmapped_trap_counted(self):
        build, monitor, label, registry = self.failure_scenario()
        net = build.network
        # A trap about an unknown interface index.
        agent = build.agents["S1"]
        pdu = link_trap_pdu(TimeTicks(1), if_index=99, up=False)
        raw = Message(VERSION_2C, "public", pdu).encode()
        agent.socket.sendto(raw, (net.host("L").primary_ip, 162))
        net.run(1.0)
        assert registry.events_unmapped == 1
        assert len(registry) == 0

    def test_cold_start_style_trap_ignored_by_registry(self):
        build, monitor, label, registry = self.failure_scenario()
        net = build.network
        from repro.snmp.trap import TRAP_COLD_START

        agent = build.agents["S1"]
        pdu = build_trap_pdu(TimeTicks(0), TRAP_COLD_START)
        raw = Message(VERSION_2C, "public", pdu).encode()
        delivered = tap(monitor.trap_receiver)
        agent.socket.sendto(raw, (net.host("L").primary_ip, 162))
        net.run(1.0)
        assert [event.trap_oid for event in delivered] == [TRAP_COLD_START]
        assert registry.events_applied == 0


class TestOutPktsCountsNotifications:
    """snmpOutPkts (RFC 1213) counts every message the agent passes to
    the transport: replies and traps."""

    def managed_switch(self):
        net = Network()
        mon = net.add_host("L")
        sw = net.add_switch("sw", 4, managed=True)
        net.connect(mon, sw)
        net.announce_hosts()
        agent = SnmpAgent(net.endpoint("sw"), build_mib2(sw, net.sim))
        return net, mon, sw, agent

    def test_a_trap_is_an_out_packet(self):
        net, mon, sw, agent = self.managed_switch()
        agent.enable_link_traps(mon.primary_ip)
        sw.interfaces[2].set_admin_up(False)
        net.run(0.5)
        sw.interfaces[2].set_admin_up(True)
        net.run(1.0)
        assert agent.traps_sent == 2
        assert agent.mib.get(SNMP_OUT_PKTS) == Counter32(2)

    def test_replies_and_traps_together(self):
        net, mon, sw, agent = self.managed_switch()
        agent.enable_link_traps(mon.primary_ip)
        got = []
        manager = SnmpManager(mon, retries=0)
        manager.get(net.endpoint("sw").primary_ip, [SNMP_OUT_PKTS], got.append)
        net.run(1.0)
        sw.interfaces[2].set_admin_up(False)
        manager.get(net.endpoint("sw").primary_ip, [SNMP_OUT_PKTS], got.append)
        net.run(2.0)
        # Read before its own reply leaves: the first reply, then it and the trap.
        assert [varbinds[0].value for varbinds in got] == [Counter32(0), Counter32(2)]
        assert agent.out_packets == 3
