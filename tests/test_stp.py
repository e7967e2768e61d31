"""Spanning-tree protocol tests: loop safety and redundant-uplink failover.

Redundant uplinks make the layer-2 graph cyclic; :mod:`repro.simnet.stp`
must (a) block exactly enough ports to cut every loop, (b) never let a
broadcast circulate -- not even transiently during (re)convergence --
and (c) re-converge onto the backup uplink in bounded sim-time when the
active one dies.
"""

import pytest

from repro.simnet.faults import FaultError, Flap, LinkFailure, NetworkPartition, find_link
from repro.simnet.stp import (
    Bpdu,
    ROLE_ALTERNATE,
    ROLE_DESIGNATED,
    ROLE_ROOT,
    STATE_BLOCKING,
    STATE_FORWARDING,
    port_cost,
)
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.spec.validate import validate_spec

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

TRIANGLE = """
network topology triangle {
    host A { snmp community "public"; }
    host B { snmp community "public"; }
    host C { snmp community "public"; }
    switch sw1 { snmp community "public"; ports 4; stp "on"; }
    switch sw2 { snmp community "public"; ports 4; stp "on"; }
    switch sw3 { snmp community "public"; ports 4; stp "on"; }
    connect A.eth0 <-> sw1.port1;
    connect B.eth0 <-> sw2.port1;
    connect C.eth0 <-> sw3.port1;
    connect sw1.port2 <-> sw2.port2;
    connect sw2.port3 <-> sw3.port2;
    connect sw3.port3 <-> sw1.port3;
}
"""


def states_of(switch):
    return {idx: (role, state) for idx, role, state in switch.stp.port_table()}


class TestBpduWire:
    def test_encode_decode_roundtrip(self):
        bpdu = Bpdu(0x8000, "sw1", 20, 0x8000, "sw2", 3, tc_hops=5)
        again = Bpdu.decode(bpdu.encode())
        assert again is not None
        assert again.vector() == bpdu.vector()
        assert again.tc_hops == 5

    def test_decode_rejects_garbage(self):
        assert Bpdu.decode(b"not a bpdu") is None
        assert Bpdu.decode(b"BPDU|x|y") is None
        assert Bpdu.decode(b"\xff\xfe") is None

    def test_port_cost_follows_speed(self):
        assert port_cost(100e6) == 20
        assert port_cost(10e6) == 200
        assert port_cost(1e9) == 2
        assert port_cost(0) == 65535


class TestRedundantPair:
    def build(self):
        return build_network(parse_spec(REDUNDANT_PAIR))

    def test_validator_allows_stp_loop(self):
        issues = validate_spec(parse_spec(REDUNDANT_PAIR))
        assert not any("loop" in str(i) for i in issues)

    def test_validator_flags_loop_without_stp(self):
        text = REDUNDANT_PAIR.replace('ports 4; stp "on";', "ports 4;", 1)
        issues = validate_spec(parse_spec(text))
        loops = [i for i in issues if "loop" in str(i)]
        assert len(loops) == 1
        assert loops[0].severity == "warning"
        assert "sw1" in str(loops[0])

    def test_one_uplink_blocks(self):
        build = self.build()
        net = build.network
        net.run(3.0)
        sw1, sw2 = net.switches["sw1"], net.switches["sw2"]
        # sw1 < sw2 lexicographically at equal priority: sw1 is the root
        # and both its uplink ports are designated-forwarding.
        assert sw1.stp.is_root and not sw2.stp.is_root
        assert sw2.stp.root == "sw1"
        s1, s2 = states_of(sw1), states_of(sw2)
        assert s1[3] == (ROLE_DESIGNATED, STATE_FORWARDING)
        assert s1[4] == (ROLE_DESIGNATED, STATE_FORWARDING)
        # sw2 keeps the lower-indexed uplink (tie-break) and blocks the other.
        assert s2[3] == (ROLE_ROOT, STATE_FORWARDING)
        assert s2[4] == (ROLE_ALTERNATE, STATE_BLOCKING)
        # Host-facing ports are edge ports: designated-forwarding.
        assert s1[1] == (ROLE_DESIGNATED, STATE_FORWARDING)
        assert s2[1] == (ROLE_DESIGNATED, STATE_FORWARDING)

    def test_no_broadcast_storm(self):
        build = self.build()
        net = build.network
        net.host("A").create_socket().sendto(64, (net.broadcast_ip, 520))
        net.run(10.0)
        for sw in net.switches.values():
            assert sw.frames_dropped_hops == 0

    def test_traffic_crosses_active_uplink(self):
        build = self.build()
        net = build.network
        StaircaseLoad(
            net.host("A"), net.ip_of("B"), StepSchedule.pulse(2.0, 8.0, 200 * KBPS)
        ).start()
        net.run(10.0)
        assert net.host("B").discard.octets > 100_000

    def test_failover_to_backup_uplink(self):
        build = self.build()
        net = build.network
        LinkFailure.between(net, "sw1", "sw2", at=5.0, index=0)
        StaircaseLoad(
            net.host("A"), net.ip_of("B"), StepSchedule.pulse(2.0, 18.0, 200 * KBPS)
        ).start()
        net.run(8.0)
        at_8 = net.host("B").discard.octets
        net.run(20.0)
        sw2 = net.switches["sw2"]
        s2 = states_of(sw2)
        assert s2[3][0] == "disabled"
        assert s2[4] == (ROLE_ROOT, STATE_FORWARDING)
        # Traffic kept flowing over the backup after the failure.
        assert net.host("B").discard.octets > at_8 + 100_000
        for sw in net.switches.values():
            assert sw.frames_dropped_hops == 0

    def test_a_state_change_decides_the_very_next_frame(self):
        """The switch reads the port's flag per frame -- nothing about a
        flow is remembered: a warm unicast flow loses the first datagram
        after the active uplink dies (the backup's far port is still
        blocking) and the first one after the backup is promoted gets
        through; when the uplink returns and the tree blocks the backup
        again, the next copy offered to it is dropped there."""
        net = self.build().network
        a, b, sw2 = net.host("A"), net.host("B"), net.switches["sw2"]
        net.run(4.0)
        b.create_socket().sendto(10, (a.primary_ip, 9))  # both FDBs learn B
        sock, target = a.create_socket(), (b.primary_ip, 9)

        def send_then_run(until):
            sock.sendto(100, target)
            net.run(until)
            return b.discard.datagrams, sw2.frames_dropped_blocked

        got, blocked = send_then_run(4.1)
        assert got == 1 and sw2.port(3).forwarding and not sw2.port(4).forwarding
        LinkFailure.between(net, "sw1", "sw2", at=4.2, until=6.0, index=0)
        net.run(4.25)
        assert send_then_run(4.3) == (got, blocked + 1)  # into the backup, still blocking
        net.run(4.75)  # forward_delay after the failure
        assert sw2.port(4).forwarding
        assert send_then_run(4.8) == (got + 1, blocked + 1)
        net.run(8.0)  # the uplink is back: port3 is root again, port4 blocked at once
        assert states_of(sw2)[4] == (ROLE_ALTERNATE, STATE_BLOCKING)
        assert sw2.port(3).forwarding and not sw2.port(4).forwarding
        blocked = sw2.frames_dropped_blocked
        net.switches["sw1"].flush_fdb()  # so the next datagram is offered to both uplinks
        assert send_then_run(8.1) == (got + 2, blocked + 1)

    def test_failover_is_bounded(self):
        """Local link-down re-converges within forward_delay, not max_age."""
        build = self.build()
        net = build.network
        net.run(4.0)
        LinkFailure.between(net, "sw1", "sw2", at=4.0, index=0)
        net.run(4.0 + 0.6)  # forward_delay is 0.5s
        assert states_of(net.switches["sw2"])[4] == (ROLE_ROOT, STATE_FORWARDING)

    def test_remote_failure_detected_by_max_age(self):
        """A grey failure (no link-down event) still fails over via timers."""
        build = self.build()
        net = build.network
        net.run(4.0)
        active = find_link(net, "sw1", "sw2", index=0)
        NetworkPartition(net.sim, [active], at=4.0, until=60.0)
        # max_age (3 hellos) + hello tick + forward_delay, plus slack.
        net.run(4.0 + 3.0 + 1.0 + 0.5 + 0.6)
        assert states_of(net.switches["sw2"])[4] == (ROLE_ROOT, STATE_FORWARDING)

    def test_restored_uplink_reblocks_without_storm(self):
        build = self.build()
        net = build.network
        LinkFailure.between(net, "sw1", "sw2", at=5.0, until=9.0, index=0)
        net.host("A").create_socket().sendto(64, (net.broadcast_ip, 520))
        net.run(20.0)
        s2 = states_of(net.switches["sw2"])
        # port3 wins the tie-break again once restored; port4 re-blocks.
        assert s2[3] == (ROLE_ROOT, STATE_FORWARDING)
        assert s2[4] == (ROLE_ALTERNATE, STATE_BLOCKING)
        for sw in net.switches.values():
            assert sw.frames_dropped_hops == 0

    def test_flap_between_never_storms(self):
        build = self.build()
        net = build.network
        Flap.between(net, "sw1", "sw2", at=3.0, down_for=1.0, up_for=2.0,
                     until=15.0, index=0)
        net.host("A").create_socket().sendto(64, (net.broadcast_ip, 520))
        net.run(20.0)
        for sw in net.switches.values():
            assert sw.frames_dropped_hops == 0

    def test_find_link_unknown_pair_raises(self):
        build = self.build()
        with pytest.raises(FaultError):
            find_link(build.network, "sw1", "nope")
        with pytest.raises(FaultError):
            find_link(build.network, "sw1", "sw2", index=7)

    def test_stp_stats(self):
        build = self.build()
        net = build.network
        net.run(5.0)
        stats = net.switches["sw2"].stp.stats()
        assert stats["bpdus_sent"] > 0
        assert stats["bpdus_received"] > 0
        assert stats["blocked_ports"] == 1

    def test_port_state_values_follow_rfc1493(self):
        build = self.build()
        net = build.network
        net.run(3.0)
        sw2 = net.switches["sw2"]
        assert sw2.stp.port_state_value(3) == 5  # forwarding
        assert sw2.stp.port_state_value(4) == 2  # blocking
        assert sw2.stp.port_state_value(2) == 1  # unwired: disabled


class TestTriangle:
    def build(self):
        return build_network(parse_spec(TRIANGLE))

    def test_exactly_one_port_blocks(self):
        build = self.build()
        net = build.network
        net.run(3.0)
        blocked = sum(
            sw.stp.stats()["blocked_ports"] for sw in net.switches.values()
        )
        assert blocked == 1

    def test_all_pairs_connected(self):
        build = self.build()
        net = build.network
        for src, dst in (("A", "B"), ("B", "C"), ("C", "A")):
            StaircaseLoad(
                net.host(src), net.ip_of(dst),
                StepSchedule.pulse(2.0, 8.0, 100 * KBPS),
            ).start()
        net.run(10.0)
        for name in ("A", "B", "C"):
            assert net.host(name).discard.octets > 50_000
        for sw in net.switches.values():
            assert sw.frames_dropped_hops == 0

    def test_ring_heals_around_failed_segment(self):
        """Failing one ring segment re-converges via the other two."""
        build = self.build()
        net = build.network
        net.run(3.0)
        # sw1 is root; kill the sw1<->sw2 segment: sw2 must re-root via sw3.
        LinkFailure.between(net, "sw1", "sw2", at=3.0)
        StaircaseLoad(
            net.host("A"), net.ip_of("B"), StepSchedule.pulse(5.0, 18.0, 100 * KBPS)
        ).start()
        net.run(20.0)
        sw2 = net.switches["sw2"]
        assert sw2.stp.root == "sw1"
        s2 = states_of(sw2)
        assert s2[3] == (ROLE_ROOT, STATE_FORWARDING)  # via sw3 now
        assert net.host("B").discard.octets > 50_000
        for sw in net.switches.values():
            assert sw.frames_dropped_hops == 0
