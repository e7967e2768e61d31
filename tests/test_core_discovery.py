"""Tests for the dynamic-topology-discovery extension."""

import pytest

from repro.core.discovery import TopologyDiscoverer
from repro.experiments.testbed import build_testbed
from repro.simnet.network import BROADCAST_IP
from repro.snmp.manager import SnmpManager


def discovered(candidates=None, warmup_traffic=True):
    build = build_testbed()
    net = build.network
    net.run(1.0)
    if warmup_traffic:
        # A broadcast from every host lets the switch learn all MACs.
        for host in net.hosts.values():
            host.create_socket().sendto(10, (BROADCAST_IP, 520))
        net.run(2.0)
    manager = SnmpManager(net.host("L"))
    if candidates is None:
        candidates = [
            (n, net.ip_of(n), "public") for n in ("L", "S1", "S2", "N1", "N2", "switch")
        ]
    discoverer = TopologyDiscoverer(manager, candidates)
    box = {}
    discoverer.discover(lambda r: box.update(result=r))
    net.run(60.0)
    return build, box["result"]


class TestDiscovery:
    def test_switch_identified_by_fdb(self):
        build, result = discovered()
        switches = [n.name for n in result.nodes.values() if n.is_switch]
        assert switches == ["switch"]

    def test_direct_attachments_found(self):
        build, result = discovered()
        for host, port in [("L", 1), ("S1", 2), ("S2", 3)]:
            att = result.attachment_of(host)
            assert att is not None
            assert att.switch == "switch" and att.port == port
            assert not att.shared_segment

    def test_hub_hosts_share_uplink_port(self):
        """N1 and N2 both appear behind the switch's hub-facing port."""
        build, result = discovered()
        att_n1 = result.attachment_of("N1")
        att_n2 = result.attachment_of("N2")
        assert att_n1 is att_n2 or att_n1.port == att_n2.port
        assert att_n1.shared_segment
        assert sorted(att_n1.known_nodes) == ["N1", "N2"]

    def test_snmpless_hosts_appear_as_unknown_macs(self):
        build, result = discovered()
        assert result.unknown_station_count() == 4  # S3-S6

    def test_host_macs_collected(self):
        build, result = discovered()
        assert len(result.nodes["S1"].macs) == 1
        mac = next(iter(result.nodes["S1"].macs))
        assert mac == build.network.host("S1").interfaces[0].mac


class TestVerification:
    def test_clean_testbed_verifies(self):
        build, result = discovered()
        findings = result.verify_against(build.spec)
        # Only the four agentless hosts are unverifiable; nothing mismatches.
        assert all(f.startswith("unverifiable") for f in findings)
        assert len(findings) == 4

    def test_spec_lie_detected(self):
        """Claiming S1 hangs off the hub must produce a mismatch."""
        build, result = discovered()
        spec = build.spec
        # Mutate the spec: swap S1's declared attachment to the hub.
        conn = next(c for c in spec.connections if c.touches("S1"))
        spec.connections.remove(conn)
        from repro.topology.model import ConnectionSpec, InterfaceRef

        spec.connections.append(
            ConnectionSpec(InterfaceRef("S1", "hme0"), InterfaceRef("hub", "port4"))
        )
        findings = result.verify_against(spec)
        assert any("mismatch" in f and "S1" in f for f in findings)

    def test_cold_switch_yields_no_attachments(self):
        """Without traffic the FDB is nearly empty: discovery sees little."""
        build, result = discovered(warmup_traffic=False)
        # Announcements at build time still teach the switch each host once,
        # but after that the result must still be internally consistent.
        for att in result.attachments:
            assert att.known_nodes or att.unknown_macs

    def test_double_discover_rejected(self):
        build = build_testbed()
        net = build.network
        manager = SnmpManager(net.host("L"))
        discoverer = TopologyDiscoverer(manager, [("S1", net.ip_of("S1"), "public")])
        discoverer.discover(lambda r: None)
        with pytest.raises(RuntimeError):
            discoverer.discover(lambda r: None)


class TestPartialOutage:
    """Discovery under agent outage: "no data" is not "not there"."""

    def _discover_with_outage(self, down):
        from repro.simnet.faults import AgentOutage

        build = build_testbed()
        net = build.network
        net.run(1.0)
        for host in net.hosts.values():
            host.create_socket().sendto(10, (BROADCAST_IP, 520))
        net.run(2.0)
        for name in down:
            AgentOutage(net.sim, build.agents[name], at=2.0, until=90.0)
        net.run(2.5)  # outage active before the first walk request
        manager = SnmpManager(net.host("L"))
        candidates = [
            (n, net.ip_of(n), "public") for n in ("L", "S1", "S2", "N1", "N2", "switch")
        ]
        discoverer = TopologyDiscoverer(manager, candidates)
        box = {}
        discoverer.discover(lambda r: box.update(result=r))
        net.run(80.0)
        return build, box["result"]

    def test_dead_agent_reported_unreachable_not_detached(self):
        build, result = self._discover_with_outage(["S1"])
        assert result.unreachable == {"S1"}
        # S1's MAC is still learned behind the switch port -- it shows
        # as an anonymous station, never as a confirmed attachment.
        assert result.attachment_of("S1") is None
        # The reachable agents are unaffected.
        assert result.attachment_of("S2") is not None
        assert result.attachment_of("L") is not None

    def test_dead_switch_leaves_hosts_unattached_but_reachable(self):
        build, result = self._discover_with_outage(["switch"])
        assert result.unreachable == {"switch"}
        # No FDB: nothing can be attached, but every host still answered.
        assert result.attachments == []
        assert "S1" in result.nodes and result.nodes["S1"].macs

    def test_all_walks_failing_flags_every_candidate(self):
        build, result = self._discover_with_outage(
            ["L", "S1", "S2", "N1", "N2", "switch"]
        )
        # L's own agent is down but the manager runs on L; candidates
        # other than the manager's host are all unreachable.
        assert {"S1", "S2", "N1", "N2", "switch"} <= result.unreachable

    def test_stp_walk_rides_along(self):
        """include_stp adds port-state rows for STP switches only."""
        from repro.spec.builder import build_network
        from repro.spec.parser import parse_spec

        spec = parse_spec(
            """
            network topology stp_disc {
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
        )
        build = build_network(spec)
        net = build.network
        net.announce_hosts(at=0.5)
        net.run(4.0)  # STP converged: one uplink forwarding, one blocked
        manager = SnmpManager(net.host("A"))
        candidates = [(n, net.ip_of(n), "public") for n in ("A", "B", "sw1", "sw2")]
        discoverer = TopologyDiscoverer(manager, candidates, include_stp=True)
        box = {}
        discoverer.discover(lambda r: box.update(result=r))
        net.run(30.0)
        result = box["result"]
        states = result.nodes["sw2"].stp_states
        assert states  # port -> dot1dStpPortState rows came back
        assert 2 in states.values()  # exactly one blocking uplink end
        assert list(states.values()).count(2) == 1
        assert result.nodes["A"].stp_states == {}  # hosts have none
