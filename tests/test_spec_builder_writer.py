"""Unit tests for spec -> network building and spec serialisation."""

import pytest

from repro.simnet.sockets import DISCARD_PORT
from repro.snmp.mib import CachingMibTree
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.spec.validate import SpecValidationError
from repro.spec.writer import write_spec

SPEC = """
network topology demo {
    host L  { os "Linux"; snmp community "public"; interface eth0 { speed 100 Mbps; } }
    host N1 { os "Win NT"; snmp community "public"; interface el0 { speed 10 Mbps; } }
    host S4 { }
    switch sw { snmp community "public"; ports 4 speed 100 Mbps; }
    hub hb { ports 4 speed 10 Mbps; }
    connect L.eth0 <-> sw.port1;
    connect S4.eth0 <-> sw.port2;
    connect sw.port3 <-> hb.port1;
    connect N1.el0 <-> hb.port2;
}
"""


class TestBuilder:
    def test_devices_created(self):
        result = build_network(parse_spec(SPEC))
        net = result.network
        assert set(net.hosts) == {"L", "N1", "S4"}
        assert set(net.switches) == {"sw"}
        assert set(net.hubs) == {"hb"}
        assert len(net.links) == 4

    def test_agents_started_only_where_declared(self):
        result = build_network(parse_spec(SPEC))
        assert set(result.agents) == {"L", "N1", "sw"}
        with pytest.raises(KeyError):
            result.agent("S4")

    def test_interface_speeds_respected(self):
        result = build_network(parse_spec(SPEC))
        assert result.network.host("N1").interfaces[0].speed_bps == 10e6
        # N1's hub link auto-negotiates down to the hub speed.
        assert result.network.host("N1").interfaces[0].link.bandwidth_bps == 10e6

    def test_traffic_flows_end_to_end(self):
        result = build_network(parse_spec(SPEC))
        net = result.network
        net.run(0.1)
        net.host("L").create_socket().sendto(
            500, (net.host("N1").primary_ip, DISCARD_PORT)
        )
        net.run(1.0)
        assert net.host("N1").discard.datagrams == 1

    def test_invalid_spec_rejected(self):
        bad = parse_spec(
            "network topology t { host A { } connect A.eth0 <-> ghost.p; }"
        )
        with pytest.raises(SpecValidationError):
            build_network(bad)

    def test_validation_can_be_skipped(self):
        # Stranded host: a warning, never an error; builds either way.
        spec = parse_spec("network topology t { host A { } host B { } }")
        build_network(spec, validate=False)

    def test_counter_cache_default_applied(self):
        result = build_network(parse_spec(SPEC), counter_cache=0.5)
        assert isinstance(result.agents["L"].mib, CachingMibTree)

    def test_counter_cache_per_node_attribute(self):
        text = SPEC.replace('os "Linux";', 'os "Linux"; snmp_cache "0.25";')
        result = build_network(parse_spec(text))
        assert isinstance(result.agents["L"].mib, CachingMibTree)
        assert result.agents["L"].mib.refresh_interval == 0.25
        assert not isinstance(result.agents["N1"].mib, CachingMibTree)

    def test_deterministic_build(self):
        r1 = build_network(parse_spec(SPEC))
        r2 = build_network(parse_spec(SPEC))
        ip1 = sorted(str(h.primary_ip) for h in r1.network.hosts.values())
        ip2 = sorted(str(h.primary_ip) for h in r2.network.hosts.values())
        assert ip1 == ip2


class TestWriter:
    def test_roundtrip_preserves_structure(self):
        spec = parse_spec(SPEC)
        text = write_spec(spec)
        again = parse_spec(text)
        assert [n.name for n in again.nodes] == [n.name for n in spec.nodes]
        assert [(str(c.end_a), str(c.end_b)) for c in again.connections] == [
            (str(c.end_a), str(c.end_b)) for c in spec.connections
        ]
        assert again.node("L").snmp_enabled
        assert again.node("N1").interface("el0").speed_bps == 10e6

    def test_roundtrip_qospaths(self):
        text = """
        network topology t {
            host A { } host B { }
            qospath p { from A to B; min_available 1600 Kbps; max_utilization 0.8; }
        }
        """
        spec = parse_spec(text)
        again = parse_spec(write_spec(spec))
        (path,) = again.qos_paths
        assert path.name == "p"
        assert path.min_available_bps == 1600e3
        assert path.max_utilization == 0.8

    def test_roundtrip_bandwidth_override(self):
        text = """
        network topology t {
            host A { } switch s { ports 2; }
            connect A.eth0 <-> s.port1 [ bandwidth 10 Mbps ];
        }
        """
        again = parse_spec(write_spec(parse_spec(text)))
        assert again.connections[0].bandwidth_bps == 10e6

    def test_attributes_round_trip(self):
        text = 'network topology t { host A { room "B-14"; } }'
        again = parse_spec(write_spec(parse_spec(text)))
        assert again.node("A").attributes["room"] == "B-14"

    def test_testbed_round_trips(self):
        from repro.experiments.testbed import TESTBED_SPEC_TEXT

        spec = parse_spec(TESTBED_SPEC_TEXT)
        again = parse_spec(write_spec(spec))
        assert [n.name for n in again.nodes] == [n.name for n in spec.nodes]
        assert len(again.connections) == len(spec.connections)
        assert again.node("N1").attributes["snmp_cache"] == "0.5"
