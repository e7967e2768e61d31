"""Unit tests for the spec-language parser."""

import pytest

from repro.spec.parser import ParseError, parse_spec
from repro.topology.model import DeviceKind, InterfaceRef

MINIMAL = """
network topology t {
    host A { }
    host B { }
    switch sw { ports 4; }
    connect A.eth0 <-> sw.port1;
    connect B.eth0 <-> sw.port2;
}
"""


class TestHappyPath:
    def test_minimal_spec(self):
        spec = parse_spec(MINIMAL)
        assert spec.name == "t"
        assert [n.name for n in spec.nodes] == ["A", "B", "sw"]
        assert len(spec.connections) == 2

    def test_default_interface_created(self):
        spec = parse_spec(MINIMAL)
        assert spec.node("A").interfaces[0].local_name == "eth0"

    def test_host_attributes(self):
        spec = parse_spec(
            """
            network topology t {
                host L {
                    os "Linux";
                    snmp community "priv8";
                    location "rack 3";
                    interface eth0 { speed 10 Mbps; mtu 9000; }
                }
            }
            """
        )
        node = spec.node("L")
        assert node.os_label == "Linux"
        assert node.snmp_enabled and node.snmp_community == "priv8"
        assert node.attributes["location"] == "rack 3"
        iface = node.interface("eth0")
        assert iface.speed_bps == 10e6
        assert iface.mtu == 9000

    def test_snmp_off(self):
        spec = parse_spec('network topology t { host A { snmp off; } }')
        assert not spec.node("A").snmp_enabled

    def test_switch_ports_expand(self):
        spec = parse_spec("network topology t { switch s { ports 8 speed 1 Gbps; } }")
        node = spec.node("s")
        assert node.kind is DeviceKind.SWITCH
        assert len(node.interfaces) == 8
        assert node.interfaces[0].local_name == "port1"
        assert node.interfaces[0].speed_bps == 1e9

    def test_hub_default_speed(self):
        spec = parse_spec("network topology t { hub h { ports 4; } }")
        assert spec.node("h").interfaces[0].speed_bps == 10e6

    def test_connection_endpoints(self):
        spec = parse_spec(MINIMAL)
        conn = spec.connections[0]
        assert conn.end_a == InterfaceRef("A", "eth0")
        assert conn.end_b == InterfaceRef("sw", "port1")
        assert conn.bandwidth_bps is None

    def test_connection_bandwidth_override(self):
        spec = parse_spec(
            """
            network topology t {
                host A { }
                switch s { ports 2; }
                connect A.eth0 <-> s.port1 [ bandwidth 10 Mbps ];
            }
            """
        )
        assert spec.connections[0].bandwidth_bps == 10e6

    def test_qospath(self):
        spec = parse_spec(
            """
            network topology t {
                host A { } host B { }
                qospath feed {
                    from A to B;
                    min_available 200 KBps;
                    max_utilization 0.8;
                }
            }
            """
        )
        (path,) = spec.qos_paths
        assert path.name == "feed"
        assert path.src == "A" and path.dst == "B"
        assert path.min_available_bps == 200 * 8e3
        assert path.max_utilization == 0.8

    @pytest.mark.parametrize(
        "unit,factor",
        [("bps", 1), ("Kbps", 1e3), ("Mbps", 1e6), ("Gbps", 1e9),
         ("Bps", 8), ("KBps", 8e3), ("MBps", 8e6), ("GBps", 8e9)],
    )
    def test_all_rate_units(self, unit, factor):
        spec = parse_spec(
            f'network topology t {{ host A {{ interface e {{ speed 2 {unit}; }} }} }}'
        )
        assert spec.node("A").interface("e").speed_bps == 2 * factor


class TestErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("topology t { }", "network"),
            ("network topology { }", "topology name"),
            ("network topology t { host A { } ", "end of input"),
            ("network topology t { widget W { } }", "unknown declaration"),
            ("network topology t { host A { os Linux; } }", "OS label"),
            ("network topology t { switch s { } }", "ports N"),
            ("network topology t { switch s { ports 1; } }", "at least 2"),
            ("network topology t { host A { interface e { speed 5 parsecs; } } }",
             "unknown rate unit"),
            ("network topology t { connect A <-> B.e; }", "'.'"),
            ("network topology t { connect A.e B.e; }", "'<->'"),
            ("network topology t { qospath p { min_available 1 Kbps; } }", "from X to Y"),
            ("network topology t { host A { interface e { mtu; } } }", "MTU"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert fragment in str(err.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_spec("network topology t {\n  widget W { }\n}")
        assert "line 2" in str(err.value)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_spec(MINIMAL + " extra")
