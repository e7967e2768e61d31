"""Unit tests for counter-source resolution."""

import pytest

from repro.core.counters import (
    if_index_of,
    required_poll_targets,
    resolve_counter_source,
)
from repro.spec.parser import parse_spec
from repro.topology.model import InterfaceRef

SPEC = """
network topology t {
    host L  { snmp community "public"; }
    host S1 { snmp community "public"; }
    host S4 { }
    host N1 { snmp community "public"; interface el0 { speed 10 Mbps; } }
    host X  { }
    switch sw { snmp community "public"; ports 6; }
    hub hb { ports 4; }
    connect L.eth0  <-> sw.port1;
    connect S1.eth0 <-> sw.port2;
    connect S4.eth0 <-> sw.port3;
    connect sw.port4 <-> hb.port1;
    connect N1.el0  <-> hb.port2;
    connect X.eth0  <-> hb.port3;
}
"""


def spec():
    return parse_spec(SPEC)


def conn_between(s, a, b):
    for conn in s.connections:
        nodes = {conn.end_a.node, conn.end_b.node}
        if nodes == {a, b}:
            return conn
    raise AssertionError(f"no connection {a}<->{b}")


class TestIfIndex:
    def test_declaration_order_one_based(self):
        s = spec()
        assert if_index_of(s.node("sw"), "port1") == 1
        assert if_index_of(s.node("sw"), "port4") == 4
        assert if_index_of(s.node("N1"), "el0") == 1

    def test_unknown_interface(self):
        with pytest.raises(KeyError):
            if_index_of(spec().node("sw"), "port99")


class TestResolution:
    def test_host_end_preferred(self):
        """When both ends have agents, the host side wins."""
        s = spec()
        source = resolve_counter_source(s, conn_between(s, "S1", "sw"))
        assert source.node == "S1"
        assert source.if_index == 1
        assert source.endpoint == InterfaceRef("S1", "eth0")

    def test_switch_end_fallback(self):
        """S4 runs no agent; the switch port measures it (paper §4.1)."""
        s = spec()
        source = resolve_counter_source(s, conn_between(s, "S4", "sw"))
        assert source.node == "sw"
        assert source.if_index == 3

    def test_hub_uplink_measured_from_switch(self):
        s = spec()
        source = resolve_counter_source(s, conn_between(s, "sw", "hb"))
        assert source.node == "sw"
        assert source.if_index == 4

    def test_hub_host_leg_measured_from_host(self):
        s = spec()
        source = resolve_counter_source(s, conn_between(s, "N1", "hb"))
        assert source.node == "N1"

    def test_unmeasurable_connection(self):
        """X has no agent and hubs cannot run one."""
        s = spec()
        assert resolve_counter_source(s, conn_between(s, "X", "hb")) is None

    def test_resolve_all(self):
        s = spec()
        unmeasured = [c for c in s.connections if resolve_counter_source(s, c) is None]
        assert len(unmeasured) == 1


class TestRequiredTargets:
    def test_targets_cover_all_measurable_connections(self):
        s = spec()
        targets = required_poll_targets(s, list(s.connections))
        assert targets == {
            "L": [1],
            "S1": [1],
            "N1": [1],
            "sw": [3, 4],
        }

    def test_subset_of_connections(self):
        s = spec()
        conn = conn_between(s, "S4", "sw")
        assert required_poll_targets(s, [conn]) == {"sw": [3]}

    def test_duplicate_connections_deduplicated(self):
        s = spec()
        conn = conn_between(s, "S1", "sw")
        assert required_poll_targets(s, [conn, conn]) == {"S1": [1]}
