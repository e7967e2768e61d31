"""Unit tests for the topology model and graph."""

import pytest

from repro.core.traversal import NoPathError, find_path, path_nodes
from repro.topology.graph import TopologyGraph
from repro.topology.model import (
    ConnectionSpec,
    DeviceKind,
    InterfaceRef,
    InterfaceSpec,
    NodeSpec,
    QosPathSpec,
    TopologyError,
    TopologySpec,
)


def simple_spec():
    """A - sw - B plus a dangling host C."""
    return TopologySpec(
        name="t",
        nodes=[
            NodeSpec("A", interfaces=[InterfaceSpec("eth0")]),
            NodeSpec("B", interfaces=[InterfaceSpec("eth0")]),
            NodeSpec("C", interfaces=[InterfaceSpec("eth0")]),
            NodeSpec(
                "sw",
                kind=DeviceKind.SWITCH,
                interfaces=[InterfaceSpec(f"port{i}") for i in (1, 2, 3)],
            ),
        ],
        connections=[
            ConnectionSpec(InterfaceRef("A", "eth0"), InterfaceRef("sw", "port1")),
            ConnectionSpec(InterfaceRef("B", "eth0"), InterfaceRef("sw", "port2")),
        ],
    )


class TestModel:
    def test_interface_lookup(self):
        spec = simple_spec()
        assert spec.node("A").interface("eth0").speed_bps == 100e6
        with pytest.raises(TopologyError):
            spec.node("A").interface("nope")
        with pytest.raises(TopologyError):
            spec.node("nope")

    def test_duplicate_interface_names_rejected(self):
        with pytest.raises(TopologyError):
            NodeSpec("X", interfaces=[InterfaceSpec("e"), InterfaceSpec("e")])

    def test_self_connection_rejected(self):
        ref = InterfaceRef("A", "eth0")
        with pytest.raises(TopologyError):
            ConnectionSpec(ref, ref)

    def test_same_node_connection_rejected(self):
        with pytest.raises(TopologyError):
            ConnectionSpec(InterfaceRef("A", "e0"), InterfaceRef("A", "e1"))

    def test_other_end(self):
        conn = simple_spec().connections[0]
        assert conn.other_end("A") == InterfaceRef("sw", "port1")
        assert conn.other_end("sw") == InterfaceRef("A", "eth0")
        with pytest.raises(TopologyError):
            conn.other_end("B")

    def test_effective_bandwidth_min_rule(self):
        spec = TopologySpec(
            nodes=[
                NodeSpec("A", interfaces=[InterfaceSpec("e", speed_bps=100e6)]),
                NodeSpec(
                    "hub",
                    kind=DeviceKind.HUB,
                    interfaces=[InterfaceSpec("port1", speed_bps=10e6),
                                InterfaceSpec("port2", speed_bps=10e6)],
                ),
            ],
            connections=[ConnectionSpec(InterfaceRef("A", "e"), InterfaceRef("hub", "port1"))],
        )
        assert spec.effective_bandwidth(spec.connections[0]) == 10e6

    def test_effective_bandwidth_explicit_override(self):
        spec = simple_spec()
        conn = ConnectionSpec(
            InterfaceRef("C", "eth0"), InterfaceRef("sw", "port3"), bandwidth_bps=5e6
        )
        spec.connections.append(conn)
        assert spec.effective_bandwidth(conn) == 5e6

    def test_hosts_and_devices_partition(self):
        spec = simple_spec()
        assert {n.name for n in spec.hosts()} == {"A", "B", "C"}
        assert {n.name for n in spec.devices()} == {"sw"}

    def test_connections_of(self):
        spec = simple_spec()
        assert len(spec.connections_of("sw")) == 2
        assert len(spec.connections_of("C")) == 0

    def test_qos_path_validation(self):
        with pytest.raises(TopologyError):
            QosPathSpec("p", "A", "A")
        with pytest.raises(TopologyError):
            QosPathSpec("p", "A", "B", max_utilization=1.5)
        with pytest.raises(TopologyError):
            QosPathSpec("p", "A", "B", min_available_bps=-1)


class TestGraph:
    def test_neighbors(self):
        graph = TopologyGraph(simple_spec())
        peers = {peer for _conn, peer in graph.neighbors("sw")}
        assert peers == {"A", "B"}
        assert graph.degree("C") == 0

    def test_unknown_node(self):
        graph = TopologyGraph(simple_spec())
        with pytest.raises(TopologyError):
            graph.neighbors("zzz")

    def test_reachability(self):
        graph = TopologyGraph(simple_spec())
        assert graph.reachable_from("A") == {"A", "sw", "B"}
        assert not graph.is_connected()  # C is stranded

    def test_cycle_detection(self):
        spec = simple_spec()
        graph = TopologyGraph(spec)
        assert not graph.has_cycle()
        # Add a second parallel path A <-> sw: that is a loop.
        spec.nodes[0].interfaces.append(InterfaceSpec("eth1"))
        spec.connections.append(
            ConnectionSpec(InterfaceRef("A", "eth1"), InterfaceRef("sw", "port3"))
        )
        assert TopologyGraph(spec).has_cycle()

    def test_shortest_hop_path(self):
        graph = TopologyGraph(simple_spec())
        assert path_nodes(find_path(graph, "A", "B"), "A") == ["A", "sw", "B"]
        with pytest.raises(NoPathError):
            find_path(graph, "A", "C")

    def test_connection_to_unknown_node_rejected(self):
        spec = simple_spec()
        spec.connections.append(
            ConnectionSpec(InterfaceRef("ghost", "e"), InterfaceRef("sw", "port3"))
        )
        with pytest.raises(TopologyError):
            TopologyGraph(spec)
