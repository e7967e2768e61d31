"""Unit tests for path traversal (paper §3.3)."""

import pytest

from repro.core.traversal import (
    NoPathError,
    find_path,
    format_path,
    pair_redundant,
    path_nodes,
)
from repro.spec.parser import parse_spec
from repro.topology.model import TopologyError
from tests.dataflow_reference import find_all_paths

TREE = """
network topology tree {
    host S1 { } host N1 { } host L { }
    switch sw { ports 6; }
    hub hb { ports 4; }
    connect S1.eth0 <-> sw.port1;
    connect L.eth0 <-> sw.port2;
    connect sw.port3 <-> hb.port1;
    connect N1.eth0 <-> hb.port2;
}
"""

MESH = """
network topology mesh {
    host A { } host B { }
    switch s1 { ports 4; } switch s2 { ports 4; } switch s3 { ports 4; }
    connect A.eth0 <-> s1.port1;
    connect B.eth0 <-> s3.port1;
    connect s1.port2 <-> s2.port1;
    connect s2.port2 <-> s3.port2;
    connect s1.port3 <-> s3.port3;   # shortcut creating a loop
}
"""


class TestFindPath:
    def test_paper_path_s1_to_n1(self):
        """The paper's example: "S1 - switch - hub - N1"."""
        spec = parse_spec(TREE)
        path = find_path(spec, "S1", "N1")
        assert format_path(path, "S1") == "S1 -> sw -> hb -> N1"
        assert len(path) == 3

    def test_path_is_symmetric_in_length(self):
        spec = parse_spec(TREE)
        assert len(find_path(spec, "N1", "S1")) == len(find_path(spec, "S1", "N1"))

    def test_adjacent_hosts(self):
        spec = parse_spec(TREE)
        path = find_path(spec, "S1", "L")
        assert path_nodes(path, "S1") == ["S1", "sw", "L"]

    def test_same_host_empty_path(self):
        spec = parse_spec(TREE)
        assert find_path(spec, "S1", "S1") == []

    def test_no_path_raises(self):
        spec = parse_spec(
            "network topology t { host A { } host B { } host C { } "
            "connect A.eth0 <-> B.eth0; }"
        )
        with pytest.raises(NoPathError):
            find_path(spec, "A", "C")

    def test_unknown_nodes_raise(self):
        spec = parse_spec(TREE)
        with pytest.raises(TopologyError):
            find_path(spec, "ghost", "N1")
        with pytest.raises(TopologyError):
            find_path(spec, "S1", "ghost")

    def test_cyclic_topology_terminates(self):
        """The paper's 'necessary infinite-loop detecting function'."""
        spec = parse_spec(MESH)
        path = find_path(spec, "A", "B")
        nodes = path_nodes(path, "A")
        assert nodes[0] == "A" and nodes[-1] == "B"
        assert len(nodes) == len(set(nodes))  # simple path, no revisits

    def test_path_connections_chain(self):
        spec = parse_spec(TREE)
        path = find_path(spec, "S1", "N1")
        current = "S1"
        for conn in path:
            current = conn.other_end(current).node
        assert current == "N1"


class TestFindAllPaths:
    """The enumeration ``pair_redundant`` is held to, itself checked."""

    def test_tree_has_single_path(self):
        spec = parse_spec(TREE)
        assert len(find_all_paths(spec, "S1", "N1")) == 1

    def test_mesh_has_multiple_paths(self):
        spec = parse_spec(MESH)
        paths = find_all_paths(spec, "A", "B")
        assert len(paths) == 2
        lengths = sorted(len(p) for p in paths)
        assert lengths == [3, 4]

    def test_same_host(self):
        spec = parse_spec(TREE)
        assert find_all_paths(spec, "S1", "S1") == [[]]

    def test_max_paths_bound(self):
        spec = parse_spec(MESH)
        assert len(find_all_paths(spec, "A", "B", max_paths=1)) == 1

    def test_disconnected_gives_empty(self):
        spec = parse_spec(
            "network topology t { host A { } host B { } host C { } "
            "connect A.eth0 <-> B.eth0; }"
        )
        assert find_all_paths(spec, "A", "C") == []


class TestPairRedundant:
    def test_tree_pair_is_a_single_point_of_failure(self):
        assert not pair_redundant(parse_spec(TREE), "S1", "N1")

    def test_loop_on_the_path_protects(self):
        spec = parse_spec(MESH)
        assert pair_redundant(spec, "A", "B")
        assert pair_redundant(spec, "A", "B", find_path(spec, "A", "B"))

    def test_same_host_and_disconnected(self):
        assert not pair_redundant(parse_spec(MESH), "A", "A")
        spec = parse_spec(
            "network topology t { host A { } host B { } host C { } "
            "connect A.eth0 <-> B.eth0; }"
        )
        assert not pair_redundant(spec, "A", "C")

    def test_unknown_nodes_raise(self):
        spec = parse_spec(TREE)
        with pytest.raises(TopologyError):
            pair_redundant(spec, "ghost", "N1")
        with pytest.raises(TopologyError):
            pair_redundant(spec, "S1", "ghost")
