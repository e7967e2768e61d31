"""Graph view of a :class:`~repro.topology.model.TopologySpec`.

Provides the adjacency structure the monitor's recursive path traversal
walks (:mod:`repro.core.traversal`), its path memos, and the
connectivity/cycle queries used by spec validation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.topology.model import ConnectionSpec, InterfaceRef, TopologyError, TopologySpec

# A connection's hashable identity: its endpoint pair (the 1-to-1 rule
# guarantees an interface appears in at most one connection).
ConnKey = Tuple[InterfaceRef, InterfaceRef]


class TopologyGraph:
    """Adjacency over nodes, with connections as edges.

    The *physical* adjacency is immutable for the graph's lifetime.  On
    top of it sits a mutable **active view**: the set of connections
    currently blocked by spanning tree (see :meth:`set_blocked`).  Path
    traversal walks the active view; redundancy queries walk the
    physical one.
    """

    def __init__(self, spec: TopologySpec) -> None:
        self.spec = spec
        self._adjacency: Dict[str, List[Tuple[ConnectionSpec, str]]] = {
            node.name: [] for node in spec.nodes
        }
        for conn in spec.connections:
            for end, other in ((conn.end_a, conn.end_b), (conn.end_b, conn.end_a)):
                if end.node not in self._adjacency:
                    raise TopologyError(f"connection {conn} references unknown node {end.node!r}")
                self._adjacency[end.node].append((conn, other.node))
        # Memoized traversal results (see repro.core.traversal.find_path).
        # The adjacency above is immutable, so paths stay valid until the
        # active view changes (set_blocked) or a caller declares the
        # topology changed via invalidate_paths().
        # None records a proven miss (disconnected pair).
        self._path_cache: Dict[Tuple[str, str], Optional[Tuple[ConnectionSpec, ...]]] = {}
        # Bridge memo (see bridges()); physical adjacency never changes,
        # so this never invalidates.
        self._bridges: Optional[FrozenSet[ConnKey]] = None
        self._blocked: set[ConnKey] = set()
        self.topology_epoch = 0

    # ------------------------------------------------------------------
    # Active view (spanning-tree blocked connections)
    # ------------------------------------------------------------------
    def set_blocked(self, conns) -> bool:
        """Replace the blocked-connection set with ``conns``.

        Returns True -- and flushes the path memos, bumping the topology
        epoch -- only when the set actually changed, so an unchanged
        spanning tree re-synced every round costs nothing downstream.
        """
        new = {conn.endpoints() for conn in conns}
        if new == self._blocked:
            return False
        self._blocked = new
        self.invalidate_paths()
        return True

    def blocked_connections(self) -> List[ConnectionSpec]:
        return [c for c in self.spec.connections if c.endpoints() in self._blocked]

    def active_neighbors(self, node_name: str) -> List[Tuple[ConnectionSpec, str]]:
        """Like :meth:`neighbors`, minus spanning-tree blocked connections."""
        if not self._blocked:
            return self.neighbors(node_name)
        return [
            (conn, peer)
            for conn, peer in self.neighbors(node_name)
            if conn.endpoints() not in self._blocked
        ]

    # ------------------------------------------------------------------
    # Path memoization
    # ------------------------------------------------------------------
    def cached_path(
        self, src: str, dst: str
    ) -> Tuple[bool, Optional[Tuple[ConnectionSpec, ...]]]:
        """``(hit, path)``; path is None for a memoized disconnection."""
        try:
            return True, self._path_cache[(src, dst)]
        except KeyError:
            return False, None

    def store_path(
        self, src: str, dst: str, path: Optional[Tuple[ConnectionSpec, ...]]
    ) -> None:
        self._path_cache[(src, dst)] = path

    def invalidate_paths(self) -> None:
        """Topology changed: flush every memoized path, bump the epoch."""
        self._path_cache.clear()
        self.topology_epoch += 1

    def neighbors(self, node_name: str) -> List[Tuple[ConnectionSpec, str]]:
        """Connections leaving ``node_name`` with the peer node name."""
        try:
            return list(self._adjacency[node_name])
        except KeyError:
            raise TopologyError(f"no node named {node_name!r}") from None

    def degree(self, node_name: str) -> int:
        return len(self.neighbors(node_name))

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def reachable_from(self, start: str) -> Set[str]:
        if start not in self._adjacency:
            raise TopologyError(f"no node named {start!r}")
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for _conn, peer in self._adjacency[node]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return seen

    def bridges(self) -> FrozenSet[ConnKey]:
        """The **physical** connections whose loss would split the graph.

        Two hosts have a second simple path between them exactly when some
        connection on a path between them is *not* a bridge: the bridges
        on a path lie on every path, so a path of bridges is the only one,
        while a connection on a cycle can be routed around.  That is
        :func:`~repro.core.traversal.pair_redundant`'s rule.  A parallel
        connection (a redundant uplink) is never a bridge.  Blocked
        (spanning-tree inactive) connections count.  One lowpoint pass
        (Tarjan) over the whole graph, on an explicit stack so deep switch
        chains cannot hit the recursion limit; memoized, because physical
        adjacency is immutable for a graph's lifetime.
        """
        if self._bridges is not None:
            return self._bridges
        order: Dict[str, int] = {}  # discovery index
        low: Dict[str, int] = {}  # least index the node's subtree reaches back to
        found: Set[ConnKey] = set()
        for root in self._adjacency:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            # Frames: (node, connection taken into it, neighbor iterator).
            stack = [(root, None, iter(self._adjacency[root]))]
            while stack:
                node, via, frame = stack[-1]
                for conn, peer in frame:
                    if conn is via:
                        continue  # the tree edge itself; a parallel twin is not
                    if peer in order:
                        low[node] = min(low[node], order[peer])
                    else:
                        order[peer] = low[peer] = len(order)
                        stack.append((peer, conn, iter(self._adjacency[peer])))
                        break
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[node])
                        if low[node] > order[parent]:
                            found.add(via.endpoints())
        self._bridges = frozenset(found)
        return self._bridges

    def is_connected(self) -> bool:
        if not self._adjacency:
            return True
        first = next(iter(self._adjacency))
        return self.reachable_from(first) == set(self._adjacency)

    def has_cycle(self) -> bool:
        """True when the physical topology contains a layer-2 loop.

        The simulated switches run spanning tree where the spec declares
        ``stp "on"`` (the paper's testbed had no loop to break), so a loop
        is a redundant mesh when every switch does; validation warns on a
        loop when some switch does not, since frames may circulate.
        """
        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for conn in self.spec.connections:
            ra, rb = find(conn.end_a.node), find(conn.end_b.node)
            if ra == rb:
                return True
            parent[ra] = rb
        return False
