"""Communication-path traversal (paper §3.3).

"Based on the information from the specification language, the
communication path between two hosts can be traversed.  A simple recursive
algorithm is designed to traverse the path, with a necessary infinite-loop
detecting function implemented.  The result of the path is described as a
series of network connections."

:func:`find_path` is that algorithm, converted from the paper's recursion
to an explicit-stack depth-first search so deep switch chains from the
scale generator cannot hit Python's recursion limit.  It still carries
the visited set so cyclic topologies terminate, and still returns the
deterministic first (declaration-order) path; :func:`find_all_paths`
enumerates the alternatives for diagnosis tools.

When the caller passes a :class:`~repro.topology.graph.TopologyGraph`
(rather than a bare spec), :func:`find_path` memoizes results in the
graph's path cache -- the active topology rarely changes between poll
cycles, so an all-pairs matrix walks each path exactly once per
topology epoch.  The memos flush automatically whenever the graph's
active view moves (``set_blocked``, driven by the delta-discovery loop
in :mod:`repro.core.topology_sync`) or a caller invalidates explicitly.

:func:`find_path` walks the **active** view (spanning-tree blocked
uplinks excluded): its result is the path traffic actually takes.
:func:`find_all_paths` and :func:`pair_redundant` walk the **physical**
view: their results answer what the topology could do after failover.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple, Union

from repro.topology.graph import TopologyGraph
from repro.topology.model import ConnectionSpec, TopologyError, TopologySpec

Path = List[ConnectionSpec]


class NoPathError(TopologyError):
    """No sequence of connections joins the two hosts."""

    def __init__(self, src: str, dst: str) -> None:
        super().__init__(f"no communication path from {src!r} to {dst!r}")
        self.src = src
        self.dst = dst


def _as_graph(topology: Union[TopologySpec, TopologyGraph]) -> TopologyGraph:
    if isinstance(topology, TopologyGraph):
        return topology
    return TopologyGraph(topology)


def find_path(
    topology: Union[TopologySpec, TopologyGraph],
    src: str,
    dst: str,
) -> Path:
    """The series of connections from ``src`` to ``dst``.

    Raises :class:`NoPathError` when the hosts are not connected, and
    :class:`~repro.topology.model.TopologyError` when either name is
    unknown.  A host is trivially connected to itself by the empty path.
    """
    graph = _as_graph(topology)
    # Memoize only when the caller owns the graph object: a graph built
    # ad hoc from a spec dies with this call, so caching there is waste.
    caching = graph is topology
    if caching:
        hit, cached = graph.cached_path(src, dst)
        if hit:
            if cached is None:
                raise NoPathError(src, dst)
            return list(cached)
    if src == dst:
        graph.neighbors(src)  # existence check
        return []
    graph.neighbors(src)  # raise on unknown source before searching
    path = _dfs(graph, src, dst)
    if path is None:
        graph.neighbors(dst)  # raise on unknown destination
        if caching:
            graph.store_path(src, dst, None)
        raise NoPathError(src, dst)
    if caching:
        graph.store_path(src, dst, tuple(path))
    return path


def _dfs(graph: TopologyGraph, src: str, dst: str) -> Optional[Path]:
    """The paper's traversal with its loop detector, on an explicit stack.

    Neighbor lists are consumed through iterators held on the stack, so
    declaration order is preserved exactly as in the recursive original.
    A node, once visited, stays visited on backtrack: for simple
    reachability this is sound (a node that cannot reach dst via one
    entry cannot via another on an undirected graph when search is
    exhaustive from that node) and it keeps the traversal linear.
    """
    visited: Set[str] = {src}
    # Each frame is the neighbor iterator of one node on the trail;
    # ``trail`` holds the connection taken into each frame's node.
    # Traversal walks the *active* view: a spanning-tree blocked uplink
    # carries no traffic, so the measured path must not include it.
    stack: List[Iterator[Tuple[ConnectionSpec, str]]] = [
        iter(graph.active_neighbors(src))
    ]
    trail: List[ConnectionSpec] = []
    while stack:
        frame = stack[-1]
        advanced = False
        for conn, peer in frame:
            if peer in visited:
                continue  # infinite-loop detection
            if peer == dst:
                return trail + [conn]
            visited.add(peer)
            trail.append(conn)
            stack.append(iter(graph.active_neighbors(peer)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if trail:
                trail.pop()
    return None


def pair_redundant(
    topology: Union[TopologySpec, TopologyGraph], src: str, dst: str
) -> bool:
    """Does the **physical** topology offer >= 2 simple paths src->dst?

    A redundant pair keeps communicating after any single link failure on
    its path -- "degraded but protected"; a non-redundant pair is a
    single point of failure.  Blocked (spanning-tree inactive) uplinks
    count: they are exactly the protection.  Memoized on the graph when
    the caller owns it, and never invalidated, because physical
    adjacency is immutable for a graph's lifetime.
    """
    graph = _as_graph(topology)
    caching = graph is topology
    if caching:
        cached = graph.cached_redundancy(src, dst)
        if cached is not None:
            return cached
    redundant = len(find_all_paths(graph, src, dst, max_paths=2)) >= 2
    if caching:
        graph.store_redundancy(src, dst, redundant)
    return redundant


def find_all_paths(
    topology: Union[TopologySpec, TopologyGraph],
    src: str,
    dst: str,
    max_paths: int = 64,
) -> List[Path]:
    """Every simple **physical** path between two hosts (bounded).

    Unlike :func:`find_path` this ignores the graph's active view:
    enumeration answers "what could carry traffic", including
    spanning-tree blocked backup uplinks.  Parallel connections between
    the same two devices yield distinct paths.
    """
    graph = _as_graph(topology)
    graph.neighbors(src)
    graph.neighbors(dst)
    if src == dst:
        return [[]]
    results: List[Path] = []
    # Unlike find_path, enumeration must un-visit on backtrack (a node
    # excluded from one path may appear on another), so each frame also
    # remembers its node for the discard when the frame pops.
    visited: Set[str] = {src}
    stack: List[Tuple[str, Iterator[Tuple[ConnectionSpec, str]]]] = [
        (src, iter(graph.neighbors(src)))
    ]
    trail: List[ConnectionSpec] = []
    while stack:
        if len(results) >= max_paths:
            break
        node, frame = stack[-1]
        advanced = False
        for conn, peer in frame:
            if peer in visited:
                continue
            if peer == dst:
                results.append(trail + [conn])
                if len(results) >= max_paths:
                    break
                continue
            visited.add(peer)
            trail.append(conn)
            stack.append((peer, iter(graph.neighbors(peer))))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if node != src:
                visited.discard(node)
            if trail:
                trail.pop()
    return results


def path_nodes(path: Path, src: str) -> List[str]:
    """The node names visited along ``path`` starting at ``src``."""
    nodes = [src]
    current = src
    for conn in path:
        nxt = conn.other_end(current).node
        nodes.append(nxt)
        current = nxt
    return nodes


def format_path(path: Path, src: str) -> str:
    """Human-readable ``S1 -> switch -> hub -> N1`` rendering."""
    return " -> ".join(path_nodes(path, src))
