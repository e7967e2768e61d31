"""The from-scratch reference the incremental dataflow is held bit-identical to.

``BandwidthMatrix.snapshot`` composes reports from bound, memoized cache
entries; the reference re-traverses nothing cleverly and measures every
pair with ``measure_path(..., fresh=True)``, which bypasses every cache,
flagged by :func:`reference_redundant`, which enumerates the physical
paths rather than asking the bridge rule.

:class:`RecomputingCalculator` is the report cache as it was before a
connection's measurement was keyed on the rate epochs: every new sample
at its counter source, whatever its rates, measured it afresh.
"""

import weakref

from repro.core.bandwidth import BandwidthCalculator
from repro.core.matrix import MatrixSnapshot
from repro.core.traversal import NoPathError, find_path
from repro.topology.graph import TopologyGraph

# graph -> {(a, b): redundant}; physical adjacency never changes.
_REDUNDANT = weakref.WeakKeyDictionary()


def find_all_paths(topology, src, dst, max_paths=64):
    """Every simple **physical** path between two hosts (bounded).

    Ignores the graph's active view, so spanning-tree blocked backup
    uplinks count; parallel connections between the same two devices
    yield distinct paths.  The enumeration ``pair_redundant``'s bridge
    rule is held to.
    """
    graph = topology if isinstance(topology, TopologyGraph) else TopologyGraph(topology)
    graph.neighbors(src)
    graph.neighbors(dst)
    if src == dst:
        return [[]]
    results = []
    # Un-visit on backtrack (a node excluded from one path may appear on
    # another), so each frame also remembers its node.
    visited = {src}
    stack = [(src, iter(graph.neighbors(src)))]
    trail = []
    while stack and len(results) < max_paths:
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


def reference_redundant(graph, a, b):
    """Does the physical graph hold >= 2 simple paths between ``a`` and
    ``b``?  Counted by enumeration, memoized per graph."""
    known = _REDUNDANT.setdefault(graph, {})
    if (a, b) not in known:
        known[(a, b)] = len(find_all_paths(graph, a, b, max_paths=2)) >= 2
    return known[(a, b)]


def reference_paths(matrix):
    """``{(a, b): connection list | None}`` on the matrix's current graph."""
    paths = {}
    for i, a in enumerate(matrix.hosts):
        for b in matrix.hosts[i + 1:]:
            try:
                paths[(a, b)] = find_path(matrix.graph, a, b)
            except NoPathError:
                paths[(a, b)] = None
    return paths


def reference_snapshot(matrix, time, paths=None):
    """What ``matrix.snapshot(time)`` must equal, computed from scratch.

    ``paths`` lets a caller on a static topology traverse once
    (:func:`reference_paths`) and time only the measuring.
    """
    if paths is None:
        paths = reference_paths(matrix)
    measure = matrix.calculator.measure_path
    reports = {
        (a, b): None
        if path is None
        else measure(
            path, a, b, time=time, name=f"matrix:{a}<->{b}", fresh=True,
            redundant=reference_redundant(matrix.graph, a, b),
        )
        for (a, b), path in paths.items()
    }
    return MatrixSnapshot(hosts=list(matrix.hosts), time=time, reports=reports)


class RecomputingCalculator(BandwidthCalculator):
    """The parent's report cache: an entry whose token moved -- any sample
    landing at its counter source, or any collaborator's epoch -- is
    measured afresh; one whose report instant alone moved is re-aged."""

    def connection_token(self, entry):
        token = super().connection_token(entry)
        return token[:1] + token[2:]  # the ingest epochs, then the collaborators'

    def _validate(self, entry, now):
        if entry.stamp < self._inputs_stamp:
            token = self.connection_token(entry)
            if token != entry.token:
                measurement = self._compute_measurement(entry.conn, now, cached=True)
                entry.token = token
                entry.now = now
                entry.measurement = measurement
                entry.confidence = self._connection_confidence(measurement)
                entry.stamp = self._stamp
                self.recomputes += 1
                return
        if entry.now != now:
            measurement = self._refresh_measurement(entry.measurement, now)
            if measurement is not entry.measurement:
                entry.measurement = measurement
                entry.confidence = self._connection_confidence(measurement)
            entry.now = now
        entry.stamp = self._stamp
