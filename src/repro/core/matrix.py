"""All-pairs bandwidth matrix.

The paper's testbed claim: "Such a network arrangement is sufficient for
monitoring the bandwidth between any pair of hosts in the system."  This
module makes that operational: one traversal per host pair (cached), one
measurement pass over the shared rate table, and a rendered matrix of
available bandwidth / utilisation that an operator (or the RM's placement
search) can read at a glance.

The matrix binds every pair's path to the calculator's cache entries
once per topology epoch, judges once per connection whether the
physical graph can route around it (``pair_redundant``'s bridge rule, so
each cell carries the pair's ``redundant`` flag), and keeps the previous snapshot plus a reverse
index from those entries to the host pairs whose path crosses them.  A
snapshot is **one validation plus one composition per pair**: a single
``refresh`` brings each distinct connection up to date (see
:mod:`repro.core.dataflow`) and reads its epoch token off the entry;
then every pair is composed from its bound entries by
``BandwidthCalculator.compose`` -- the step ``measure_path`` ends in, so
there is one way to compose a report -- with no clock read, no token and
no measurement per pair.  On the ledger's 36-host mesh that is 41
connections validated and 630 pairs composed.  Each measurement already
holds its ``a_i`` and each composed report holds its ``A``, so reading a
cell's ``available_bps`` costs no call.  Pairs that cross no dirty
connection reuse their previous report verbatim when the report instant
is unchanged.  Cells are not consumer-facing reports: a snapshot records
one ``matrix_snapshot`` span and no per-pair telemetry.  Output is
bit-identical to ``measure_path(..., fresh=True)`` per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.bandwidth import BandwidthCalculator
from repro.core.dataflow import BoundPath, ConnCacheEntry
from repro.core.report import PathReport
from repro.core.traversal import NoPathError, find_path, pair_redundant
from repro.telemetry.trace import NULL_SPAN
from repro.topology.graph import TopologyGraph
from repro.topology.model import TopologySpec

_METRICS = ("available", "used", "utilization")


class MatrixError(ValueError):
    """Raised for unknown hosts or metrics."""


@dataclass
class MatrixSnapshot:
    """One instant's all-pairs measurements."""

    hosts: List[str]
    time: float
    reports: Dict[Tuple[str, str], Optional[PathReport]]  # unordered pairs
    _cache: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def report(self, a: str, b: str) -> Optional[PathReport]:
        if a == b:
            raise MatrixError("a host has no path to itself in the matrix")
        key = (a, b) if (a, b) in self.reports else (b, a)
        try:
            return self.reports[key]
        except KeyError:
            raise MatrixError(f"pair ({a}, {b}) not in this matrix") from None

    def values(self, metric: str = "available") -> np.ndarray:
        """A symmetric matrix of the chosen metric (NaN on the diagonal
        and for disconnected pairs).  Units: bytes/second, or a fraction
        for "utilization"."""
        if metric not in _METRICS:
            raise MatrixError(f"unknown metric {metric!r}; pick from {_METRICS}")
        cached = self._cache.get(metric)
        if cached is None:
            index = {host: i for i, host in enumerate(self.hosts)}
            rows: List[int] = []
            cols: List[int] = []
            vals: List[float] = []
            for (a, b), report in self.reports.items():
                if report is None:
                    continue  # disconnected pair stays NaN
                if metric == "available":
                    value = report.available_bps
                elif metric == "used":
                    value = report.used_bps
                else:
                    bottleneck = report.bottleneck
                    value = bottleneck.utilization if bottleneck else 0.0
                rows.append(index[a])
                cols.append(index[b])
                vals.append(value)
            n = len(self.hosts)
            out = np.full((n, n), np.nan)
            if rows:
                r = np.asarray(rows, dtype=np.intp)
                c = np.asarray(cols, dtype=np.intp)
                v = np.asarray(vals, dtype=float)
                out[r, c] = v
                out[c, r] = v
            cached = self._cache[metric] = out
        return cached.copy()

    def format_table(self, metric: str = "available") -> str:
        """Render the matrix; bandwidth cells in KB/s, utilisation in %."""
        values = self.values(metric)
        unit = "%" if metric == "utilization" else "KB/s"
        width = max(8, max(len(h) for h in self.hosts) + 1)
        header = " " * width + "".join(f"{h:>{width}}" for h in self.hosts)
        lines = [f"path {metric} ({unit}) at t={self.time:.1f}s", header]
        for i, row_host in enumerate(self.hosts):
            cells = []
            for j in range(len(self.hosts)):
                if i == j:
                    cells.append(f"{'-':>{width}}")
                elif np.isnan(values[i, j]):
                    cells.append(f"{'n/a':>{width}}")
                elif metric == "utilization":
                    cells.append(f"{values[i, j] * 100:>{width}.1f}")
                else:
                    cells.append(f"{values[i, j] / 1000:>{width}.1f}")
            lines.append(f"{row_host:>{width}}" + "".join(cells))
        return "\n".join(lines)

    def worst_pair(self) -> Optional[Tuple[str, str, float]]:
        """The host pair with the least available bandwidth."""
        worst: Optional[Tuple[str, str, float]] = None
        for (a, b), report in self.reports.items():
            if report is None:
                continue
            if worst is None or report.available_bps < worst[2]:
                worst = (a, b, report.available_bps)
        return worst


class BandwidthMatrix:
    """Computes :class:`MatrixSnapshot` from a calculator's live state."""

    def __init__(
        self,
        spec: TopologySpec,
        calculator: BandwidthCalculator,
        graph: Optional[TopologyGraph] = None,
    ) -> None:
        """Every host pair of the spec.  ``graph`` shares a caller-owned
        :class:`TopologyGraph` so traversal memos are shared too."""
        self.spec = spec
        self.calculator = calculator
        self.graph = graph if graph is not None else TopologyGraph(spec)
        self.hosts = [n.name for n in spec.hosts()]
        # Paths traversed, bound to the calculator's cache entries and
        # named once, up front (topology is static, paper §3.2), and again
        # only when the graph's topology epoch moves.
        self._build_paths()
        self.pair_cache_hits = 0
        self.pair_recomputes = 0
        self.dirty_pairs_last = 0
        # Stream hook: the dirty-pair set behind the latest snapshot, and
        # whether that snapshot rebuilt its paths (topology epoch moved).
        # The stream publisher reads these instead of diffing snapshots.
        self.last_dirty_pairs: Set[Tuple[str, str]] = set()
        self.last_snapshot_rebuilt = False

    def _build_paths(self) -> None:
        self._topology_epoch = self.graph.topology_epoch
        # pair -> (bound path, report name, redundant), None when disconnected
        self._paths: Dict[Tuple[str, str], Optional[Tuple[BoundPath, str, bool]]] = {}
        self._pairs_of_conn: Dict[ConnCacheEntry, List[Tuple[str, str]]] = {}
        bind = self.calculator.bind
        # A pair is redundant when its path crosses a connection whose own
        # two ends are a redundant pair (pair_redundant on that one
        # connection: it is not a bridge).  Asked once per distinct
        # connection, then a set test per pair.
        spare: Set[ConnCacheEntry] = set()
        for i, a in enumerate(self.hosts):
            for b in self.hosts[i + 1:]:
                try:
                    bound = bind(find_path(self.graph, a, b))
                except NoPathError:
                    self._paths[(a, b)] = None
                    continue
                for entry in bound:
                    pairs = self._pairs_of_conn.get(entry)
                    if pairs is None:
                        pairs = self._pairs_of_conn[entry] = []
                        conn = entry.conn
                        if pair_redundant(
                            self.graph, conn.end_a.node, conn.end_b.node, (conn,)
                        ):
                            spare.add(entry)
                    pairs.append((a, b))
                self._paths[(a, b)] = (
                    bound, f"matrix:{a}<->{b}", not spare.isdisjoint(bound)
                )
        self._conns = BoundPath(self._pairs_of_conn)  # each distinct entry
        # Previous-snapshot state for dirty-pair reuse: void on new paths.
        self._prev_reports: Dict[Tuple[str, str], Optional[PathReport]] = {}
        self._prev_time: Optional[float] = None
        self._prev_tokens: Dict[ConnCacheEntry, Tuple] = {}

    def snapshot(self, time: float) -> MatrixSnapshot:
        tel = getattr(self.calculator, "telemetry", None)
        span = tel.tracer.begin("matrix_snapshot") if tel is not None else NULL_SPAN
        rebuilt = False
        if self.graph.topology_epoch != self._topology_epoch:
            # Topology changed: paths may differ, previous state is void.
            self._build_paths()
            rebuilt = True
        # One validation pass over the distinct connections; a pair is
        # dirty when it crosses an entry whose token moved since the
        # previous snapshot.
        self.calculator.refresh(self._conns, time)
        dirty_pairs: Set[Tuple[str, str]] = set()
        prev_tokens = self._prev_tokens
        for entry, pairs in self._pairs_of_conn.items():
            if prev_tokens.get(entry) != entry.token:
                prev_tokens[entry] = entry.token
                dirty_pairs.update(pairs)
        # A previous report is reusable *verbatim* only at the same report
        # instant (age fields depend on it); across instants the pair is
        # recomposed from the entries validated just above, which is
        # cheap but produces a new PathReport with fresh age figures.
        same_time = self._prev_time == time and bool(self._prev_reports)
        compose = self.calculator.compose
        composed_entries = 0
        reports: Dict[Tuple[str, str], Optional[PathReport]] = {}
        for pair, held in self._paths.items():
            if held is None:
                reports[pair] = None
                continue
            if same_time and pair not in dirty_pairs:
                prev = self._prev_reports.get(pair)
                if prev is not None:
                    reports[pair] = prev
                    self.pair_cache_hits += 1
                    continue
            bound, name, redundant = held
            reports[pair] = compose(bound, pair[0], pair[1], time, name, redundant)
            composed_entries += len(bound)
            self.pair_recomputes += 1
        # A composed pair asked the cache for each of its entries: count
        # them as lookups, as a report built through measure_path does.
        self.calculator.lookups += composed_entries
        self._prev_reports = reports
        self._prev_time = time
        self.dirty_pairs_last = len(dirty_pairs)
        # After a rebuild previous tokens were void, so every measurable
        # pair landed in dirty_pairs -- exactly what the stream publisher
        # must re-deliver; it still needs the rebuilt flag to re-baseline
        # its significance filters.
        self.last_dirty_pairs = dirty_pairs
        self.last_snapshot_rebuilt = rebuilt
        span.finish(pairs=len(reports), dirty_pairs=len(dirty_pairs), rebuilt=rebuilt)
        return MatrixSnapshot(hosts=list(self.hosts), time=time, reports=reports)
