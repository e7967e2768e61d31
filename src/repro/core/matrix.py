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
each cell carries the pair's ``redundant`` flag), and lays the pair set
out as columns: a pair -> connection index over the distinct connections
its paths cross.  A snapshot is **one validation per connection plus a
few array operations for all pairs**: a single ``refresh`` brings each
distinct connection up to date (see :mod:`repro.core.dataflow`), the
snapshot captures each one's immutable measurement, confidence and
whether its epoch token moved, and from those computes every pair's
``A = min(m_i - u_i)``, its degraded / unavailable flags and its
dirtiness as columns over the index.  On the ledger's 36-host mesh that
is 41 connections validated and no Python call per pair.

A pair's :class:`~repro.core.report.PathReport` is composed only when
something reads its cell, by ``BandwidthCalculator.compose`` -- the step
``measure_path`` ends in, so there is one way to compose a report -- over
the measurements the snapshot captured, and is memoized for the
snapshot's life.  A pair that crosses no dirty connection hands on the
previous snapshot's report verbatim when the report instant is
unchanged.  Cells are not consumer-facing reports: a snapshot records
one ``matrix_snapshot`` span and no per-pair telemetry.  Output is
bit-identical to ``measure_path(..., fresh=True)`` per pair.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro._numpy import np
from repro.core.bandwidth import BandwidthCalculator
from repro.core.dataflow import BoundPath, ConnCacheEntry
from repro.core.report import PathReport
from repro.core.traversal import NoPathError, find_path, pair_redundant
from repro.telemetry.trace import NULL_SPAN
from repro.topology.graph import TopologyGraph
from repro.topology.model import TopologySpec

_METRICS = ("available", "used", "utilization")
#: A cell's trust status as a small integer, in rank order.
STATUSES = ("fresh", "degraded", "unavailable")

Pair = Tuple[str, str]

_UNREAD = object()  # a cell whose report nobody has asked for yet


class MatrixError(ValueError):
    """Raised for unknown hosts or metrics."""


@dataclass
class MatrixSnapshot:
    """One instant's all-pairs measurements.

    ``reports`` maps each unordered host pair (in the matrix's host
    order) to its :class:`PathReport`, or None for a disconnected pair.
    A snapshot taken by :class:`BandwidthMatrix` holds a mapping there
    that composes a pair's report when it is read, and carries every
    pair's ``A``, trust status and dirtiness as columns beside.
    """

    hosts: List[str]
    time: float
    reports: Mapping[Pair, Optional[PathReport]]  # unordered pairs
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
        """A symmetric matrix of the chosen metric (NaN on the diagonal,
        for disconnected pairs, and for unavailable ones, whose figures
        are stale).  Units: bytes/second, or a fraction for
        "utilization"."""
        if metric not in _METRICS:
            raise MatrixError(f"unknown metric {metric!r}; pick from {_METRICS}")
        cached = self._cache.get(metric)
        if cached is None:
            index = {host: i for i, host in enumerate(self.hosts)}
            rows: List[int] = []
            cols: List[int] = []
            vals: List[float] = []
            for (a, b), report in self.reports.items():
                if report is None or report.unavailable:
                    continue  # disconnected or unknown pair stays NaN
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
        """The measurable host pair with the least available bandwidth
        (None when no pair is measurable: an unavailable pair's ``A`` is
        unknown, not small)."""
        worst: Optional[Tuple[str, str, float]] = None
        for (a, b), report in self.reports.items():
            if report is None or report.unavailable:
                continue
            if worst is None or report.available_bps < worst[2]:
                worst = (a, b, report.available_bps)
        return worst


class _Layout:
    """One topology epoch's pair set, laid out for columns.

    ``keys[i]`` is pair ``i`` (matrix host order); ``held[i]`` its
    ``(connection indices, report name, redundant)``, None when
    disconnected; ``table[i]`` the indices of its connections into
    ``entries``, padded with ``len(entries)`` (a sentinel column every
    per-connection array carries last) to one width plus one, so every
    row holds at least one sentinel; ``order`` the pair indices sorted
    by pair.
    """

    __slots__ = (
        "keys", "index", "held", "entries", "table", "lengths", "connected",
        "connected_count", "path_entries", "order",
    )

    def __init__(
        self,
        keys: List[Pair],
        held: List[Optional[Tuple[Tuple[int, ...], str, bool]]],
        entries: List[ConnCacheEntry],
    ) -> None:
        self.keys = keys
        self.index = {pair: i for i, pair in enumerate(keys)}
        self.held = held
        self.entries = entries
        sentinel = len(entries)
        paths = [() if h is None else h[0] for h in held]
        width = max((len(p) for p in paths), default=0) + 1
        table = np.full((len(keys), width), sentinel, dtype=np.intp)
        for i, path in enumerate(paths):
            table[i, : len(path)] = path
        self.table = table
        self.lengths = np.array([len(p) for p in paths], dtype=np.int64)
        self.connected = np.array([h is not None for h in held], dtype=bool)
        self.connected_count = int(np.count_nonzero(self.connected))
        self.path_entries = int(self.lengths.sum())
        self.order = np.array(
            sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp
        )


class _PairCells(Mapping):
    """One snapshot's cells: columns over every pair, and a
    :class:`PathReport` composed for a pair only when its cell is read.

    A mapping from pair to report (None: disconnected), so it reads like
    the dict of reports it stands for.  The columns hold what a report
    would say without composing it: ``available`` is each pair's ``A``
    (NaN when unavailable), ``status`` its index into :data:`STATUSES`,
    ``dirty`` whether its path crosses a connection whose token moved
    since the previous snapshot.
    """

    __slots__ = (
        "layout", "time", "available", "status", "dirty", "_compose",
        "_measurements", "_confidences", "_gathered", "_reused", "_origin",
        "_memo", "_entries", "_columns",
    )

    def __init__(
        self,
        layout: _Layout,
        time: float,
        compose: Callable[..., PathReport],
        captured: Tuple[list, list, np.ndarray],
        columns: Tuple[np.ndarray, np.ndarray, np.ndarray],
        reused: Optional[np.ndarray],
        origin: Optional["_PairCells"],
    ) -> None:
        self.layout = layout
        self.time = time
        self._compose = compose
        self._measurements, self._confidences, self._gathered = captured
        self.available, self.status, self.dirty = columns
        self._reused = reused  # same-instant clean pairs: the origin's report
        self._origin = origin
        self._memo = [_UNREAD] * len(layout.keys)
        self._entries: List[Optional[ConnCacheEntry]] = [None] * len(layout.entries)
        self._columns: Dict[str, np.ndarray] = {}

    # -- the mapping ------------------------------------------------------
    def __getitem__(self, pair: Pair) -> Optional[PathReport]:
        return self.cell(self.layout.index[pair])

    def __contains__(self, pair: object) -> bool:
        return pair in self.layout.index

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.layout.keys)

    def __len__(self) -> int:
        return len(self.layout.keys)

    def get(self, pair: Pair, default=None):
        i = self.layout.index.get(pair)
        return default if i is None else self.cell(i)

    # -- cells ------------------------------------------------------------
    def candidates(self) -> np.ndarray:
        """The indices of the dirty pairs, sorted by pair."""
        order = self.layout.order
        return order[self.dirty[order]]

    def cell(self, i: int) -> Optional[PathReport]:
        """Pair ``i``'s report, composed on first read."""
        report = self._memo[i]
        if report is _UNREAD:
            held = self.layout.held[i]
            if held is None:
                report = None
            elif self._reused is not None and self._reused[i]:
                report = self._origin.cell(i)
            else:
                conns, name, redundant = held
                a, b = self.layout.keys[i]
                entries = self._entries
                report = self._compose(
                    [entries[k] or self._entry(k) for k in conns],
                    a, b, self.time, name, redundant,
                )
            self._memo[i] = report
        return report

    def _entry(self, k: int) -> ConnCacheEntry:
        """Connection ``k`` as the snapshot captured it, in the form
        ``compose`` reads; made once per snapshot."""
        entry = self._entries[k] = ConnCacheEntry(
            self.layout.entries[k].conn,
            measurement=self._measurements[k],
            confidence=self._confidences[k],
        )
        return entry

    def column(self, metric: str) -> np.ndarray:
        """``metric`` ("available", "used" or "utilization") of every pair,
        as its composed report would read it."""
        if metric == "available":
            return self.available
        out = self._columns.get(metric)
        if out is None:
            table = self.layout.table
            if metric == "used":
                out = self._used(table)
            elif metric == "utilization":
                # The bottleneck is the first connection of least a_i
                # (a_i is never NaN); the sentinel's +inf never wins.
                utilization = np.array(
                    [m.utilization for m in self._measurements] + [0.0]
                )
                first_least = self._gathered.argmin(axis=1)
                out = utilization[table[np.arange(len(table)), first_least]]
            else:
                raise MatrixError(f"unknown metric {metric!r}; pick from {_METRICS}")
            self._columns[metric] = out
        return out

    def _used(self, table: np.ndarray) -> np.ndarray:
        """``max`` of the measured connections' ``u_i`` (0.0 when none),
        column by column in path order, as ``max`` compares them."""
        used = np.array([m.used_bps for m in self._measurements] + [0.0])
        measured = np.array([m.measured for m in self._measurements] + [False])
        best = np.full(len(table), np.nan)
        have = np.zeros(len(table), dtype=bool)
        for k in range(table.shape[1]):
            value = used[table[:, k]]
            counts = measured[table[:, k]]
            take = counts & (~have | (value > best))
            best = np.where(take, value, best)
            have |= counts
        return np.where(have, best, 0.0)


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
        # Whether the latest snapshot rebuilt its paths (topology epoch
        # moved); its cells say which pairs are dirty.
        self.last_snapshot_rebuilt = False

    def _build_paths(self) -> None:
        self._topology_epoch = self.graph.topology_epoch
        keys: List[Pair] = []
        # per pair: (its entries' columns, report name, redundant), None
        # when disconnected
        held: List[Optional[Tuple[Tuple[int, ...], str, bool]]] = []
        position: Dict[ConnCacheEntry, int] = {}  # distinct entry -> column
        bind = self.calculator.bind
        # A pair is redundant when its path crosses a connection whose own
        # two ends are a redundant pair (pair_redundant on that one
        # connection: it is not a bridge).  Asked once per distinct
        # connection, then a set test per pair.
        spare: Set[ConnCacheEntry] = set()
        for i, a in enumerate(self.hosts):
            for b in self.hosts[i + 1:]:
                keys.append((a, b))
                try:
                    bound = bind(find_path(self.graph, a, b))
                except NoPathError:
                    held.append(None)
                    continue
                for entry in bound:
                    if entry not in position:
                        position[entry] = len(position)
                        conn = entry.conn
                        if pair_redundant(
                            self.graph, conn.end_a.node, conn.end_b.node, (conn,)
                        ):
                            spare.add(entry)
                held.append((
                    tuple(position[entry] for entry in bound),
                    f"matrix:{a}<->{b}",
                    not spare.isdisjoint(bound),
                ))
        self._conns = BoundPath(position)  # each distinct entry, in column order
        self._layout = _Layout(keys, held, list(self._conns))
        # Previous-snapshot state for dirty-pair reuse: void on new paths.
        self._prev: Optional[_PairCells] = None
        self._prev_tokens: Dict[ConnCacheEntry, Tuple] = {}

    def snapshot(self, time: float) -> MatrixSnapshot:
        tel = getattr(self.calculator, "telemetry", None)
        span = tel.tracer.begin("matrix_snapshot") if tel is not None else NULL_SPAN
        rebuilt = False
        if self.graph.topology_epoch != self._topology_epoch:
            # Topology changed: paths may differ, previous state is void.
            self._build_paths()
            rebuilt = True
        layout = self._layout
        # One validation pass over the distinct connections, then capture
        # what each holds now; a connection is dirty when its token moved
        # since the previous snapshot.
        self.calculator.refresh(self._conns, time)
        measurements = []
        confidences = []
        available = []
        trust = []
        moved = []
        prev_tokens = self._prev_tokens
        inf = float("inf")
        for entry in layout.entries:
            m = entry.measurement
            c = entry.confidence
            measurements.append(m)
            confidences.append(c)
            available.append(m.available_bps)
            trust.append(inf if c is None else c)  # None: not expected
            token = entry.token
            if prev_tokens.get(entry) != token:
                prev_tokens[entry] = token
                moved.append(True)
            else:
                moved.append(False)
        table = layout.table
        # Every pair at once, as compose would judge it: A is the least
        # a_i (never NaN, so min is the loop's first least), confidence
        # the least expected source's (+inf: none expected).
        gathered = np.array(available + [inf])[table]
        least = np.array(trust + [inf])[table].min(axis=1)
        measured = least < inf
        confidence = np.where(measured, least, 1.0)
        unavailable = measured & (confidence <= 0.0)
        status = np.where(unavailable, 2, np.where(confidence < 1.0, 1, 0))
        a_column = np.where(unavailable, np.nan, gathered.min(axis=1))
        dirty = np.array(moved + [False])[table].any(axis=1)
        # A previous report is reusable *verbatim* only at the same report
        # instant (age fields depend on it); across instants a pair is
        # recomposed, when read, from the measurements captured above.
        prev = self._prev
        reused = None
        reused_count = reused_entries = 0
        if prev is not None and prev.time == time:
            reused = layout.connected & ~dirty
            reused_count = int(np.count_nonzero(reused))
            reused_entries = int(layout.lengths[reused].sum())
        self.pair_cache_hits += reused_count
        self.pair_recomputes += layout.connected_count - reused_count
        # A recomposed pair asks for each of its entries: count them as
        # lookups, as a report built through measure_path does.
        self.calculator.lookups += layout.path_entries - reused_entries
        cells = _PairCells(
            layout,
            time,
            self.calculator.compose,
            (measurements, confidences, gathered),
            (a_column, status, dirty),
            reused,
            prev if reused is not None else None,
        )
        self._prev = cells
        self.dirty_pairs_last = int(np.count_nonzero(dirty))
        # After a rebuild previous tokens were void, so every measurable
        # pair is dirty -- exactly what the stream publisher must
        # re-deliver; it still needs the rebuilt flag to re-baseline its
        # significance filters.
        self.last_snapshot_rebuilt = rebuilt
        span.finish(
            pairs=len(layout.keys), dirty_pairs=self.dirty_pairs_last, rebuilt=rebuilt
        )
        return MatrixSnapshot(hosts=list(self.hosts), time=time, reports=cells)
