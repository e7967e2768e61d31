"""MIB tree and the MIB-II bindings the paper's monitor polls.

Table 1 of the paper lists the objects its poller reads::

    system.sysUpTime                 (1.3.6.1.2.1.1.3)
    interfaces.ifTable.ifEntry.ifSpeed        (...2.2.1.5)
    interfaces.ifTable.ifEntry.ifInOctets     (...2.2.1.10)
    interfaces.ifTable.ifEntry.ifInUcastPkts  (...2.2.1.11)
    interfaces.ifTable.ifEntry.ifOutOctets    (...2.2.1.16)
    interfaces.ifTable.ifEntry.ifOutNUcastPkts(...2.2.1.18)

:func:`build_mib2` binds those OIDs (and the rest of the RFC 1213 system
and interfaces groups) to *live* simulator state: every GET reads the NIC
counters at that simulated instant, truncated to Counter32 so the poller's
wrap handling is real.

Dynamic tables (the switch's bridge-MIB forwarding database used by the
topology-discovery extension) plug in as :class:`MibProvider` objects that
enumerate rows on demand.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple, Union

from repro.snmp.datatypes import (
    Counter32,
    Gauge32,
    Integer,
    OctetString,
    ObjectIdentifier,
    SnmpValue,
    TimeTicks,
)
from repro.snmp.oid import Oid

Accessor = Callable[[], SnmpValue]

# MIB-II object identifiers (RFC 1213), exported for poller and tests.
SYS_DESCR = Oid("1.3.6.1.2.1.1.1.0")
SYS_OBJECT_ID = Oid("1.3.6.1.2.1.1.2.0")
SYS_UPTIME = Oid("1.3.6.1.2.1.1.3.0")
SYS_CONTACT = Oid("1.3.6.1.2.1.1.4.0")
SYS_NAME = Oid("1.3.6.1.2.1.1.5.0")
SYS_LOCATION = Oid("1.3.6.1.2.1.1.6.0")
SYS_SERVICES = Oid("1.3.6.1.2.1.1.7.0")

IF_NUMBER = Oid("1.3.6.1.2.1.2.1.0")
IF_ENTRY = Oid("1.3.6.1.2.1.2.2.1")
IF_INDEX = IF_ENTRY + "1"
IF_DESCR = IF_ENTRY + "2"
IF_TYPE = IF_ENTRY + "3"
IF_MTU = IF_ENTRY + "4"
IF_SPEED = IF_ENTRY + "5"
IF_PHYS_ADDRESS = IF_ENTRY + "6"
IF_ADMIN_STATUS = IF_ENTRY + "7"
IF_OPER_STATUS = IF_ENTRY + "8"
IF_LAST_CHANGE = IF_ENTRY + "9"
IF_IN_OCTETS = IF_ENTRY + "10"
IF_IN_UCAST_PKTS = IF_ENTRY + "11"
IF_IN_NUCAST_PKTS = IF_ENTRY + "12"
IF_IN_DISCARDS = IF_ENTRY + "13"
IF_IN_ERRORS = IF_ENTRY + "14"
IF_OUT_OCTETS = IF_ENTRY + "16"
IF_OUT_UCAST_PKTS = IF_ENTRY + "17"
IF_OUT_NUCAST_PKTS = IF_ENTRY + "18"
IF_OUT_DISCARDS = IF_ENTRY + "19"
IF_OUT_ERRORS = IF_ENTRY + "20"

# The snmp group (RFC 1213 §6, 1.3.6.1.2.1.11): agent self-statistics.
SNMP_GROUP = Oid("1.3.6.1.2.1.11")
SNMP_IN_PKTS = SNMP_GROUP + "1.0"
SNMP_OUT_PKTS = SNMP_GROUP + "2.0"
SNMP_IN_BAD_COMMUNITY_NAMES = SNMP_GROUP + "4.0"
SNMP_IN_ASN_PARSE_ERRS = SNMP_GROUP + "6.0"
SNMP_IN_GET_REQUESTS = SNMP_GROUP + "15.0"

# Bridge MIB (RFC 1493) transparent-bridging FDB, used by core.discovery.
DOT1D_TP_FDB_ENTRY = Oid("1.3.6.1.2.1.17.4.3.1")
DOT1D_TP_FDB_ADDRESS = DOT1D_TP_FDB_ENTRY + "1"
DOT1D_TP_FDB_PORT = DOT1D_TP_FDB_ENTRY + "2"
DOT1D_TP_FDB_STATUS = DOT1D_TP_FDB_ENTRY + "3"

# Bridge MIB (RFC 1493) spanning-tree port table, used by the monitor's
# topology-sync loop to learn which redundant uplinks are blocked.
DOT1D_STP_PORT_ENTRY = Oid("1.3.6.1.2.1.17.2.15.1")
DOT1D_STP_PORT = DOT1D_STP_PORT_ENTRY + "1"
DOT1D_STP_PORT_STATE = DOT1D_STP_PORT_ENTRY + "3"

IFTYPE_ETHERNET = 6
IF_STATUS_UP = 1
IF_STATUS_DOWN = 2
FDB_STATUS_LEARNED = 3


class MibError(RuntimeError):
    """Raised for registration conflicts and malformed lookups."""


class MibProvider(Protocol):
    """A dynamic subtree: rows are enumerated at query time (``items``:
    all of them, in OID order)."""

    prefix: Oid

    def get(self, oid: Oid) -> Optional[SnmpValue]: ...

    def next(self, oid: Oid) -> Optional[Tuple[Oid, SnmpValue]]: ...

    def items(self) -> List[Tuple[Oid, SnmpValue]]: ...


class MibTree:
    """Sorted registry of scalar accessors plus dynamic providers.

    ``get`` answers exact-instance reads; ``get_next`` answers the
    lexicographic successor query that powers GETNEXT/GETBULK walks,
    merging static entries with the view of every provider whose subtree
    can hold the successor.
    """

    def __init__(self) -> None:
        self._static: Dict[Oid, Accessor] = {}
        self._sorted: List[Oid] = []
        self._providers: List[MibProvider] = []
        self._provider_floor: Optional[Oid] = None  # the smallest provider prefix

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, oid: Oid, value: Union[SnmpValue, Accessor]) -> None:
        """Register a scalar instance (a full OID ending in its index)."""
        if oid in self._static:
            raise MibError(f"OID {oid} registered twice")
        accessor: Accessor = value if callable(value) else (lambda v=value: v)
        self._static[oid] = accessor
        insort(self._sorted, oid)

    def register_provider(self, provider: MibProvider) -> None:
        for existing in self._providers:
            if existing.prefix.startswith(provider.prefix) or provider.prefix.startswith(
                existing.prefix
            ):
                raise MibError(
                    f"provider prefix {provider.prefix} overlaps {existing.prefix}"
                )
        self._providers.append(provider)
        self._provider_floor = min(p.prefix for p in self._providers)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, oid: Oid) -> Optional[SnmpValue]:
        accessor = self._static.get(oid)
        if accessor is not None:
            return accessor()
        for provider in self._providers:
            if oid.startswith(provider.prefix):
                return provider.get(oid)
        return None

    def get_next(self, oid: Oid) -> Optional[Tuple[Oid, SnmpValue]]:
        """Smallest registered instance strictly greater than ``oid``."""
        best: Optional[Tuple[Oid, SnmpValue]] = None
        candidate: Optional[Oid] = None
        idx = bisect_right(self._sorted, oid)
        if idx < len(self._sorted):
            candidate = self._sorted[idx]
            best = (candidate, self._static[candidate]())
        for provider in self._providers:
            prefix = provider.prefix
            # Every row of a provider extends its prefix, so it cannot
            # hold the successor when a static instance already sorts
            # before the whole subtree or the cursor is past its end.
            if (candidate is not None and candidate < prefix) or oid[: len(prefix)] > prefix:
                continue
            hit = provider.next(oid)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
        return best

    def get_next_run(self, oid: Oid, count: int) -> List[Tuple[Oid, SnmpValue]]:
        """Up to ``count`` successive successors of ``oid`` (what chaining
        :meth:`get_next` gives; shorter only where the MIB ends): a
        GetBulk repeater's whole run at once.  Static instances sorting
        before every provider's prefix are each other's successors, so
        that stretch is one ``bisect`` and a slice; from the first one a
        provider might own, the run continues through :meth:`get_next`.

        A view wrapped around a tree must define this itself, in terms of
        its own ``get``/rewrite: delegated, it serves the wrapped values.
        """
        start = bisect_right(self._sorted, oid)
        ahead = self._sorted[start : start + count]
        floor = self._provider_floor
        if floor is not None and ahead and ahead[-1] >= floor:
            ahead = ahead[: bisect_left(ahead, floor)]
        static = self._static
        run = [(next_oid, static[next_oid]()) for next_oid in ahead]
        cursor = ahead[-1] if ahead else oid
        while len(run) < count:
            hit = self.get_next(cursor)
            if hit is None:
                break
            run.append(hit)
            cursor = hit[0]
        return run

    def has_subtree(self, oid: Oid) -> bool:
        """True when any instance lives strictly under ``oid``.

        Distinguishes the v2c ``noSuchInstance`` (object exists, index
        does not... approximated as: some sibling subtree exists) from
        ``noSuchObject``.
        """
        nxt = self.get_next(oid)
        return nxt is not None and nxt[0].startswith(oid)

    def walk_all(self) -> List[Tuple[Oid, SnmpValue]]:
        """Fully materialise the tree, in OID order.

        Every :class:`CachingMibTree` refresh tick pays this, so each row
        is read once, not found by ``get_next`` from its predecessor; the
        sort only merges runs that are already sorted.
        """
        static = self._static
        rows = [(oid, static[oid]()) for oid in self._sorted]
        if self._providers:
            for provider in self._providers:
                rows.extend(provider.items())
            rows.sort(key=itemgetter(0))
        return rows

    def __len__(self) -> int:
        return len(self._static)


# ----------------------------------------------------------------------
# MIB-II construction
# ----------------------------------------------------------------------
_ENTERPRISE_OID = Oid("1.3.6.1.4.1.99999.1")  # private arc for the simulator

# The ifTable columns that read a free-running counter of an interface's
# statistics block (Counter32 on the wire), by the block's attribute.
_IF_COUNTERS = {
    IF_IN_OCTETS: "in_octets", IF_OUT_OCTETS: "out_octets",
    IF_IN_UCAST_PKTS: "in_ucast_pkts", IF_OUT_UCAST_PKTS: "out_ucast_pkts",
    IF_IN_NUCAST_PKTS: "in_nucast_pkts", IF_OUT_NUCAST_PKTS: "out_nucast_pkts",
    IF_IN_DISCARDS: "in_discards", IF_OUT_DISCARDS: "out_discards",
}


class _LiveCounter:
    """One such counter, :meth:`read` as a :class:`Counter32`: the *same*
    object for as long as the raw counter has not moved -- the agent's
    reply writer reuses the bytes it wrote for a value object, for that
    object only, so an idle counter costs this one call.  The raw value is
    compared, not the wrapped one: moved by exactly 2**32 is a new object
    all the same.  (Slotted, its bound ``read`` registered: a third of a
    closure's memory and as quick.)"""

    __slots__ = ("_source", "_attribute", "_raw", "_value")

    def __init__(self, source, attribute: str) -> None:
        self._source = source
        self._attribute = attribute
        self._raw = self._value = None

    def read(self) -> Counter32:
        raw = getattr(self._source, self._attribute)
        if raw != self._raw:
            self._raw = raw
            self._value = Counter32.wrap(raw)
        return self._value


def build_mib2(
    device,
    sim,
    descr: Optional[str] = None,
    location: str = "LIRTSS testbed (simulated)",
    contact: str = "repro",
    boot_time: float = 0.0,
) -> MibTree:
    """Bind the MIB-II system + interfaces groups to a live device.

    ``device`` is anything carrying ``name`` and ``interfaces`` (a Host,
    Switch or Hub).  Counter objects read the interface counters at call
    time and truncate to Counter32; ``sysUpTime`` reads the simulation
    clock, so "the time interval between two polling processes can be
    found using the system uptime data" works exactly as in the paper.
    """
    tree = MibTree()
    name = getattr(device, "name", "device")
    kind = getattr(device, "kind", "host")
    if descr is None:
        os_label = getattr(device, "os_label", kind)
        descr = f"{name} ({os_label})"

    tree.register(SYS_DESCR, OctetString(descr))
    tree.register(SYS_OBJECT_ID, ObjectIdentifier(_ENTERPRISE_OID))
    tree.register(
        SYS_UPTIME,
        lambda: TimeTicks.from_seconds(max(0.0, sim.now - boot_time)),
    )
    tree.register(SYS_CONTACT, OctetString(contact))
    tree.register(SYS_NAME, OctetString(name))
    tree.register(SYS_LOCATION, OctetString(location))
    # services: physical(1) + datalink(2) for devices, +transport/apps for hosts
    tree.register(SYS_SERVICES, Integer(72 if kind == "host" else 2))

    interfaces = list(getattr(device, "interfaces", []))
    tree.register(IF_NUMBER, Integer(len(interfaces)))

    for iface in interfaces:
        i = iface.if_index
        tree.register(IF_INDEX + str(i), Integer(i))
        tree.register(IF_DESCR + str(i), OctetString(iface.local_name))
        tree.register(IF_TYPE + str(i), Integer(IFTYPE_ETHERNET))
        tree.register(IF_MTU + str(i), Integer(iface.mtu))
        # ifSpeed is a Gauge32; clamp like real agents do for >4 Gb/s links.
        speed = min(int(iface.speed_bps), (1 << 32) - 1)
        tree.register(IF_SPEED + str(i), Gauge32(speed))
        tree.register(IF_PHYS_ADDRESS + str(i), OctetString(iface.mac.to_bytes()))
        tree.register(
            IF_ADMIN_STATUS + str(i),
            lambda ifc=iface: Integer(IF_STATUS_UP if ifc.admin_up else IF_STATUS_DOWN),
        )
        tree.register(
            IF_OPER_STATUS + str(i),
            lambda ifc=iface: Integer(
                IF_STATUS_UP if (ifc.admin_up and ifc.link is not None) else IF_STATUS_DOWN
            ),
        )
        tree.register(IF_LAST_CHANGE + str(i), TimeTicks(0))
        for column, attribute in _IF_COUNTERS.items():
            tree.register(column + str(i), _LiveCounter(iface.counters, attribute).read)
        tree.register(IF_IN_ERRORS + str(i), Counter32(0))
        tree.register(IF_OUT_ERRORS + str(i), Counter32(0))

    if kind == "switch":
        tree.register_provider(BridgeFdbProvider(device))
        if getattr(device, "stp", None) is not None:
            tree.register_provider(BridgeStpProvider(device))
    return tree


def register_snmp_group(tree, agent) -> None:
    """Bind the RFC 1213 snmp group to a live agent's statistics.

    Called by :class:`~repro.snmp.agent.SnmpAgent` on construction; works
    through a :class:`CachingMibTree` by registering on its inner tree
    (the counters then refresh on the agent's snapshot timer, like
    everything else it serves).
    """
    target = tree.inner if isinstance(tree, CachingMibTree) else tree
    target.register(SNMP_IN_PKTS, lambda: Counter32.wrap(agent.in_packets))
    target.register(SNMP_OUT_PKTS, lambda: Counter32.wrap(agent.out_packets))
    target.register(
        SNMP_IN_BAD_COMMUNITY_NAMES, lambda: Counter32.wrap(agent.bad_community)
    )
    target.register(SNMP_IN_ASN_PARSE_ERRS, lambda: Counter32.wrap(agent.malformed))
    target.register(SNMP_IN_GET_REQUESTS, lambda: Counter32.wrap(agent.get_requests))


class CachingMibTree:
    """A MIB view whose values refresh only every ``refresh_interval``.

    Era-accurate agent behaviour: many SNMP daemons (notoriously the
    Windows NT one in the paper's testbed) serve interface counters from
    an internal snapshot updated on a timer rather than reading hardware
    per request.  Bytes received after the snapshot surface only in the
    *next* poll -- producing the paper's "abnormally small value followed
    by an abnormally large one" and its worst-case ~16 % single-interval
    errors.

    ``sysUpTime`` (and anything under the system group) is always served
    fresh: the uptime clock is not a polled counter, which is exactly why
    the stale-counter displacement is *not* corrected by the paper's
    uptime-based interval arithmetic.
    """

    _FRESH_PREFIX = Oid("1.3.6.1.2.1.1")  # the system group

    def __init__(self, inner: MibTree, sim, refresh_interval: float) -> None:
        if refresh_interval <= 0:
            raise MibError(f"non-positive refresh interval {refresh_interval!r}")
        self.inner = inner
        self.sim = sim
        self.refresh_interval = refresh_interval
        self._snapshot: Dict[Oid, SnmpValue] = {}
        self.refreshes = 0
        # Eager periodic snapshots: the real artefact is that the agent's
        # values were captured *at the timer tick*, not at request time.
        self._task = sim.call_every(refresh_interval, self._take_snapshot, start=sim.now)

    def _take_snapshot(self) -> None:
        self._snapshot = dict(self.inner.walk_all())
        self.refreshes += 1

    def stop(self) -> None:
        """Cancel the refresh timer (teardown in long test sessions)."""
        self._task.cancel()

    def get(self, oid: Oid) -> Optional[SnmpValue]:
        if oid.startswith(self._FRESH_PREFIX):
            return self.inner.get(oid)
        if not self._snapshot:  # before the first tick (t=0 start)
            return self.inner.get(oid)
        return self._snapshot.get(oid)

    def get_next(self, oid: Oid) -> Optional[Tuple[Oid, SnmpValue]]:
        run = self.get_next_run(oid, 1)
        return run[0] if run else None

    def get_next_run(self, oid: Oid, count: int) -> List[Tuple[Oid, SnmpValue]]:
        """The inner tree's successors, each served as :meth:`get` serves
        it.  A row that appeared after the snapshot serves its live value
        (same behaviour as real agents walking a half-updated table)."""
        run = []
        for next_oid, live in self.inner.get_next_run(oid, count):
            value = self.get(next_oid)
            run.append((next_oid, value if value is not None else live))
        return run

    def has_subtree(self, oid: Oid) -> bool:
        return self.inner.has_subtree(oid)

    def walk_all(self) -> List[Tuple[Oid, SnmpValue]]:
        return [(oid, self.get(oid)) for oid, _v in self.inner.walk_all()]

    def __len__(self) -> int:
        return len(self.inner)


class _RowIndex:
    """One dynamic table's rows in OID order, looked up by ``bisect``.

    A row's value is an :data:`SnmpValue`, or an accessor called at
    lookup time for state that changes without the row set changing.
    """

    __slots__ = ("_oids", "_values")

    def __init__(
        self, rows: Iterable[Tuple[Oid, Union[SnmpValue, Accessor]]] = ()
    ) -> None:
        ordered = sorted(rows, key=itemgetter(0))
        self._oids = [oid for oid, _value in ordered]
        self._values = [value for _oid, value in ordered]

    def _value(self, i: int) -> SnmpValue:
        value = self._values[i]
        return value() if callable(value) else value

    def get(self, oid: Oid) -> Optional[SnmpValue]:
        i = bisect_left(self._oids, oid)
        if i < len(self._oids) and self._oids[i] == oid:
            return self._value(i)
        return None

    def next(self, oid: Oid) -> Optional[Tuple[Oid, SnmpValue]]:
        i = bisect_right(self._oids, oid)
        if i < len(self._oids):
            return (self._oids[i], self._value(i))
        return None

    def items(self) -> List[Tuple[Oid, SnmpValue]]:
        return [
            (oid, value() if callable(value) else value)
            for oid, value in zip(self._oids, self._values)
        ]


class BridgeFdbProvider:
    """RFC 1493 ``dot1dTpFdbTable`` rows backed by a live switch FDB.

    Row index is the MAC address as six OID arcs.  The topology-discovery
    extension (paper §5 "dynamic network topology discovery") walks this
    table to learn which MACs sit behind which switch port.

    Rows are materialised on the first query that reaches this subtree
    (:meth:`MibTree.get_next` never asks for a walk that stays in the
    ifTable) and reused until the FDB's bindings change.
    """

    prefix = DOT1D_TP_FDB_ENTRY

    # Aging only removes rows on this granularity boundary, so a cached
    # row index is revalidated at most this often even without FDB churn.
    _AGE_GRANULARITY = 10.0

    def __init__(self, switch) -> None:
        self.switch = switch
        self._index = _RowIndex()
        self._index_key = (-1, -1.0)

    def _rows(self) -> _RowIndex:
        key = (
            self.switch.fdb_version,
            self.switch.sim.now // self._AGE_GRANULARITY,
        )
        if key != self._index_key:
            rows: List[Tuple[Oid, SnmpValue]] = []
            for mac, port_index, _age in self.switch.fdb_entries():
                octets = mac.to_bytes()
                index = Oid(octets)
                rows.append((DOT1D_TP_FDB_ADDRESS + index, OctetString(octets)))
                rows.append((DOT1D_TP_FDB_PORT + index, Integer(port_index)))
                rows.append((DOT1D_TP_FDB_STATUS + index, Integer(FDB_STATUS_LEARNED)))
            self._index = _RowIndex(rows)
            self._index_key = key
        return self._index

    def get(self, oid: Oid) -> Optional[SnmpValue]:
        return self._rows().get(oid)

    def next(self, oid: Oid) -> Optional[Tuple[Oid, SnmpValue]]:
        return self._rows().next(oid)

    def items(self) -> List[Tuple[Oid, SnmpValue]]:
        return self._rows().items()


class BridgeStpProvider(_RowIndex):
    """RFC 1493 ``dot1dStpPortTable`` rows backed by a live spanning tree.

    Serves ``dot1dStpPort`` (the port index) and ``dot1dStpPortState``
    (disabled(1) / blocking(2) / forwarding(5)) per switch port.  The
    monitor's topology-sync loop walks this column to map the switch's
    active tree onto the topology graph's blocked-connection view.

    A switch's ports are fixed at construction, so the row set is built
    once; only the state values are read live.
    """

    prefix = DOT1D_STP_PORT_ENTRY

    def __init__(self, switch) -> None:
        rows: List[Tuple[Oid, Union[SnmpValue, Accessor]]] = []
        for iface in switch.interfaces:
            i = iface.if_index
            rows.append((DOT1D_STP_PORT.extend(i), Integer(i)))
            rows.append(
                (
                    DOT1D_STP_PORT_STATE.extend(i),
                    lambda i=i: Integer(switch.stp.port_state_value(i)),
                )
            )
        super().__init__(rows)
