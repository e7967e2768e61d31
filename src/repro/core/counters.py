"""Counter-source resolution: which polled interface measures a connection.

A connection's traffic can be read from either of its two ends ("the
amount of data transmitted as reported by SNMP polling from either the
host or the switch").  Not every end is SNMP-enabled -- in the paper's
testbed S3-S6 run no daemon and hubs never do -- so the monitor picks, per
connection, a *counter source*: the (agent, ifIndex) pair whose MIB-II
octet counters stand for that connection's traffic.

Preference order when both ends are measurable:

1. the **host** end -- a host NIC counts exactly the frames delivered to
   or sent by that host, while a switch port additionally counts flooded
   frames that merely pass by;
2. otherwise the **device** (switch) end -- this is how the paper measures
   "the bandwidth between S4 and S5 ... by polling the interfaces on the
   switch that are connected to S4 and S5";
3. otherwise the connection is unmeasurable and reported as such (the
   spec validator warns about this at parse time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.topology.model import (
    ConnectionSpec,
    DeviceKind,
    InterfaceRef,
    NodeSpec,
    TopologySpec,
)


@dataclass(frozen=True)
class CounterSource:
    """The polled interface standing for one connection's traffic."""

    node: str  # SNMP-enabled node whose agent is polled
    if_index: int  # MIB-II ifIndex of the interface on that node
    endpoint: InterfaceRef  # which end of the connection this is

    def key(self) -> Tuple[str, int]:
        return (self.node, self.if_index)


def if_index_of(node: NodeSpec, local_name: str) -> int:
    """MIB-II ifIndex of a spec interface (1-based declaration order).

    The builder creates simulator interfaces in spec order and the MIB
    numbers them identically, so this mapping is exact by construction.
    """
    for i, iface in enumerate(node.interfaces):
        if iface.local_name == local_name:
            return i + 1
    raise KeyError(f"node {node.name!r} has no interface {local_name!r}")


def resolve_counter_source(spec: TopologySpec, conn: ConnectionSpec) -> Optional[CounterSource]:
    """The preferred counter source for one connection (None: unmeasurable)."""
    host_end: Optional[InterfaceRef] = None
    device_end: Optional[InterfaceRef] = None
    for end in conn.endpoints():
        node = spec.node(end.node)
        if not node.snmp_enabled:
            continue
        if node.kind is DeviceKind.HOST:
            host_end = host_end or end
        elif node.kind is DeviceKind.SWITCH:
            device_end = device_end or end
        # Hubs cannot run agents; ignore even if misdeclared.
    chosen = host_end or device_end
    if chosen is None:
        return None
    node = spec.node(chosen.node)
    return CounterSource(
        node=node.name,
        if_index=if_index_of(node, chosen.interface),
        endpoint=chosen,
    )


def hub_host_connections(spec: TopologySpec) -> Dict[str, List[ConnectionSpec]]:
    """Host-facing connections of every hub, in declaration order.

    The hub bandwidth rule sums the traffic of all hosts sharing the
    collision domain; the incremental calculator computes that sum once
    per hub per epoch and shares it across every leg, so it needs the
    leg list resolved up front rather than rediscovered per measurement.
    """
    hubs: Dict[str, List[ConnectionSpec]] = {
        node.name: [] for node in spec.nodes if node.kind is DeviceKind.HUB
    }
    for conn in spec.connections:
        for end, other in ((conn.end_a, conn.end_b), (conn.end_b, conn.end_a)):
            if end.node in hubs and spec.node(other.node).kind is DeviceKind.HOST:
                hubs[end.node].append(conn)
    return hubs


def required_poll_targets(
    spec: TopologySpec, connections: List[ConnectionSpec]
) -> Dict[str, List[int]]:
    """Which (node -> ifIndexes) must be polled to measure ``connections``.

    This is what lets the monitor poll only what its watched paths need
    instead of walking every agent's whole ifTable each interval.
    """
    targets: Dict[str, List[int]] = {}
    for conn in connections:
        source = resolve_counter_source(spec, conn)
        if source is None:
            continue
        indexes = targets.setdefault(source.node, [])
        if source.if_index not in indexes:
            indexes.append(source.if_index)
    for indexes in targets.values():
        indexes.sort()
    return targets
