"""Dynamic network topology discovery -- paper §5 future work.

The paper chose specification over discovery ("Pure network discovery is
not feasible in the DeSiDeRaTa environment because the resource management
middleware has to know exactly what resources are under its control") but
named "dynamic network topology discovery" as future work and suggested
"a hybrid approach may be a better solution".

This module implements that hybrid: SNMP-driven discovery whose result is
*cross-checked against the specification* rather than replacing it.

Method
------
1. Walk each known agent's system group and ifTable: host identities and
   their interface MACs (``ifPhysAddress``).
2. Walk each agent's bridge-MIB forwarding table (``dot1dTpFdbTable``);
   agents that answer are switches, and the rows give MAC -> port.
3. Attach: a switch port whose learned MACs are exactly one known host ->
   a direct host connection.  A port with several MACs -> a shared
   segment (hub or uplink) grouping those nodes.
4. Hosts with no agent appear only as anonymous MACs -- precisely the gap
   that makes pure discovery insufficient for resource management.

Everything runs as genuine SNMP traffic through a supplied manager, so
discovery load is visible to the bandwidth monitor like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.simnet.address import IPv4Address, MacAddress
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import (
    DOT1D_STP_PORT_STATE,
    DOT1D_TP_FDB_PORT,
    IF_PHYS_ADDRESS,
    SYS_NAME,
)
from repro.snmp.oid import Oid
from repro.topology.model import DeviceKind, TopologySpec


@dataclass
class DiscoveredNode:
    """One SNMP-visible node."""

    name: str
    address: IPv4Address
    macs: Set[MacAddress] = field(default_factory=set)
    is_switch: bool = False
    # switch only: port ifIndex -> MACs learned behind it
    fdb: Dict[int, Set[MacAddress]] = field(default_factory=dict)
    # switch only (with include_stp): port ifIndex -> RFC 1493
    # dot1dStpPortState (disabled 1 / blocking 2 / forwarding 5)
    stp_states: Dict[int, int] = field(default_factory=dict)


@dataclass
class Attachment:
    """A switch port and what discovery concluded sits behind it."""

    switch: str
    port: int
    known_nodes: List[str]
    unknown_macs: List[MacAddress]

    @property
    def shared_segment(self) -> bool:
        """More than one station behind the port: a hub or an uplink."""
        return len(self.known_nodes) + len(self.unknown_macs) > 1


@dataclass
class DiscoveryResult:
    nodes: Dict[str, DiscoveredNode]
    attachments: List[Attachment]
    # Candidates whose every walk failed (agent down / host partitioned).
    # Their absence from ``attachments`` means "no data", NOT "detached";
    # consumers must keep last-known state for them (topology_sync does).
    unreachable: Set[str] = field(default_factory=set)

    def attachment_of(self, node_name: str) -> Optional[Attachment]:
        for att in self.attachments:
            if node_name in att.known_nodes:
                return att
        return None

    def unknown_station_count(self) -> int:
        return sum(len(a.unknown_macs) for a in self.attachments)

    # ------------------------------------------------------------------
    # Cross-checking (the hybrid approach)
    # ------------------------------------------------------------------
    def verify_against(self, spec: TopologySpec) -> List[str]:
        """Discrepancies between the discovered picture and the spec.

        Returns human-readable findings; empty means every verifiable
        claim in the spec was confirmed.  SNMP-less hosts are reported as
        unverifiable, not as errors.
        """
        findings: List[str] = []
        for node in spec.hosts():
            if not node.snmp_enabled:
                findings.append(
                    f"unverifiable: host {node.name!r} runs no agent; it can "
                    "only appear as an anonymous MAC"
                )
                continue
            if node.name not in self.nodes:
                findings.append(f"missing: host {node.name!r} was not discovered")
                continue
            att = self.attachment_of(node.name)
            if att is None:
                findings.append(
                    f"mismatch: host {node.name!r} discovered but not attached to "
                    "any switch port"
                )
                continue
            declared = self._declared_attachment(spec, node.name)
            if declared is None:
                continue  # spec does not place this host behind a switch
            declared_switch, via_shared, hub_members = declared
            if att.switch != declared_switch:
                findings.append(
                    f"mismatch: {node.name!r} found behind {att.switch!r}, spec "
                    f"says {declared_switch!r}"
                )
            if via_shared:
                # Every discovered co-member of the declared hub must sit
                # behind the SAME switch port as this host.
                for member in hub_members:
                    member_att = self.attachment_of(member)
                    if member_att is None:
                        continue
                    if (member_att.switch, member_att.port) != (att.switch, att.port):
                        findings.append(
                            f"mismatch: spec places {node.name!r} and "
                            f"{member!r} on the same hub, but they appear on "
                            f"different switch ports ({att.port} vs "
                            f"{member_att.port})"
                        )
                if not att.shared_segment and not hub_members:
                    # A hub with a single live host is indistinguishable
                    # from a direct connection at the FDB level.
                    findings.append(
                        f"unverifiable: spec places {node.name!r} on a shared "
                        "segment (hub) but only one station is visible "
                        "behind its switch port; a one-host hub looks direct"
                    )
            if not via_shared and att.shared_segment:
                findings.append(
                    f"mismatch: {node.name!r} shares its switch port with other "
                    "stations but the spec declares a direct connection"
                )
        return findings

    @staticmethod
    def _declared_attachment(
        spec: TopologySpec, host_name: str
    ) -> Optional[Tuple[str, bool, List[str]]]:
        """(switch, via-hub?, other declared hub members) for a host."""
        for conn in spec.connections_of(host_name):
            peer = conn.other_end(host_name).node
            kind = spec.node(peer).kind
            if kind is DeviceKind.SWITCH:
                return peer, False, []
            if kind is DeviceKind.HUB:
                members = [
                    other.node
                    for leg in spec.connections_of(peer)
                    for other in [leg.other_end(peer)]
                    if other.node != host_name
                    and spec.node(other.node).kind is DeviceKind.HOST
                ]
                # Follow the hub's uplink to a switch.
                for uplink in spec.connections_of(peer):
                    far = uplink.other_end(peer).node
                    if spec.node(far).kind is DeviceKind.SWITCH:
                        return far, True, members
                return None
        return None


def snmp_candidates(build) -> List[Tuple[str, IPv4Address, str]]:
    """``(name, address, community)`` of every SNMP-enabled spec node the
    build gave an agent, in spec order: who discovery can ask, and how."""
    return [
        (node.name, build.network.ip_of(node.name), node.snmp_community)
        for node in build.spec.nodes
        if node.snmp_enabled and node.name in build.agents
    ]


class TopologyDiscoverer:
    """Asynchronous SNMP discovery across a set of candidate agents."""

    def __init__(
        self,
        manager: SnmpManager,
        candidates: List[Tuple[str, IPv4Address, str]],
        include_stp: bool = False,
        use_bulk: bool = False,
    ) -> None:
        """``candidates`` are ``(name, address, community)``: each agent is
        walked under its own community (:func:`snmp_candidates`).
        ``include_stp`` adds a dot1dStpPortState walk per candidate so
        switch spanning-tree state rides along with the attachments.
        ``use_bulk`` walks with GETBULK (fewer, larger requests)."""
        self.manager = manager
        self.candidates = list(candidates)
        self.include_stp = include_stp
        self.use_bulk = use_bulk
        self._nodes: Dict[str, DiscoveredNode] = {}
        self._pending = 0
        self._walks: Dict[str, int] = {}
        self._failures: Dict[str, int] = {}
        self._callback: Optional[Callable[[DiscoveryResult], None]] = None
        self.result: Optional[DiscoveryResult] = None

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def discover(self, callback: Callable[[DiscoveryResult], None]) -> None:
        if self._callback is not None:
            raise RuntimeError("discovery already running")
        self._callback = callback
        for name, address, community in self.candidates:
            node = DiscoveredNode(name=name, address=address)
            self._nodes[name] = node
            # Three walks per candidate: identity, MACs, FDB (plus the
            # optional spanning-tree port-state walk).
            walks = [
                (self._on_sysname, SYS_NAME),
                (self._on_phys_addresses, IF_PHYS_ADDRESS),
                (self._on_fdb, DOT1D_TP_FDB_PORT),
            ]
            if self.include_stp:
                walks.append((self._on_stp, DOT1D_STP_PORT_STATE))
            for on_rows, root in walks:
                self._begin(
                    lambda vbs, n=node, on_rows=on_rows: on_rows(n, vbs),
                    node, root, community,
                )

    def _begin(self, handler, node: DiscoveredNode, root: Oid, community: str) -> None:
        self._pending += 1
        key = node.name  # candidate name; sysName may rename the node later
        self._walks[key] = self._walks.get(key, 0) + 1

        def done(varbinds):
            handler(varbinds)
            self._complete()

        def failed(exc):
            self._failures[key] = self._failures.get(key, 0) + 1
            self._complete()

        self.manager.walk(
            node.address, root, done, failed, use_bulk=self.use_bulk, community=community
        )

    def _complete(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.result = self._assemble()
            callback, self._callback = self._callback, None
            if callback is not None:
                callback(self.result)

    # ------------------------------------------------------------------
    # Walk handlers
    # ------------------------------------------------------------------
    def _on_sysname(self, node: DiscoveredNode, varbinds) -> None:
        for vb in varbinds:
            text = vb.value.value.decode(errors="replace")
            if text:
                node.name = text

    def _on_phys_addresses(self, node: DiscoveredNode, varbinds) -> None:
        for vb in varbinds:
            raw = vb.value.value
            if len(raw) == 6:
                node.macs.add(MacAddress(int.from_bytes(raw, "big")))

    def _on_fdb(self, node: DiscoveredNode, varbinds) -> None:
        if not varbinds:
            return
        node.is_switch = True
        for vb in varbinds:
            mac_arcs = vb.oid.strip_prefix(DOT1D_TP_FDB_PORT)
            if len(mac_arcs) != 6:
                continue
            mac = MacAddress(int.from_bytes(bytes(mac_arcs), "big"))
            port = int(vb.value.value)
            node.fdb.setdefault(port, set()).add(mac)

    def _on_stp(self, node: DiscoveredNode, varbinds) -> None:
        if not varbinds:
            return
        node.is_switch = True
        for vb in varbinds:
            arcs = vb.oid.strip_prefix(DOT1D_STP_PORT_STATE)
            if len(arcs) != 1:
                continue
            node.stp_states[int(arcs[0])] = int(vb.value.value)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _assemble(self) -> DiscoveryResult:
        unreachable = {
            name
            for name, walks in self._walks.items()
            if walks > 0 and self._failures.get(name, 0) >= walks
        }
        mac_owner: Dict[MacAddress, str] = {}
        for node in self._nodes.values():
            if not node.is_switch:
                for mac in node.macs:
                    mac_owner[mac] = node.name
        attachments: List[Attachment] = []
        for node in self._nodes.values():
            if not node.is_switch:
                continue
            for port, macs in sorted(node.fdb.items()):
                known = sorted({mac_owner[m] for m in macs if m in mac_owner})
                unknown = sorted(m for m in macs if m not in mac_owner)
                # Skip ports that only ever saw the switch's own mgmt MAC.
                if not known and not unknown:
                    continue
                attachments.append(
                    Attachment(
                        switch=node.name, port=port, known_nodes=known,
                        unknown_macs=unknown,
                    )
                )
        return DiscoveryResult(
            nodes=dict(self._nodes), attachments=attachments, unreachable=unreachable
        )
