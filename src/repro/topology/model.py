"""The network-topology data model (paper Figure 2, extended).

The paper models a LAN as hosts/devices with named interfaces joined by
strictly 1-to-1 connections.  These classes are the declarative form: the
spec-language parser produces them, :mod:`repro.spec.builder` turns them
into live simulated devices, and the monitor's path traversal reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class TopologyError(ValueError):
    """Raised for structurally invalid topologies."""


class DeviceKind(str, Enum):
    """What a node is; the monitor's bandwidth rules depend on this."""

    HOST = "host"
    SWITCH = "switch"
    HUB = "hub"


@dataclass
class InterfaceSpec:
    """One named network interface on a node."""

    local_name: str
    speed_bps: float = 100e6
    mtu: int = 1500

    def __post_init__(self) -> None:
        if not self.local_name:
            raise TopologyError("interface needs a local name")
        if self.speed_bps <= 0:
            raise TopologyError(
                f"interface {self.local_name!r} has non-positive speed {self.speed_bps!r}"
            )


@dataclass(frozen=True)
class InterfaceRef:
    """A (node, interface) endpoint reference, e.g. ``S1.eth0``."""

    node: str
    interface: str

    def __str__(self) -> str:
        return f"{self.node}.{self.interface}"


@dataclass
class NodeSpec:
    """A host or network device."""

    name: str
    kind: DeviceKind = DeviceKind.HOST
    interfaces: List[InterfaceSpec] = field(default_factory=list)
    os_label: str = "generic"
    snmp_enabled: bool = False
    snmp_community: str = "public"
    # Free-form attributes from the spec file (locations, roles...).
    attributes: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("node needs a name")
        seen = set()
        for iface in self.interfaces:
            if iface.local_name in seen:
                raise TopologyError(
                    f"duplicate interface {iface.local_name!r} on node {self.name!r}"
                )
            seen.add(iface.local_name)

    def interface(self, local_name: str) -> InterfaceSpec:
        for iface in self.interfaces:
            if iface.local_name == local_name:
                return iface
        raise TopologyError(f"node {self.name!r} has no interface {local_name!r}")

    @property
    def is_device(self) -> bool:
        return self.kind in (DeviceKind.SWITCH, DeviceKind.HUB)

    @property
    def stp_enabled(self) -> bool:
        """Does this switch declare spanning tree (``stp "on"``)?"""
        return (
            self.kind is DeviceKind.SWITCH
            and self.attributes.get("stp", "").lower() in ("on", "true", "yes", "1")
        )


@dataclass
class ConnectionSpec:
    """A 1-to-1 physical connection between two interface endpoints.

    The paper: "A network connection is specified as a pair of interfaces
    that are physically connected to each other.  In this model, the
    connection must be 1-to-1."
    """

    end_a: InterfaceRef
    end_b: InterfaceRef
    bandwidth_bps: Optional[float] = None  # None: min of the endpoint speeds

    def __post_init__(self) -> None:
        if self.end_a == self.end_b:
            raise TopologyError(f"connection joins {self.end_a} to itself")
        if self.end_a.node == self.end_b.node:
            raise TopologyError(
                f"connection joins two interfaces of the same node {self.end_a.node!r}"
            )
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise TopologyError(f"non-positive connection bandwidth {self.bandwidth_bps!r}")

    def endpoints(self) -> Tuple[InterfaceRef, InterfaceRef]:
        return (self.end_a, self.end_b)

    def touches(self, node: str) -> bool:
        return self.end_a.node == node or self.end_b.node == node

    def other_end(self, node: str) -> InterfaceRef:
        """The endpoint NOT on ``node``."""
        if self.end_a.node == node:
            return self.end_b
        if self.end_b.node == node:
            return self.end_a
        raise TopologyError(f"connection {self} does not touch node {node!r}")

    def __str__(self) -> str:
        return f"{self.end_a} <-> {self.end_b}"


@dataclass
class QosPathSpec:
    """A real-time communication path with QoS requirements.

    The DeSiDeRaTa middleware consumes monitor reports against these
    requirements (the paper's "network QoS specification").
    """

    name: str
    src: str
    dst: str
    min_available_bps: Optional[float] = None
    max_utilization: Optional[float] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TopologyError(f"QoS path {self.name!r} has identical endpoints")
        if self.min_available_bps is not None and self.min_available_bps < 0:
            raise TopologyError(f"negative min_available for path {self.name!r}")
        if self.max_utilization is not None and not 0 < self.max_utilization <= 1:
            raise TopologyError(
                f"max_utilization for path {self.name!r} must be in (0, 1]"
            )


@dataclass
class AppFlowSpec:
    """One declared data flow from an application to a peer application."""

    dst_app: str
    rate_bps: float  # bits/second, like every spec-language rate

    def __post_init__(self) -> None:
        if not self.dst_app:
            raise TopologyError("flow needs a destination application")
        if self.rate_bps <= 0:
            raise TopologyError(f"non-positive flow rate {self.rate_bps!r}")


@dataclass
class ApplicationSpec:
    """A real-time application and its initial placement.

    DeSiDeRaTa's specification language describes "all the software
    applications under its control"; the network extension reduces an
    application to what the network monitor needs: where it runs and what
    it sends to whom.
    """

    name: str
    host: str
    flows: List[AppFlowSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("application needs a name")
        if not self.host:
            raise TopologyError(f"application {self.name!r} needs a host placement")
        seen = set()
        for flow in self.flows:
            if flow.dst_app == self.name:
                raise TopologyError(f"application {self.name!r} sends to itself")
            if flow.dst_app in seen:
                raise TopologyError(
                    f"application {self.name!r} declares two flows to "
                    f"{flow.dst_app!r}"
                )
            seen.add(flow.dst_app)


@dataclass
class TopologySpec:
    """The complete declarative topology (paper's ``NetworkTopology``)."""

    name: str = "network"
    nodes: List[NodeSpec] = field(default_factory=list)
    connections: List[ConnectionSpec] = field(default_factory=list)
    qos_paths: List[QosPathSpec] = field(default_factory=list)
    applications: List[ApplicationSpec] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise TopologyError(f"no node named {name!r}")

    def has_node(self, name: str) -> bool:
        return any(node.name == name for node in self.nodes)

    def hosts(self) -> List[NodeSpec]:
        return [n for n in self.nodes if n.kind == DeviceKind.HOST]

    def devices(self) -> List[NodeSpec]:
        return [n for n in self.nodes if n.is_device]

    def connections_of(self, node_name: str) -> List[ConnectionSpec]:
        return [c for c in self.connections if c.touches(node_name)]

    def effective_bandwidth(self, conn: ConnectionSpec) -> float:
        """Connection bandwidth: explicit, else min of endpoint speeds."""
        if conn.bandwidth_bps is not None:
            return conn.bandwidth_bps
        speed_a = self.node(conn.end_a.node).interface(conn.end_a.interface).speed_bps
        speed_b = self.node(conn.end_b.node).interface(conn.end_b.interface).speed_bps
        return min(speed_a, speed_b)

    def application(self, name: str) -> ApplicationSpec:
        for app in self.applications:
            if app.name == name:
                return app
        raise TopologyError(f"no application named {name!r}")
