"""Semantic validation of a parsed topology specification.

The spec language is the resource manager's source of truth ("the
middleware has to know exactly what resources are under its control"), so
mistakes here would silently corrupt every bandwidth measurement.  The
validator enforces the paper's structural rules and flags monitorability
gaps:

errors (the topology is unusable):
  - connection endpoints referencing unknown nodes/interfaces
  - an interface appearing in more than one connection (the 1-to-1 rule)
  - duplicate node names
  - QoS paths referencing unknown or non-host endpoints

warnings (usable but suspicious):
  - layer-2 loops where some switch does not run spanning tree (a loop
    whose switches all declare ``stp "on"`` is a legal redundant mesh)
  - disconnected nodes
  - connections where *neither* end is SNMP-observable (the monitor
    cannot measure them; in Fig. 3 every segment is observable from at
    least one side)
  - hosts with no connection at all
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.topology.graph import TopologyGraph
from repro.topology.model import DeviceKind, InterfaceRef, NodeSpec, TopologyError, TopologySpec


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


class SpecValidationError(TopologyError):
    """Raised by :func:`validate_spec` in strict mode when errors exist."""

    def __init__(self, issues: List[ValidationIssue]) -> None:
        errors = [i for i in issues if i.severity == "error"]
        super().__init__(
            "invalid topology specification:\n  " + "\n  ".join(str(i) for i in errors)
        )
        self.issues = issues


def validate_spec(spec: TopologySpec, strict: bool = True) -> List[ValidationIssue]:
    """Validate ``spec``; in strict mode raise if any *errors* were found.

    Returns the full issue list (errors + warnings) either way.  Nodes
    are looked up in one name map, built once: a name declared twice
    resolves to its first node, as :meth:`TopologySpec.node` does.
    """
    issues: List[ValidationIssue] = []
    nodes: Dict[str, NodeSpec] = {}
    for node in spec.nodes:
        nodes.setdefault(node.name, node)
    _check_duplicate_nodes(spec, issues)
    _check_connections(spec, nodes, issues)
    _check_qos_paths(spec, nodes, issues)
    _check_applications(spec, nodes, issues)
    if not any(i.severity == "error" for i in issues):
        _check_graph_shape(spec, issues)
        _check_observability(spec, nodes, issues)
    if strict and any(i.severity == "error" for i in issues):
        raise SpecValidationError(issues)
    return issues


def _error(issues: List[ValidationIssue], message: str) -> None:
    issues.append(ValidationIssue("error", message))


def _warning(issues: List[ValidationIssue], message: str) -> None:
    issues.append(ValidationIssue("warning", message))


def _check_duplicate_nodes(spec: TopologySpec, issues: List[ValidationIssue]) -> None:
    seen: Dict[str, int] = {}
    for node in spec.nodes:
        seen[node.name] = seen.get(node.name, 0) + 1
    for name, count in seen.items():
        if count > 1:
            _error(issues, f"node {name!r} declared {count} times")


def _check_connections(
    spec: TopologySpec, nodes: Dict[str, NodeSpec], issues: List[ValidationIssue]
) -> None:
    used: Dict[InterfaceRef, int] = {}
    for conn in spec.connections:
        for end in conn.endpoints():
            node = nodes.get(end.node)
            if node is None:
                _error(issues, f"connection {conn} references unknown node {end.node!r}")
                continue
            try:
                node.interface(end.interface)
            except TopologyError:
                _error(
                    issues,
                    f"connection {conn} references unknown interface "
                    f"{end.interface!r} on {end.node!r}",
                )
                continue
            used[end] = used.get(end, 0) + 1
    for end, count in used.items():
        if count > 1:
            _error(
                issues,
                f"interface {end} appears in {count} connections "
                "(the model requires 1-to-1 connections)",
            )


def _check_applications(
    spec: TopologySpec, nodes: Dict[str, NodeSpec], issues: List[ValidationIssue]
) -> None:
    seen = set()
    app_names = {app.name for app in spec.applications}
    for app in spec.applications:
        if app.name in seen:
            _error(issues, f"application {app.name!r} declared twice")
        seen.add(app.name)
        host = nodes.get(app.host)
        if host is None:
            _error(issues, f"application {app.name!r} placed on unknown host {app.host!r}")
        elif host.kind is not DeviceKind.HOST:
            _error(
                issues,
                f"application {app.name!r} placed on {app.host!r}, which is a "
                f"{host.kind.value}, not a host",
            )
        for flow in app.flows:
            if flow.dst_app not in app_names:
                _error(
                    issues,
                    f"application {app.name!r} sends to unknown application "
                    f"{flow.dst_app!r}",
                )


def _check_qos_paths(
    spec: TopologySpec, nodes: Dict[str, NodeSpec], issues: List[ValidationIssue]
) -> None:
    for path in spec.qos_paths:
        for endpoint in (path.src, path.dst):
            node = nodes.get(endpoint)
            if node is None:
                _error(issues, f"QoS path {path.name!r} references unknown node {endpoint!r}")
            elif node.kind is not DeviceKind.HOST:
                _error(
                    issues,
                    f"QoS path {path.name!r} endpoint {endpoint!r} is a "
                    f"{node.kind.value}, not a host",
                )


def _check_graph_shape(spec: TopologySpec, issues: List[ValidationIssue]) -> None:
    graph = TopologyGraph(spec)
    if graph.has_cycle():
        switches = [n for n in spec.nodes if n.kind is DeviceKind.SWITCH]
        non_stp = sorted(n.name for n in switches if not n.stp_enabled)
        if non_stp:
            _warning(
                issues,
                "topology contains a layer-2 loop and switch(es) "
                f"{', '.join(non_stp)} do not run spanning-tree "
                '(declare ``stp "on"``), so frames may circulate',
            )
    connected = [n.name for n in spec.nodes if graph.degree(n.name) > 0]
    for node in spec.nodes:
        if graph.degree(node.name) == 0:
            _warning(issues, f"node {node.name!r} has no connections")
    if connected and not graph.is_connected():
        reachable = graph.reachable_from(connected[0])
        stranded = sorted(set(n.name for n in spec.nodes) - reachable)
        _warning(issues, f"topology is not connected; unreachable from "
                         f"{connected[0]!r}: {', '.join(stranded)}")


def _check_observability(
    spec: TopologySpec, nodes: Dict[str, NodeSpec], issues: List[ValidationIssue]
) -> None:
    """Every connection should be measurable from at least one end.

    The paper monitors S4<->S5 without SNMP on either host "by polling
    the interfaces on the switch that are connected to S4 and S5" -- i.e.
    a connection is observable when either endpoint node runs SNMP.
    Hubs never run SNMP, so a host-hub segment needs the host side.
    """
    for conn in spec.connections:
        observable = any(nodes[end.node].snmp_enabled for end in conn.endpoints())
        if not observable:
            _warning(
                issues,
                f"connection {conn} has no SNMP-enabled endpoint; the monitor "
                "cannot measure its traffic",
            )
