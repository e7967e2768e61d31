"""Parameterized scale topologies beyond the paper's 9-host testbed.

:func:`scale_spec` generates a k-switch tree with m hosts per switch and
optional hub pockets -- the shape a campus deployment of the paper's
monitor would face: switched access layers chained toward a root, with a
few legacy shared-medium (hub) segments hanging off the edge.  The
generated specs drive the perf ledger's campus and mesh workloads
(``bench/``), the 1000-host scale gate and any test that needs a
topology bigger than the testbed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.topology.model import (
    ConnectionSpec,
    DeviceKind,
    InterfaceRef,
    InterfaceSpec,
    NodeSpec,
    TopologySpec,
)

SWITCH_SPEED_BPS = 100e6  # fast-ethernet access layer, as in the paper
HUB_SPEED_BPS = 10e6  # the paper's hubs are 10Base-T


def scale_spec(
    switches: int = 4,
    hosts_per_switch: int = 12,
    arity: int = 2,
    hub_pockets: int = 0,
    hub_hosts: int = 3,
    redundant_uplinks: int = 0,
    name: Optional[str] = None,
    hierarchical: int = 0,
    host_agents: bool = True,
) -> TopologySpec:
    """A k-switch tree with ``m`` hosts per switch and hub pockets.

    ``switches`` switches form a tree: switch ``i`` (i > 0) uplinks to
    switch ``(i - 1) // arity``, so ``arity=1`` yields a deep chain (the
    traversal worst case) and larger arities shallow fan-outs.  Every
    switch carries ``hosts_per_switch`` SNMP-enabled hosts.  The first
    ``hub_pockets`` switches additionally hang a 10 Mb/s hub with
    ``hub_hosts`` hosts off one port -- the paper's shared-medium case,
    exercising the hub sum rule at scale.

    ``redundant_uplinks`` adds that many *extra* parallel uplinks from
    every non-root switch to its parent -- a deliberately loopy mesh.
    Any value > 0 also turns spanning tree on (``stp "on"``) on every
    switch, so the loops are survivable: one uplink per pair forwards,
    the spares block until a failover (see :mod:`repro.simnet.stp`).

    ``hierarchical`` > 0 switches to the two-tier campus shape the
    hierarchical monitor (:mod:`repro.core.hierarchy`) is built for:
    that many *pods*, each an independent ``switches``-deep tree of
    ``hosts_per_switch``-host switches, joined by a core switch.  Each
    pod also carries a dedicated (SNMP-silent) coordinator host
    ``mon<p>`` on its root switch, and the core carries ``monroot`` --
    :func:`hierarchy_plan` names them.  Incompatible with hub pockets
    and redundant uplinks.

    ``host_agents=False`` disables SNMP on every end host, so counter
    sources resolve to the switch ports instead: the realistic 10k-host
    posture where the monitor polls a few hundred many-interface switch
    agents rather than every workstation.

    Node names are public -- workloads, the CLI and :func:`hierarchy_plan`
    spell them: switch ``s`` is ``[p<p>]sw<s>``, host ``h`` on it is
    ``[p<p>]h<s>_<h>`` (the ``p<p>`` prefix only inside pod ``p``), host
    ``h`` on hub pocket ``p`` is ``n<p>_<h>`` on ``hub<p>``, and the
    coordinator hosts are ``mon<p>`` and ``monroot`` on switch ``core``.
    """
    if switches < 1:
        raise ValueError(f"need at least one switch, got {switches!r}")
    if hosts_per_switch < 1:
        raise ValueError(f"need at least one host per switch, got {hosts_per_switch!r}")
    if arity < 1:
        raise ValueError(f"tree arity must be >= 1, got {arity!r}")
    if hub_pockets < 0:
        raise ValueError(f"hub_pockets must be >= 0, got {hub_pockets!r}")
    if hub_pockets > switches:
        raise ValueError(
            f"cannot attach {hub_pockets} hub pocket(s) to {switches} switch(es)"
        )
    if hub_hosts < 1:
        raise ValueError(f"hub_hosts must be >= 1, got {hub_hosts!r}")
    if redundant_uplinks < 0:
        raise ValueError(
            f"redundant_uplinks must be >= 0, got {redundant_uplinks!r}"
        )
    if hierarchical < 0:
        raise ValueError(f"hierarchical must be >= 0, got {hierarchical!r}")
    if hierarchical and (hub_pockets or redundant_uplinks):
        raise ValueError(
            "hierarchical pods cannot combine with hub_pockets or redundant_uplinks"
        )
    nodes: List[NodeSpec] = []
    connections: List[ConnectionSpec] = []
    shape = dict(
        switches=switches, hosts_per_switch=hosts_per_switch, arity=arity,
        host_agents=host_agents,
    )
    if hierarchical:
        # Core: one uplink per pod plus the root monitor host.
        nodes.append(_switch("core", hierarchical + 1))
        nodes.append(_host("monroot", snmp_enabled=False))
        connections.append(_wire("monroot", "eth0", "core", "port1"))
        for p in range(hierarchical):
            root = f"p{p}sw0"
            # The pod root also carries the coordinator host and the core uplink.
            take_port = _tree(nodes, connections, f"p{p}", **shape, spare=[2])
            nodes.append(_host(f"mon{p}", snmp_enabled=False))
            connections.append(_wire(f"mon{p}", "eth0", root, take_port(root)))
            connections.append(_wire(root, take_port(root), "core", f"port{p + 2}"))
        label = f"hier-{hierarchical}pod-{switches}sw-{hosts_per_switch}h"
        return TopologySpec(name or label, nodes, connections)
    take_port = _tree(
        nodes, connections, "", **shape,
        uplinks=1 + redundant_uplinks,
        stp=bool(redundant_uplinks),
        spare=[1] * hub_pockets,
    )
    for p in range(hub_pockets):
        hub = f"hub{p}"
        nodes.append(
            NodeSpec(
                hub,
                kind=DeviceKind.HUB,
                interfaces=[
                    InterfaceSpec(f"port{i + 1}", speed_bps=HUB_SPEED_BPS)
                    for i in range(hub_hosts + 1)
                ],
            )
        )
        connections.append(_wire(hub, "port1", f"sw{p}", take_port(f"sw{p}")))
        for h in range(hub_hosts):
            nodes.append(_host(f"n{p}_{h}", snmp_enabled=True, speed_bps=HUB_SPEED_BPS))
            connections.append(_wire(f"n{p}_{h}", "eth0", hub, f"port{h + 2}"))
    label = name or (
        f"scale-{switches}sw-{hosts_per_switch}h"
        + (f"-{hub_pockets}hub" if hub_pockets else "")
        + (f"-{redundant_uplinks}r" if redundant_uplinks else "")
    )
    return TopologySpec(label, nodes, connections)


def _tree(
    nodes: List[NodeSpec],
    connections: List[ConnectionSpec],
    prefix: str,
    switches: int,
    hosts_per_switch: int,
    arity: int,
    host_agents: bool,
    uplinks: int = 1,
    stp: bool = False,
    spare: Sequence[int] = (),
) -> Callable[[str], str]:
    """Append one switch tree with its hosts and uplinks; return its port
    allocator, which hands out each switch's next free port.

    Switch ``s`` (s > 0) uplinks to switch ``(s - 1) // arity`` over
    ``uplinks`` parallel links; switch ``s`` keeps ``spare[s]`` free ports
    (when given) for the caller to wire.  Exact port counts matter -- a
    2000-switch chain must not allocate O(switches) ports per switch.
    """
    children = [0] * switches
    for s in range(1, switches):
        children[(s - 1) // arity] += 1
    for s in range(switches):
        ports = (
            hosts_per_switch
            + (uplinks if s > 0 else 0)
            + children[s] * uplinks
            + (spare[s] if s < len(spare) else 0)
        )
        nodes.append(_switch(f"{prefix}sw{s}", ports, stp))
    next_port: Dict[str, int] = {f"{prefix}sw{s}": 0 for s in range(switches)}

    def take_port(switch: str) -> str:
        port = next_port[switch]
        next_port[switch] = port + 1
        return f"port{port + 1}"

    for s in range(switches):
        switch = f"{prefix}sw{s}"
        for h in range(hosts_per_switch):
            host = f"{prefix}h{s}_{h}"
            nodes.append(_host(host, snmp_enabled=host_agents))
            connections.append(_wire(host, "eth0", switch, take_port(switch)))
    for s in range(1, switches):
        switch, parent = f"{prefix}sw{s}", f"{prefix}sw{(s - 1) // arity}"
        for _ in range(uplinks):
            connections.append(
                _wire(switch, take_port(switch), parent, take_port(parent))
            )
    return take_port


def _switch(name: str, ports: int, stp: bool = False) -> NodeSpec:
    return NodeSpec(
        name,
        kind=DeviceKind.SWITCH,
        interfaces=[
            InterfaceSpec(f"port{p + 1}", speed_bps=SWITCH_SPEED_BPS)
            for p in range(ports)
        ],
        snmp_enabled=True,
        attributes={"stp": "on"} if stp else {},
    )


def _host(
    name: str, snmp_enabled: bool, speed_bps: float = SWITCH_SPEED_BPS
) -> NodeSpec:
    return NodeSpec(
        name,
        interfaces=[InterfaceSpec("eth0", speed_bps=speed_bps)],
        snmp_enabled=snmp_enabled,
    )


def _wire(node_a: str, port_a: str, node_b: str, port_b: str) -> ConnectionSpec:
    return ConnectionSpec(InterfaceRef(node_a, port_a), InterfaceRef(node_b, port_b))


def hierarchy_plan(
    pods: int,
    switches: int = 4,
    hosts_per_switch: int = 12,
    workers_per_shard: int = 2,
) -> Dict[str, object]:
    """The monitoring-plane layout for a ``scale_spec(hierarchical=pods)``
    topology: who is root, who coordinates each shard, which hosts work
    for it, and which nodes belong to it (the root's affinity map).

    Returns ``{"root": name, "shards": {leaf: {"workers": [...],
    "members": [...]}}}``.  Workers are ordinary pod hosts; members list
    every node of the pod (used by the hierarchical monitor to give each
    shard its home targets).
    """
    if pods < 1:
        raise ValueError(f"pods must be >= 1, got {pods!r}")
    if workers_per_shard < 1:
        raise ValueError(f"workers_per_shard must be >= 1, got {workers_per_shard!r}")
    if workers_per_shard > switches * hosts_per_switch:
        raise ValueError(
            f"{workers_per_shard} workers need at least that many pod hosts"
        )
    shards: Dict[str, Dict[str, list]] = {}
    for p in range(pods):
        prefix = f"p{p}"
        hosts = [
            f"{prefix}h{s}_{h}"
            for s in range(switches)
            for h in range(hosts_per_switch)
        ]
        members = [f"{prefix}sw{s}" for s in range(switches)] + hosts + [f"mon{p}"]
        shards[f"mon{p}"] = {
            "workers": hosts[:workers_per_shard],
            "members": members,
        }
    return {"root": "monroot", "shards": shards}
