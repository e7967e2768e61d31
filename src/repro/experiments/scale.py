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

from typing import Dict, Optional

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
    """
    if switches < 1:
        raise ValueError(f"need at least one switch, got {switches!r}")
    if hosts_per_switch < 1:
        raise ValueError(f"need at least one host per switch, got {hosts_per_switch!r}")
    if arity < 1:
        raise ValueError(f"tree arity must be >= 1, got {arity!r}")
    if hub_pockets > switches:
        raise ValueError(
            f"cannot attach {hub_pockets} hub pocket(s) to {switches} switch(es)"
        )
    if redundant_uplinks < 0:
        raise ValueError(
            f"redundant_uplinks must be >= 0, got {redundant_uplinks!r}"
        )
    if hierarchical:
        if hierarchical < 1:
            raise ValueError(f"hierarchical must be >= 0, got {hierarchical!r}")
        if hub_pockets or redundant_uplinks:
            raise ValueError(
                "hierarchical pods cannot combine with hub_pockets or "
                "redundant_uplinks"
            )
        return _hierarchical_spec(
            pods=hierarchical,
            switches=switches,
            hosts_per_switch=hosts_per_switch,
            arity=arity,
            host_agents=host_agents,
            name=name,
        )
    nodes = []
    connections = []
    # Ports per switch: hosts + uplink(s) + child uplinks + hub (maybe).
    # Exact counts matter -- a 2000-switch chain must not allocate
    # O(switches) ports per switch.
    uplinks_each = 1 + redundant_uplinks
    children = [0] * switches
    for s in range(1, switches):
        children[(s - 1) // arity] += 1
    for s in range(switches):
        ports = (
            hosts_per_switch
            + (uplinks_each if s > 0 else 0)
            + children[s] * uplinks_each
            + (1 if s < hub_pockets else 0)
        )
        nodes.append(
            NodeSpec(
                f"sw{s}",
                kind=DeviceKind.SWITCH,
                interfaces=[
                    InterfaceSpec(f"port{p + 1}", speed_bps=SWITCH_SPEED_BPS)
                    for p in range(ports)
                ],
                snmp_enabled=True,
                attributes={"stp": "on"} if redundant_uplinks else {},
            )
        )
    next_port: Dict[str, int] = {f"sw{s}": 0 for s in range(switches)}

    def take_port(switch: str) -> str:
        port = next_port[switch]
        next_port[switch] = port + 1
        return f"port{port + 1}"

    for s in range(switches):
        for h in range(hosts_per_switch):
            host = f"h{s}_{h}"
            nodes.append(
                NodeSpec(
                    host,
                    interfaces=[InterfaceSpec("eth0", speed_bps=SWITCH_SPEED_BPS)],
                    snmp_enabled=host_agents,
                )
            )
            connections.append(
                ConnectionSpec(
                    InterfaceRef(host, "eth0"),
                    InterfaceRef(f"sw{s}", take_port(f"sw{s}")),
                )
            )
    for s in range(1, switches):
        parent = f"sw{(s - 1) // arity}"
        for _ in range(uplinks_each):
            connections.append(
                ConnectionSpec(
                    InterfaceRef(f"sw{s}", take_port(f"sw{s}")),
                    InterfaceRef(parent, take_port(parent)),
                )
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
        connections.append(
            ConnectionSpec(
                InterfaceRef(hub, "port1"),
                InterfaceRef(f"sw{p}", take_port(f"sw{p}")),
            )
        )
        for h in range(hub_hosts):
            host = f"n{p}_{h}"
            nodes.append(
                NodeSpec(
                    host,
                    interfaces=[InterfaceSpec("eth0", speed_bps=HUB_SPEED_BPS)],
                    snmp_enabled=True,
                )
            )
            connections.append(
                ConnectionSpec(
                    InterfaceRef(host, "eth0"),
                    InterfaceRef(hub, f"port{h + 2}"),
                )
            )
    label = name or (
        f"scale-{switches}sw-{hosts_per_switch}h"
        + (f"-{hub_pockets}hub" if hub_pockets else "")
        + (f"-{redundant_uplinks}r" if redundant_uplinks else "")
    )
    return TopologySpec(label, nodes, connections)


def _hierarchical_spec(
    pods: int,
    switches: int,
    hosts_per_switch: int,
    arity: int,
    host_agents: bool,
    name: Optional[str],
) -> TopologySpec:
    """Two-tier pod topology; see :func:`scale_spec` (``hierarchical=``)."""
    nodes = []
    connections = []
    # Core: one uplink per pod plus the root monitor host.
    nodes.append(
        NodeSpec(
            "core",
            kind=DeviceKind.SWITCH,
            interfaces=[
                InterfaceSpec(f"port{p + 1}", speed_bps=SWITCH_SPEED_BPS)
                for p in range(pods + 1)
            ],
            snmp_enabled=True,
        )
    )
    nodes.append(
        NodeSpec(
            "monroot",
            interfaces=[InterfaceSpec("eth0", speed_bps=SWITCH_SPEED_BPS)],
            snmp_enabled=False,
        )
    )
    connections.append(
        ConnectionSpec(InterfaceRef("monroot", "eth0"), InterfaceRef("core", "port1"))
    )
    children = [0] * switches
    for s in range(1, switches):
        children[(s - 1) // arity] += 1
    for p in range(pods):
        prefix = f"p{p}"
        next_port: Dict[str, int] = {}

        def take_port(switch: str) -> str:
            port = next_port.get(switch, 0)
            next_port[switch] = port + 1
            return f"port{port + 1}"

        for s in range(switches):
            ports = (
                hosts_per_switch
                + (1 if s > 0 else 0)  # uplink to parent within the pod
                + children[s]
                # The pod root additionally carries the core uplink and
                # the pod's coordinator host.
                + (2 if s == 0 else 0)
            )
            nodes.append(
                NodeSpec(
                    f"{prefix}sw{s}",
                    kind=DeviceKind.SWITCH,
                    interfaces=[
                        InterfaceSpec(f"port{q + 1}", speed_bps=SWITCH_SPEED_BPS)
                        for q in range(ports)
                    ],
                    snmp_enabled=True,
                )
            )
        for s in range(switches):
            for h in range(hosts_per_switch):
                host = f"{prefix}h{s}_{h}"
                nodes.append(
                    NodeSpec(
                        host,
                        interfaces=[InterfaceSpec("eth0", speed_bps=SWITCH_SPEED_BPS)],
                        snmp_enabled=host_agents,
                    )
                )
                connections.append(
                    ConnectionSpec(
                        InterfaceRef(host, "eth0"),
                        InterfaceRef(f"{prefix}sw{s}", take_port(f"{prefix}sw{s}")),
                    )
                )
        for s in range(1, switches):
            parent = f"{prefix}sw{(s - 1) // arity}"
            connections.append(
                ConnectionSpec(
                    InterfaceRef(f"{prefix}sw{s}", take_port(f"{prefix}sw{s}")),
                    InterfaceRef(parent, take_port(parent)),
                )
            )
        # Pod coordinator host and the uplink into the core.
        mon = f"mon{p}"
        nodes.append(
            NodeSpec(
                mon,
                interfaces=[InterfaceSpec("eth0", speed_bps=SWITCH_SPEED_BPS)],
                snmp_enabled=False,
            )
        )
        connections.append(
            ConnectionSpec(
                InterfaceRef(mon, "eth0"),
                InterfaceRef(f"{prefix}sw0", take_port(f"{prefix}sw0")),
            )
        )
        connections.append(
            ConnectionSpec(
                InterfaceRef(f"{prefix}sw0", take_port(f"{prefix}sw0")),
                InterfaceRef("core", f"port{p + 2}"),
            )
        )
    label = name or f"hier-{pods}pod-{switches}sw-{hosts_per_switch}h"
    return TopologySpec(label, nodes, connections)


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
