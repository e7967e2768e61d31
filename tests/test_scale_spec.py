"""The generated campus specs: pinned, and checked at the call.

Every ledger workload, the 1000-host scale gate and the CLI's coordinator
tree stand on a :func:`scale_spec` topology.  Node order fixes addresses
and agent seeds, so a spec that differs in any node, interface, attribute
or connection -- or only in their order -- moves every report.  Each pin
below is a sha256 over a canonical form built from strings, floats,
booleans and ``None`` only, so it reads the same on every Python.
"""

import hashlib
import json

import pytest

from repro.experiments.scale import hierarchy_plan, scale_spec


def canonical(spec):
    """The spec as plain data, in its own order."""
    return [
        spec.name,
        [
            [
                node.name,
                node.kind.value,
                node.snmp_enabled,
                sorted(node.attributes.items()),
                [(iface.local_name, iface.speed_bps) for iface in node.interfaces],
            ]
            for node in spec.nodes
        ],
        [
            (str(conn.end_a), str(conn.end_b), conn.bandwidth_bps)
            for conn in spec.connections
        ],
    ]


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


#: (shape, sha256 of its canonical form), each computed before the pods
#: were built by the flat campus's tree builder.
SPEC_PINS = {
    "campus workloads": (
        dict(hierarchical=4, switches=5, hosts_per_switch=15, host_agents=False),
        "f1412f188f8758779372f86ca2f600a2a119ec1be67fca18f493f956c07e7244",
    ),
    "mesh_flat": (
        dict(switches=6, hosts_per_switch=6, arity=1, redundant_uplinks=1),
        "54984f4f2d6257bbc94ff4951b792451bc2c40d548018aae5fca10cca4db84b0",
    ),
    "scale gate": (
        dict(hierarchical=4, switches=5, hosts_per_switch=50, host_agents=False),
        "720df717985c886f41d3df7418e16381bec08638e3f262bf7d25cb509965743b",
    ),
    "hub pockets": (
        dict(switches=7, hosts_per_switch=3, arity=2, hub_pockets=2, hub_hosts=3),
        "a7943bd45e05b310bc67656a953677b6c2e484c56803500a79cdb11bf6fee480",
    ),
    "cli default": (
        dict(hierarchical=2, switches=2, hosts_per_switch=4, host_agents=False),
        "e69e762ac10fb24f3599e4217dd6af372a681cedaa406d2e0c04e7ac3a911fa7",
    ),
    "deep chain": (
        dict(switches=1200, hosts_per_switch=1, arity=1),
        "45317c6d56a4d190241981727a221111cbcd146911f8c324c286c2d061ff85a9",
    ),
}

#: The campus workloads' monitoring plane.
PLAN_PIN = "b74afa5993fdcf7b43d9995cf31e5b24f14420c3578440b8075130cb89d5dca7"


@pytest.mark.parametrize("shape, pin", SPEC_PINS.values(), ids=list(SPEC_PINS))
def test_the_generated_spec_is_pinned(shape, pin):
    assert digest(canonical(scale_spec(**shape))) == pin


def test_the_campus_plan_is_pinned():
    assert digest(hierarchy_plan(4, switches=5, hosts_per_switch=15)) == PLAN_PIN


class TestShapeArgumentsAreCheckedAtTheCall:
    @pytest.mark.parametrize("shape, message", [
        (dict(switches=0), "at least one switch"),
        (dict(hosts_per_switch=0), "at least one host per switch"),
        (dict(arity=0), "arity"),
        (dict(switches=2, hub_pockets=3), "cannot attach 3 hub pocket"),
        (dict(hub_pockets=-1), "hub_pockets must be >= 0"),
        (dict(hub_pockets=1, hub_hosts=0), "hub_hosts must be >= 1"),
        (dict(hub_pockets=1, hub_hosts=-1), "hub_hosts must be >= 1"),
        (dict(redundant_uplinks=-1), "redundant_uplinks must be >= 0"),
        (dict(hierarchical=-1), "hierarchical must be >= 0"),
        (dict(hierarchical=2, hub_pockets=1), "cannot combine"),
        (dict(hierarchical=2, redundant_uplinks=1), "cannot combine"),
    ])
    def test_scale_spec_rejects(self, shape, message):
        with pytest.raises(ValueError, match=message):
            scale_spec(**shape)

    @pytest.mark.parametrize("pods, shape, message", [
        (0, {}, "pods must be >= 1"),
        (-1, {}, "pods must be >= 1"),
        (2, dict(workers_per_shard=0), "workers_per_shard must be >= 1"),
        (2, dict(switches=1, hosts_per_switch=2, workers_per_shard=3),
         "3 workers need at least that many pod hosts"),
    ])
    def test_hierarchy_plan_rejects(self, pods, shape, message):
        with pytest.raises(ValueError, match=message):
            hierarchy_plan(pods, **shape)
