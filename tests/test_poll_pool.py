"""The tree planes poll what their watches read.

A :class:`~repro.core.distributed.DistributedMonitor` (and through it a
:class:`~repro.core.hierarchy.HierarchicalMonitor`) given no ``targets``
derives its poll-target pool from its watched connections with
:func:`~repro.core.counters.required_poll_targets`, and re-derives it
when a watch comes, goes or is rerouted.  Held here: the interfaces the
workers' pollers poll are exactly that derivation, at both tree levels;
a watch made before ``start()`` settles the pool with no control
datagram; an interface that leaves the pool leaves the root's rate table
and integrity state; and a pool change that only adds an interface on an
agent already polled reaches the worker that polls it.  Watch traffic
is no lease recovery, and reallocation advice ranks no host whose path
crosses a connection the plane never samples.  What a watch costs the
monitoring hosts follows how many ports it polls, not where they sit.
"""

import pytest

from repro.core.counters import required_poll_targets
from repro.core.distributed import DistributedMonitor
from repro.core.hierarchy import HierarchicalMonitor, LeafCoordinator
from repro.core.poller import PollTarget
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.experiments.testbed import build_testbed
from repro.rm.middleware import RmMiddleware
from repro.rm.qos import QosRequirement
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.telemetry.events import WORKER_REBALANCE
from tests.test_hierarchy import PARITY_PLAN, PARITY_SPEC

#: The testbed as a tree: leaves on agentless hosts, one worker each.
TESTBED_PLAN = {
    "root": "L",
    "shards": {
        "S3": {"workers": ["S1"], "members": ["S1", "N1", "N2", "hub"]},
        "S4": {"workers": ["S2"], "members": ["S2", "L", "switch"]},
    },
}
PARITY_PLANES = {
    "distributed": lambda build: DistributedMonitor(
        build, "R", ["W1", "W2"], poll_jitter=0.0
    ),
    "hierarchical": lambda build: HierarchicalMonitor(
        build, PARITY_PLAN, poll_jitter=0.0
    ),
}
TESTBED_PLANES = {
    "distributed": lambda build, **pool: DistributedMonitor(
        build, "L", ["L", "S1", "S2"], poll_jitter=0.0, **pool
    ),
    "hierarchical": lambda build, **pool: HierarchicalMonitor(
        build, TESTBED_PLAN, poll_jitter=0.0, **pool
    ),
}


def pollers(plane):
    """Every polling worker's poller, through the leaves of a tree."""
    out = []
    for endpoint in plane.workers.values():
        if isinstance(endpoint, LeafCoordinator):
            out += [worker.poller for worker in endpoint.dm.workers.values()]
        else:
            out.append(endpoint.poller)
    return out


def polled(plane):
    """node -> ifIndexes, as the workers poll them (each node once)."""
    out = {}
    for poller in pollers(plane):
        for target in poller.targets:
            assert target.node not in out and target.if_indexes
            out[target.node] = list(target.if_indexes)
    return out


def needed(plane, *labels):
    """``required_poll_targets`` of the watched connections."""
    conns = [conn for label in labels for conn in plane.path_of(label)]
    return required_poll_targets(plane.spec, conns)


def keys(targets):
    return {(node, i) for node, indexes in targets.items() for i in indexes}


@pytest.mark.parametrize("name", sorted(PARITY_PLANES))
def test_watching_unwatching_and_rerouting_move_the_polled_set(name):
    build = build_network(parse_spec(PARITY_SPEC))
    net = build.network
    plane = PARITY_PLANES[name](build)
    assert polled(plane) == {}
    ab = plane.watch_path("A", "B")
    assert polled(plane) == needed(plane, ab)
    # Settled before start, locally: no endpoint was sent an assignment.
    assert all(endpoint.assign_version == 1 for endpoint in plane.workers.values())
    net.announce_hosts(at=2.0)
    plane.start(at=2.5)
    net.run(10.0)

    def one_cycle():
        net.run(net.now + plane.poll_interval)

    spare = plane.watch_path("B", "A", name="spare")  # the same connections
    one_cycle()
    assert polled(plane) == needed(plane, ab)
    extra = plane.watch_path("W1", "W2")  # adds a port on each switch
    one_cycle()
    assert polled(plane) == needed(plane, ab, extra)
    assert keys(needed(plane, ab, extra)) > keys(needed(plane, ab))
    assert plane.rates.latest("sw1", 2) is not None
    plane.unwatch_path(extra)
    one_cycle()
    assert polled(plane) == needed(plane, ab)
    # What left the pool left the root: rate table, integrity, admission.
    pool = keys(needed(plane, ab))
    assert set(plane.rates.keys()) <= pool
    assert set(plane.integrity.speeds) == pool and plane._pool == pool

    # Reroute: the active uplink is blocked, the watch moves to the other.
    uplinks = [
        conn for conn in plane.spec.connections
        if {conn.end_a.node, conn.end_b.node} == {"sw1", "sw2"}
    ]
    active = next(conn for conn in uplinks if conn in plane.path_of(ab))
    plane.graph.set_blocked([active])
    plane.current_report(ab)
    assert active not in plane.path_of(ab)
    # The root's pool moved at once (the spare, not re-resolved yet, still
    # reads the old uplink); the workers apply it when it reaches them.
    assert {t.node: t.if_indexes for t in plane.targets} == needed(plane, ab, spare)
    one_cycle()  # its report cycle re-resolves the other watch too
    assert plane.stats()["path_reroutes"] == 2.0
    assert polled(plane) == needed(plane, ab) == needed(plane, spare)
    plane.unwatch_path(spare)
    plane.unwatch_path(ab)
    one_cycle()
    assert polled(plane) == {} and len(plane.rates) == 0
    plane.stop()


@pytest.mark.parametrize("name", sorted(TESTBED_PLANES))
def test_a_hub_connection_polls_every_leg(name):
    """S1 -> N1 crosses the hub: the hub rule sums N1's and N2's legs, so
    both are polled though N2 is on no watched path."""
    build = build_testbed()
    plane = TESTBED_PLANES[name](build)
    label = plane.watch_path("S1", "N1")
    assert polled(plane) == needed(plane, label) == {
        "N1": [1], "N2": [1], "S1": [1], "switch": [8],
    }
    plane.enable_streaming()  # the all-pairs matrix reads every connection
    assert keys(polled(plane)) == keys(
        required_poll_targets(plane.spec, list(plane.spec.connections))
    )


@pytest.mark.parametrize("name", sorted(TESTBED_PLANES))
def test_an_added_interface_on_a_polled_agent_is_shipped(name):
    """A pool change that only adds an ifIndex on an agent already polled
    reaches the worker polling it (and, on the tree, the leaf over it)
    within one cycle: an assignment is compared node and interfaces."""
    build = build_testbed()
    address = build.network.ip_of("switch")
    plane = TESTBED_PLANES[name](build, targets=[PollTarget("switch", address, [2])])
    plane.start()
    build.network.run(5.0)
    assert polled(plane) == {"switch": [2]}
    plane.set_target_pool([PollTarget("switch", address, [2, 3])])
    build.network.run(5.0 + plane.poll_interval)
    assert polled(plane) == {"switch": [2, 3]}
    for endpoint in plane.workers.values():
        if isinstance(endpoint, LeafCoordinator) and endpoint.dm.targets:
            assert [t.if_indexes for t in endpoint.dm.targets] == [[2, 3]]
    build.network.run(5.0 + 2 * plane.poll_interval)
    assert plane.rates.latest("switch", 3) is not None
    plane.stop()


@pytest.mark.parametrize("name", sorted(PARITY_PLANES))
def test_watch_traffic_is_no_rebalance(name):
    """A pool moved by a watch ships assignments, but ``rebalances``
    counts lease recoveries only and no WORKER_REBALANCE is published."""
    build = build_network(parse_spec(PARITY_SPEC))
    net = build.network
    plane = PARITY_PLANES[name](build)
    ab = plane.watch_path("A", "B")
    extra = plane.watch_path("W1", "W2")
    net.announce_hosts(at=2.0)
    plane.start(at=2.5)
    net.run(10.0)
    plane.unwatch_path(extra)
    net.run(10.0 + plane.poll_interval)
    assert polled(plane) == needed(plane, ab)
    assert plane.stats()["rebalances"] == 0
    assert plane.telemetry.events.count(WORKER_REBALANCE) == 0
    plane.stop()


@pytest.mark.parametrize("name", sorted(TESTBED_PLANES))
def test_advice_ranks_only_hosts_over_sampled_connections(name):
    """The hub saturates under L's load: the S1 -> N1 requirement is
    violated and advice is drawn up.  L's link carries that load but is
    on no watched path, so it is never polled; read as idle it would rank
    L (and the agentless S3..S6 behind unpolled switch ports) first.
    Only S2, whose link a watch polls, is advised."""
    build = build_testbed()
    net = build.network
    plane = TESTBED_PLANES[name](build)
    requirement = QosRequirement("hub", "S1", "N1", min_available_bps=600_000)
    rm = RmMiddleware(plane, [requirement])
    plane.watch_path("S1", "S2")
    StaircaseLoad(
        net.host("L"), net.ip_of("N1"), StepSchedule.pulse(10.0, 40.0, 900_000.0)
    ).start()
    plane.start()
    net.run(30.0)
    assert ("L", 1) not in keys(polled(plane))
    violations = rm.violations()
    assert violations
    for action in violations:
        assert [a.host for a in action.advice] == ["S2"]
        for advice in action.advice:
            assert all(m.sample_time is not None for m in advice.report.connections)
    plane.stop()


def test_what_a_watch_costs_does_not_depend_on_where_its_ports_sit():
    """Each watch below polls one host port and one uplink on the same
    two switches; only the host port moves.  A GetBulk walk from the
    lowest polled ifIndex to the highest would read every port between,
    so the farther the port from the uplink the more bytes (the walk read
    64 380 octets in ten cycles at port 1, 54 080 at port 6).  The
    monitoring hosts move the same bytes wherever the port sits."""
    shape = dict(switches=2, hosts_per_switch=8)
    costs = {}
    for host in (0, 2, 5):
        build = build_network(
            scale_spec(hierarchical=2, host_agents=False, **shape), agent_seed=0
        )
        plan = hierarchy_plan(2, **shape)
        plane = HierarchicalMonitor(build, plan, poll_jitter=0.0)
        plane.watch_path(f"p0h1_{host}", f"p1h1_{host}")
        plane.start()
        net = build.network
        monitoring = [plan["root"], *plan["shards"]] + [
            worker for shard in plan["shards"].values() for worker in shard["workers"]
        ]

        def octets():
            return sum(
                i.counters.in_octets + i.counters.out_octets
                for name in monitoring
                for i in net.host(name).interfaces
            )

        net.run(7.0)
        before = octets()
        net.run(7.0 + 10 * plane.poll_interval)
        costs[host] = octets() - before
        assert len(polled(plane)["p0sw1"]) == 2  # the host port and the uplink
        plane.stop()
    assert max(costs.values()) <= 1.01 * min(costs.values()), costs
