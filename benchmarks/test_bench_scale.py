"""Ablation: monitor cost vs topology size.

The paper's testbed has 9 hosts; a deployed RM system has hundreds.  This
bench grows a switched star and times (a) the paper's recursive path
traversal, (b) a full poll cycle issued by the monitor, and (c) the
distributed variant's partitioning -- quantifying how the design scales.
"""

import pytest

from repro.core.monitor import NetworkMonitor
from repro.core.traversal import find_path
from repro.spec.builder import build_network
from repro.topology.model import (
    ConnectionSpec,
    DeviceKind,
    InterfaceRef,
    InterfaceSpec,
    NodeSpec,
    TopologySpec,
)


def star_spec(n_hosts: int) -> TopologySpec:
    hosts = [
        NodeSpec(
            f"h{i}",
            interfaces=[InterfaceSpec("eth0")],
            snmp_enabled=(i % 2 == 0),  # half the hosts run agents
        )
        for i in range(n_hosts)
    ]
    switch = NodeSpec(
        "sw",
        kind=DeviceKind.SWITCH,
        interfaces=[InterfaceSpec(f"port{i + 1}") for i in range(n_hosts + 2)],
        snmp_enabled=True,
    )
    connections = [
        ConnectionSpec(InterfaceRef(f"h{i}", "eth0"), InterfaceRef("sw", f"port{i + 1}"))
        for i in range(n_hosts)
    ]
    return TopologySpec("star", hosts + [switch], connections)


@pytest.mark.parametrize("n_hosts", [10, 50, 200])
def test_bench_traversal_scales(benchmark, n_hosts):
    spec = star_spec(n_hosts)
    path = benchmark(find_path, spec, "h0", f"h{n_hosts - 1}")
    assert len(path) == 2


@pytest.mark.parametrize("n_hosts", [10, 50])
def test_bench_poll_cycle(benchmark, n_hosts):
    spec = star_spec(n_hosts)
    build = build_network(spec)
    monitor = NetworkMonitor(build, "h0", poll_interval=2.0, poll_jitter=0.0)
    net = build.network
    net.run(0.1)

    def one_cycle():
        before = monitor.manager.responses_received
        monitor.poller._poll_cycle()
        net.sim.run_until_idle()
        return monitor.manager.responses_received - before

    responses = benchmark(one_cycle)
    assert responses == len(monitor.poller.targets)


def test_bench_watch_many_paths(benchmark):
    spec = star_spec(50)
    build = build_network(spec)
    monitor = NetworkMonitor(build, "h0", poll_jitter=0.0)
    for i in range(1, 25):
        monitor.watch_path("h0", f"h{i}")
    monitor.start()
    build.network.run(6.0)  # two poll cycles so rates exist

    def emit():
        for label in monitor.watched_paths():
            monitor.current_report(label)
        return monitor.reports_emitted

    total = benchmark(emit)
    assert total >= 24
