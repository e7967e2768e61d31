"""Benchmarks for the future-work extensions (paper §5).

Quantifies what each extension costs and verifies its headline behaviour:

- all-pairs matrix computation over the Figure-3 testbed;
- SNMP topology discovery end to end;
- distributed monitoring vs the single monitor (same answer, spread load);
- the closed adaptation loop's reaction time.
"""

import pytest

from repro.core.distributed import DistributedMonitor
from repro.core.matrix import BandwidthMatrix
from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import TESTBED_SPEC_TEXT, build_testbed
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule


def test_bench_matrix_snapshot(benchmark):
    build = build_testbed()
    monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
    monitor.start()
    build.network.run(6.0)
    matrix = BandwidthMatrix(build.spec, monitor.calculator)
    snap = benchmark(matrix.snapshot, 6.0)
    assert len(snap.reports) == 36  # 9 choose 2
    assert snap.worst_pair() is not None


def test_bench_discovery_end_to_end(benchmark):
    from repro.core.discovery import TopologyDiscoverer
    from repro.simnet.network import BROADCAST_IP
    from repro.snmp.manager import SnmpManager

    def discover_once():
        build = build_testbed()
        net = build.network
        net.run(1.0)
        for host in net.hosts.values():
            host.create_socket().sendto(10, (BROADCAST_IP, 520))
        net.run(2.0)
        manager = SnmpManager(net.host("L"))
        candidates = [
            (n, net.ip_of(n)) for n in ("L", "S1", "S2", "N1", "N2", "switch")
        ]
        box = {}
        TopologyDiscoverer(manager, candidates).discover(
            lambda r: box.update(result=r)
        )
        net.run(60.0)
        return box["result"]

    result = benchmark.pedantic(discover_once, rounds=1, iterations=1)
    assert [n.name for n in result.nodes.values() if n.is_switch] == ["switch"]
    assert result.unknown_station_count() == 4


def test_bench_distributed_vs_single(benchmark):
    """Same measurements, SNMP load spread across three hosts."""

    def run_distributed():
        build = build_testbed()
        dm = DistributedMonitor(
            build, coordinator_host="L", worker_hosts=["L", "S1", "S2"],
            poll_jitter=0.0,
        )
        label = dm.watch_path("S1", "N1")
        StaircaseLoad(
            build.network.host("L"),
            build.network.ip_of("N1"),
            StepSchedule.pulse(5.0, 35.0, 300 * KBPS),
        ).start()
        dm.start()
        build.network.run(40.0)
        return dm, dm.history.series(label).used().max()

    dm, peak = benchmark.pedantic(run_distributed, rounds=1, iterations=1)
    assert peak == pytest.approx(300_000 * 1.019, rel=0.08)
    counts = [
        value for key, value in dm.stats().items()
        if key.startswith("per_worker_requests.")
    ]
    assert max(counts) <= 2 * min(counts) + 10  # reasonably balanced


def test_bench_adaptation_reaction_time(benchmark):
    """Violation-to-recovery latency of the closed loop."""
    from repro.rm.applications import ApplicationRuntime
    from repro.rm.detector import QosState
    from repro.spec.builder import build_network
    from repro.spec.parser import parse_spec

    text = TESTBED_SPEC_TEXT.rstrip()[:-1] + """
        application sensor  { on S1; sends to tracker rate 2400 Kbps; }
        application tracker { on N1; }
    }
    """

    def run_loop():
        spec = parse_spec(text)
        build = build_network(spec)
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        runtime = ApplicationRuntime(build, monitor, auto_move=True)
        net = build.network
        StaircaseLoad(
            net.host("L"), net.ip_of("N2"), StepSchedule.pulse(20.0, 80.0, 800 * KBPS)
        ).start()
        monitor.start()
        runtime.start()
        net.run(100.0)
        return runtime

    runtime = benchmark.pedantic(run_loop, rounds=1, iterations=1)
    assert len(runtime.moves) == 1
    move = runtime.moves[0]
    violated_at = next(
        e.time for e in runtime.events if e.state is QosState.VIOLATED
    )
    recovered_at = next(
        e.time for e in runtime.events
        if e.state is QosState.OK and e.time > violated_at
    )
    reaction = recovered_at - violated_at
    print(f"\nviolation at {violated_at:.1f}s, moved at {move.time:.1f}s, "
          f"recovered at {recovered_at:.1f}s (reaction {reaction:.1f}s)")
    # Recovery within a few polling intervals of the violation.
    assert reaction <= 6.0
