"""Soak test: the monitor at an order of magnitude beyond the testbed.

A 48-host, 4-switch campus with a dozen concurrent loads, monitored for
two simulated minutes: every watched path must report sanely, timeouts
must stay at zero, and the simulator must get through it in bounded
wall-clock (guarded loosely; this is a correctness soak, not a bench).
"""

import pytest

from repro.core.monitor import NetworkMonitor
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.topology.model import (
    ConnectionSpec,
    DeviceKind,
    InterfaceRef,
    InterfaceSpec,
    NodeSpec,
    TopologySpec,
)

N_SWITCHES = 4
HOSTS_PER_SWITCH = 12


def campus_spec() -> TopologySpec:
    nodes = []
    connections = []
    for s in range(N_SWITCHES):
        nodes.append(
            NodeSpec(
                f"sw{s}",
                kind=DeviceKind.SWITCH,
                interfaces=[InterfaceSpec(f"port{p + 1}") for p in range(16)],
                snmp_enabled=True,
            )
        )
    # Chain the switches: sw0 - sw1 - sw2 - sw3.
    for s in range(N_SWITCHES - 1):
        connections.append(
            ConnectionSpec(
                InterfaceRef(f"sw{s}", "port15"), InterfaceRef(f"sw{s + 1}", "port16")
            )
        )
    for s in range(N_SWITCHES):
        for h in range(HOSTS_PER_SWITCH):
            name = f"h{s}_{h}"
            nodes.append(
                NodeSpec(
                    name,
                    interfaces=[InterfaceSpec("eth0")],
                    snmp_enabled=(h % 3 == 0),  # a third run agents
                )
            )
            connections.append(
                ConnectionSpec(
                    InterfaceRef(name, "eth0"), InterfaceRef(f"sw{s}", f"port{h + 1}")
                )
            )
    return TopologySpec("campus", nodes, connections)


@pytest.mark.parametrize("seed", [0])
def test_campus_soak(seed):
    spec = campus_spec()
    build = build_network(spec)
    net = build.network
    monitor = NetworkMonitor(build, "h0_0", poll_interval=2.0, seed=seed)

    # Watch six cross-campus paths.
    watches = [
        monitor.watch_path("h0_1", "h3_1"),
        monitor.watch_path("h0_2", "h2_5"),
        monitor.watch_path("h1_3", "h3_7"),
        monitor.watch_path("h1_0", "h1_6"),
        monitor.watch_path("h2_0", "h3_0"),
        monitor.watch_path("h0_4", "h2_9"),
    ]
    # A dozen concurrent loads in both directions across the trunks.
    rng_pairs = [
        ("h0_1", "h3_1", 200), ("h3_2", "h0_3", 150), ("h1_3", "h3_7", 100),
        ("h2_5", "h0_2", 250), ("h1_0", "h1_6", 300), ("h3_9", "h0_9", 120),
        ("h2_0", "h3_0", 180), ("h0_4", "h2_9", 90), ("h3_4", "h1_8", 210),
        ("h2_2", "h1_1", 160), ("h0_7", "h3_5", 140), ("h1_9", "h2_7", 110),
    ]
    for src, dst, rate in rng_pairs:
        StaircaseLoad(
            net.host(src), net.ip_of(dst), StepSchedule.pulse(10.0, 110.0, rate * KBPS)
        ).start()

    monitor.start()
    net.run(120.0)

    stats = monitor.stats()
    assert stats["snmp_timeouts"] == 0
    assert stats["poll_errors"] == 0
    # The one log that grows with flapping rather than with hosts is a ring.
    from repro.core.health import TRANSITION_LOG_CAP

    assert len(monitor.health.transitions) <= TRANSITION_LOG_CAP
    for label in watches:
        series = monitor.history.series(label)
        assert len(series) >= 50
        # Sanity: usage non-negative, availability never exceeds capacity.
        assert (series.used() >= 0).all()
        capacity = series.reports[0].capacity_bps
        assert (series.available() <= capacity + 1e-6).all()
    # The h0_1 <-> h3_1 path crosses all three trunks and carries both
    # its own 200 KB/s and shares trunks with other flows: its used
    # bandwidth must reflect at least its own load.
    series = monitor.history.series(watches[0])
    mid = series.between(30.0, 100.0)
    assert mid.used().mean() > 200_000


@pytest.mark.parametrize("seed", [0])
def test_campus_soak_bounded_history_under_retention(seed):
    """Retention keeps history bounded without touching QoS results.

    Two identical campus runs, one with the default horizon (longer than
    the run) and one with a 40-second one: inside the retained window
    every series holds exactly the same reports (so QoS conclusions are
    unchanged), while no series holds more than a horizon of reports
    and the monitor reports the ones it trimmed.
    """
    spec = campus_spec()
    results = {}
    for retention in (None, 40.0):
        build = build_network(spec)
        net = build.network
        options = {} if retention is None else {"history_retention_s": retention}
        monitor = NetworkMonitor(
            build, "h0_0", poll_interval=2.0, seed=seed, **options
        )
        watches = [
            monitor.watch_path("h0_1", "h3_1"),
            monitor.watch_path("h1_3", "h3_7"),
            monitor.watch_path("h2_0", "h3_0"),
        ]
        for src, dst, rate in [
            ("h0_1", "h3_1", 200), ("h1_3", "h3_7", 100), ("h2_0", "h3_0", 180),
        ]:
            StaircaseLoad(
                net.host(src), net.ip_of(dst),
                StepSchedule.pulse(10.0, 110.0, rate * KBPS),
            ).start()
        monitor.start()
        net.run(120.0)
        results[retention] = (monitor, watches)

    unlimited, watches = results[None]
    retained, _ = results[40.0]

    # Retention actually dropped data, and the monitor accounts for it.
    dropped = retained.history.reports_dropped
    assert dropped > 0
    assert retained.stats()["history_dropped"] == dropped
    assert unlimited.history.reports_dropped == 0
    assert (retained.stats()["history_samples"] + dropped
            == unlimited.stats()["history_samples"])

    # The bound is exact at report granularity: a horizon of reports
    # plus the one at its floor, every one no older than the newest
    # minus the horizon.
    for label in watches:
        series = retained.history.series(label)
        assert len(series) <= int(40.0 / 2.0) + 1
        times = series.times()
        assert times[0] >= times[-1] - 40.0
        full = unlimited.history.series(label)
        assert len(full.between(-1.0, times[-1] - 40.0)) == series.dropped

    # QoS detection is unchanged: within the surviving window both runs
    # hold bit-identical measurement arrays.
    for label in watches:
        full = unlimited.history.series(label)
        trimmed = retained.history.series(label)
        floor = trimmed.times()[0]
        window_full = full.between(floor, 1e9)
        assert (window_full.times() == trimmed.times()).all()
        assert (
            window_full.used().view("uint64")
            == trimmed.used().view("uint64")
        ).all()
        assert (
            window_full.available().view("uint64")
            == trimmed.available().view("uint64")
        ).all()
        # The latest report -- what the RM middleware acts on -- agrees.
        assert trimmed.latest().available_bps == full.latest().available_bps
        assert trimmed.latest().status == full.latest().status
