#!/usr/bin/env python3
"""Distributed network monitoring with crash failover (paper §5 future work).

The single monitor polls every agent from host L; at scale that
concentrates SNMP load on L's links.  The distributed variant partitions
the polling targets across worker hosts (each polls itself for free via
loopback), and the workers ship derived rate samples to a coordinator in
sequenced, batched UDP datagrams over the same network.

The plane also survives its own failures.  This example runs three acts:

1. the single monitor and the fault-free distributed plane side by side
   under the same load -- the measurements must agree;
2. the same distributed plane with worker S2 killed mid-run -- the
   coordinator's lease tracker detects the silence, fails S2's targets
   over to the survivors, and the watched path is back to *trusted*
   reports within three poll cycles (degraded, never silently stale, in
   between);
3. S2 comes back -- the plane rebalances to the original assignment;
4. the same one level down, in the two-level coordinator tree: a shard
   worker dies before its first sample.  The first report says so
   (degraded, the connection unmeasured); the shard's leaf fails the
   worker's switch over to its other worker, and ships each poll cycle
   as soon as the closing batches of the workers it still leases are in.

Run:  python examples/distributed_monitoring.py
"""

from repro import NetworkMonitor, StepSchedule, build_testbed
from repro.core.distributed import DistributedMonitor
from repro.core.hierarchy import HierarchicalMonitor
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.simnet.faults import WorkerCrash
from repro.simnet.trafficgen import KBPS, StaircaseLoad
from repro.spec.builder import build_network

LOAD = StepSchedule.pulse(10.0, 50.0, 300 * KBPS)
RUN_UNTIL = 60.0
CRASH_AT, RECOVER_AT = 20.0, 40.0


def run_single():
    build = build_testbed()
    monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
    label = monitor.watch_path("S1", "N1")
    StaircaseLoad(build.network.host("L"), build.network.ip_of("N1"), LOAD).start()
    monitor.start()
    build.network.run(RUN_UNTIL)
    series = monitor.history.series(label)
    return series.used().max(), {"L": monitor.manager.requests_sent}


def build_plane():
    build = build_testbed()
    dm = DistributedMonitor(
        build, coordinator_host="L", worker_hosts=["L", "S1", "S2"], poll_jitter=0.0
    )
    label = dm.watch_path("S1", "N1")
    StaircaseLoad(build.network.host("L"), build.network.ip_of("N1"), LOAD).start()
    return build, dm, label


def per_worker_requests(dm):
    return {
        key.split(".", 1)[1]: int(value)
        for key, value in dm.stats().items()
        if key.startswith("per_worker_requests.")
    }


def run_distributed():
    build, dm, label = build_plane()
    dm.start()
    build.network.run(RUN_UNTIL)
    print("worker assignments:")
    for worker in sorted(dm.workers):
        print(f"  {worker}: polls {', '.join(dm.targets_of(worker))}")
    return dm.history.series(label).used().max(), per_worker_requests(dm)


def run_with_crash():
    build, dm, label = build_plane()
    reports = []
    dm.subscribe(reports.append)
    WorkerCrash(build.network.sim, dm.workers["S2"], at=CRASH_AT, until=RECOVER_AT,
                events=dm.telemetry.events)
    dm.start()
    build.network.run(RUN_UNTIL)

    print("lease transitions:")
    for transition in dm.leases.transitions:
        print(f"  {transition}")
    print("report trust around the crash:")
    for report in reports:
        if CRASH_AT - 2.0 <= report.time <= CRASH_AT + 8.0:
            marker = "TRUSTED " if report.trusted else "degraded"
            print(f"  [{report.time:5.1f}s] {marker} confidence="
                  f"{report.confidence:.2f}")
    settled = [r for r in reports
               if CRASH_AT + 6.0 <= r.time < RECOVER_AT]  # 3 poll cycles
    print(f"re-coverage: {sum(r.trusted for r in settled)}/{len(settled)} "
          f"trusted reports between crash+3 cycles and recovery")
    stats = dm.stats()
    print(f"failovers={stats['failovers']:.0f} "
          f"rebalances={stats['rebalances']:.0f} "
          f"decode_errors={stats['decode_errors']:.0f}")
    print("assignments after recovery:")
    for worker in sorted(dm.workers):
        print(f"  {worker}: polls {', '.join(dm.targets_of(worker)) or '(spare)'}")


def run_tree_with_worker_crash():
    shape = dict(switches=2, hosts_per_switch=3)
    build = build_network(scale_spec(hierarchical=2, host_agents=False, **shape))
    tree = HierarchicalMonitor(build, hierarchy_plan(2, **shape), poll_jitter=0.0)
    tree.watch_path("p0h0_2", "p1h1_2")
    leaf = tree.leaves["mon1"]
    victim = "p1h0_1"  # polls p1sw1, on the watched path
    reports = []
    tree.subscribe(reports.append)
    WorkerCrash(build.network.sim, leaf.dm.workers[victim], at=1.0, until=9.0)
    tree.start()
    build.network.run(16.0)

    print(f"shard mon1 lease transitions (worker {victim} dies at t=1s, "
          f"returns at t=9s):")
    for transition in leaf.dm.leases.transitions:
        print(f"  {transition}")
    print("reports at the root:")
    for report in reports:
        marker = "TRUSTED " if report.trusted else "degraded"
        ages = ", ".join(
            "unmeasured" if m.sample_age is None else f"{m.sample_age:.2f}s"
            for m in report.connections
        )
        print(f"  [{report.time:5.1f}s] {marker} sample ages: {ages}")


def main() -> None:
    print("=== single monitor (the paper's design) ===")
    single_peak, single_load = run_single()
    print(f"peak measured: {single_peak / 1000:.1f} KB/s; "
          f"SNMP requests by host: {single_load}")

    print("\n=== distributed monitor (3 workers + coordinator on L) ===")
    dist_peak, dist_load = run_distributed()
    print(f"peak measured: {dist_peak / 1000:.1f} KB/s; "
          f"SNMP requests by host: {dist_load}")

    agreement = abs(single_peak - dist_peak) / single_peak * 100
    print(f"\nmeasurement agreement: within {agreement:.1f}%")
    print("the polling load spread from one host to three")

    print(f"\n=== chaos: worker S2 dies at t={CRASH_AT:.0f}s, "
          f"returns at t={RECOVER_AT:.0f}s ===")
    run_with_crash()

    print("\n=== the tree: a shard worker dies before its first sample ===")
    run_tree_with_worker_crash()


if __name__ == "__main__":
    main()
