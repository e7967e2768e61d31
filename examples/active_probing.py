#!/usr/bin/env python3
"""Active probing catches what passive SNMP cannot see.

The topology hides a blind spot: between the metered switch ``sw1`` and
a 10 Mb/s hub pocket sits an *agentless* switch ``sw2`` -- no counter
observes the pocket, so passive monitoring must assume it idle.  When a
hub host floods its neighbour, the passive plane keeps claiming the
full pocket bandwidth while UDP probe trains measure the real residual.

Because no counter observes the pocket, the watch is *in doubt* from
the start and gets a train every budget round rather than one per poll.
``ProbeCrossValidator`` compares each train against the passive
envelope ``available <= achievable <= capacity``; after two breaching
rounds it localizes the disagreement to the unmetered segment, caps the
path's confidence, and lifts the cap once the flood ends.  A finding
lives as long as its watch: a second flood raises it again, and
unwatching the path drops it.

Run:  python examples/active_probing.py
"""

from repro import NetworkMonitor
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec

SPEC = """
network topology hubdemo {
    host L  { snmp community "public"; }
    host S1 { snmp community "public"; }
    host N1 { interface el0 { speed 10 Mbps; } }
    host N2 { interface el0 { speed 10 Mbps; } }
    switch sw1 { snmp community "public"; ports 4; }
    switch sw2 { ports 4; }
    hub hb { ports 4; }
    connect L.eth0 <-> sw1.port1;
    connect S1.eth0 <-> sw1.port2;
    connect sw1.port3 <-> sw2.port1;
    connect sw2.port2 <-> hb.port1;
    connect N1.el0 <-> hb.port2;
    connect N2.el0 <-> hb.port3;
}
"""


def show(monitor, prober, moment):
    report = monitor.current_report("S1<->N1")
    probe = prober.reports.get("S1<->N1")
    print(f"\n-- {moment} (t={monitor.network.now:.0f}s) --")
    print(f"  passive: {report.summary()}")
    if probe is not None:
        print(f"  active:  {probe.summary()}")
    for finding in prober.findings():
        print(f"  FINDING: {finding}")
        print(f"           {finding.detail}")


def main() -> None:
    build = build_network(parse_spec(SPEC))
    net = build.network
    monitor = NetworkMonitor(build, "L", poll_interval=2.0)
    monitor.watch_path("S1", "N1")
    prober = monitor.enable_probing()  # default 2% budget + cross-validation

    monitor.start()
    print(
        f"probe budget: one {prober.train_bytes}-byte train every "
        f"{prober.round_interval:.2f}s (2% of the 10 Mb/s pocket), not one per "
        f"{monitor.poll_interval:g}s report: no counter observes the pocket "
        f"S1<->N1 crosses"
    )
    net.run(10.0)
    show(monitor, prober, "idle: planes agree")

    # Invisible cross-traffic: N2 floods N1 entirely inside the hub
    # pocket, behind the agentless sw2.  No SNMP counter moves.
    StaircaseLoad(
        net.host("N2"),
        net.ip_of("N1"),
        StepSchedule([(10.0, 1_000_000.0), (35.0, 0.0)]),
    ).start()
    net.run(25.0)
    show(monitor, prober, "hub pocket flooded behind the agentless switch")

    net.run(45.0)
    show(monitor, prober, "flood over: cap lifted")

    StaircaseLoad(
        net.host("N2"), net.ip_of("N1"), StepSchedule([(45.0, 1_000_000.0)])
    ).start()
    net.run(60.0)
    show(monitor, prober, "flooded again")
    monitor.unwatch_path("S1<->N1")
    net.run(65.0)
    print(f"\n-- unwatched S1<->N1 (t={net.now:.0f}s) --\n"
          f"  findings: {len(prober.findings())}, active disagreements: "
          f"{monitor.stats()['probe_active_disagreements']:.0f}")

    stats = monitor.stats()
    print(
        f"\nprobe plane: {stats['probe_trains']:.0f} trains, "
        f"{stats['probe_disagreements']:.0f} disagreeing rounds, "
        f"{stats['probe_recoveries']:.0f} recoveries"
    )


if __name__ == "__main__":
    main()
