#!/usr/bin/env python3
"""Failure detection: link death, traps, and middleware reaction.

DeSiDeRaTa performs "QoS monitoring and failure detection"; this example
exercises the failure half on the Figure-3 testbed:

1. agents emit linkDown/linkUp traps to the monitor (SNMPv2c, port 162);
2. the cable between S1 and the switch is "yanked" at t=15 s and
   re-seated at t=35 s;
3. the monitor's link-state registry zeroes the path's availability the
   moment the trap arrives -- milliseconds, not a polling interval;
4. the RM middleware sees the violation, diagnoses it, and recommends
   placements that avoid the dead link;
5. an SNMP agent outage (crashed daemon on S2, t=40-55 s) shows the
   polling-timeout backstop for failures that traps cannot report.

Run:  python examples/failure_detection.py
"""

from repro import NetworkMonitor, build_testbed
from repro.rm import QosRequirement, RmMiddleware
from repro.simnet.faults import AgentOutage, LinkFailure
from repro.simnet.trafficgen import KBPS


def main() -> None:
    build = build_testbed()
    net = build.network
    monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
    registry = monitor.enable_trap_listener()
    # The receiver hands each notification to one callback (the registry's
    # apply_trap); keep a copy of every one on its way through.
    traps = []
    apply_trap = monitor.trap_receiver.callback

    def on_trap(event):
        traps.append(event)
        apply_trap(event)

    monitor.trap_receiver.callback = on_trap

    requirement = QosRequirement(
        name="s1-feed", src="S1", dst="N1", min_available_bps=200 * KBPS
    )
    middleware = RmMiddleware(monitor, [requirement], breach_count=1, clear_count=1)

    s1_link = net.host("S1").interfaces[0].link
    LinkFailure(net.sim, s1_link, at=15.0, until=35.0)
    AgentOutage(net.sim, build.agents["S2"], at=40.0, until=55.0)

    monitor.start()
    print("t=15s: S1's cable is pulled; t=35s: re-seated; "
          "t=40-55s: S2's SNMP daemon is down\n")
    net.run(65.0)

    print("=== traps received by the monitor ===")
    for event in traps:
        kind = "linkDown" if event.is_link_down else "linkUp"
        print(f"t={event.received_at:6.3f}s  {kind} from {event.source_ip} "
              f"ifIndex={event.if_index()}")

    print("\n=== RM middleware event log ===")
    print(middleware.format_log())

    print("\n=== polling backstop (S2 agent outage) ===")
    stats = monitor.stats()
    print(f"SNMP timeouts during the run: {stats['snmp_timeouts']:.0f} "
          f"(retransmissions {stats['snmp_retransmissions']:.0f})")

    print(f"\ndown connections now: {len(registry)} (everything recovered)")


if __name__ == "__main__":
    main()
