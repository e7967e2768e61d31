#!/usr/bin/env python3
"""Dynamic topology discovery cross-checked against the specification.

The paper chose specification over discovery and suggested a hybrid as
future work (§5).  This example runs that hybrid on the Figure-3 testbed:

1. walk every known agent's identity, interface MACs and (for switches)
   the bridge-MIB forwarding table -- all as real SNMP traffic;
2. reconstruct who hangs off which switch port, flagging shared segments
   (the hub shows up as two hosts behind one port);
3. verify the declared specification against the discovered picture;
4. emit the inferred attachments as spec-language text.

Run:  python examples/topology_discovery.py
"""

from repro import build_testbed
from repro.core.discovery import TopologyDiscoverer
from repro.simnet.network import BROADCAST_IP
from repro.snmp.manager import SnmpManager


def main() -> None:
    build = build_testbed()
    net = build.network

    # Warm the switch's FDB: discovery can only see learned stations.
    net.run(1.0)
    for host in net.hosts.values():
        host.create_socket().sendto(10, (BROADCAST_IP, 520))
    net.run(2.0)

    manager = SnmpManager(net.host("L"))
    candidates = [
        (name, net.ip_of(name), build.spec.node(name).snmp_community)
        for name in ("L", "S1", "S2", "N1", "N2", "switch")
    ]
    discoverer = TopologyDiscoverer(manager, candidates)
    box = {}
    discoverer.discover(lambda result: box.update(result=result))
    net.run(60.0)  # let the SNMP walks complete
    result = box["result"]

    print("=== discovered attachments ===")
    for att in result.attachments:
        stations = list(att.known_nodes) + [str(m) for m in att.unknown_macs]
        shared = "  [shared segment]" if att.shared_segment else ""
        print(f"{att.switch} port {att.port}: {', '.join(stations)}{shared}")
    print(f"\nanonymous stations (no SNMP agent): {result.unknown_station_count()}")

    print("\n=== verification against the declared spec ===")
    findings = result.verify_against(build.spec)
    if findings:
        for finding in findings:
            print(f"- {finding}")
    else:
        print("every verifiable declaration confirmed")

    print("\nSNMP cost of discovery:", manager.requests_sent, "requests")


if __name__ == "__main__":
    main()
