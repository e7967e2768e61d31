"""Benchmark of Table 1: serving the paper's MIB-II objects over SNMP.

Times a full GET of the six Table-1 objects end-to-end across the
simulated LAN and checks each comes back with its MIB-II type.
"""

from repro.simnet.network import Network
from repro.snmp.agent import SnmpAgent
from repro.snmp.datatypes import Counter32, Gauge32, TimeTicks
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import (
    IF_IN_OCTETS,
    IF_IN_UCAST_PKTS,
    IF_OUT_NUCAST_PKTS,
    IF_OUT_OCTETS,
    IF_SPEED,
    SYS_UPTIME,
    build_mib2,
)

TABLE1_OIDS = [
    SYS_UPTIME,
    IF_SPEED + "1",
    IF_IN_OCTETS + "1",
    IF_IN_UCAST_PKTS + "1",
    IF_OUT_OCTETS + "1",
    IF_OUT_NUCAST_PKTS + "1",
]


def build_pair():
    net = Network()
    mon = net.add_host("L")
    target = net.add_host("S1")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(mon, sw)
    net.connect(target, sw)
    net.announce_hosts()
    SnmpAgent(target, build_mib2(target, net.sim), response_delay=0.0, response_jitter=0.0)
    manager = SnmpManager(mon)
    return net, manager, target


def test_bench_table1_get_roundtrip(benchmark):
    """One poll of the paper's Table-1 objects, end-to-end in the sim."""
    net, manager, target = build_pair()
    box = {}

    def one_get():
        box.clear()
        manager.get(target.primary_ip, TABLE1_OIDS, lambda vbs: box.update(v=vbs))
        net.sim.run_until_idle()
        return box["v"]

    varbinds = benchmark(one_get)
    assert len(varbinds) == 6
    assert isinstance(varbinds[0].value, TimeTicks)
    assert isinstance(varbinds[1].value, Gauge32)
    assert all(isinstance(vb.value, Counter32) for vb in varbinds[2:])

