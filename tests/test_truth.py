"""The simulator's counters as ground truth for what the monitor measures.

The testbed's agents serve their counters from a snapshot taken on a
timer (``CachingMibTree``), which is where the paper's "abnormally small
value followed by an abnormally large one" comes from.  The displacement
moves octets from one interval to the next and loses none.  Held here on
the Figure-4 run, with the true ``Interface.counters`` recorded at every
refresh tick by test-side instrumentation only:

- every counter a cached agent serves is the true value at its last tick
  at or before the request;
- per polled interface, the octets of the monitor's samples (rate times
  interval) add up to the true growth between the ticks that served the
  first and the last poll.
"""

import pytest

from repro.experiments import fig4
from repro.experiments.scenarios import Scenario
from repro.snmp.agent import SnmpAgent
from repro.snmp.datatypes import Counter32
from repro.snmp.mib import (
    IF_IN_DISCARDS,
    IF_IN_NUCAST_PKTS,
    IF_IN_OCTETS,
    IF_IN_UCAST_PKTS,
    IF_OUT_DISCARDS,
    IF_OUT_NUCAST_PKTS,
    IF_OUT_OCTETS,
    IF_OUT_UCAST_PKTS,
    CachingMibTree,
)

# The ifTable counter columns, by the counter block's attribute.
COUNTERS = {
    IF_IN_OCTETS: "in_octets", IF_OUT_OCTETS: "out_octets",
    IF_IN_UCAST_PKTS: "in_ucast_pkts", IF_OUT_UCAST_PKTS: "out_ucast_pkts",
    IF_IN_NUCAST_PKTS: "in_nucast_pkts", IF_OUT_NUCAST_PKTS: "out_nucast_pkts",
    IF_IN_DISCARDS: "in_discards", IF_OUT_DISCARDS: "out_discards",
}
RUN_UNTIL = 200.0  # the quiet lead-in, then the 100 and 200 KB/s levels


@pytest.fixture(scope="module")
def figure4():
    """``(log, samples)`` of a Figure-4 run (seed 0) to :data:`RUN_UNTIL`.

    ``log`` holds, in the order they ran, ``("tick", node, truth)`` with
    ``truth`` ``{ifIndex: {attribute: raw counter}}`` at a cached agent's
    refresh tick, and ``("serve", node, time, pairs)`` for every reply an
    agent wrote; ``samples`` every sample the poller handed on."""
    log, samples = [], []
    patch = pytest.MonkeyPatch()
    devices = {}
    take_snapshot, encode_reply = CachingMibTree._take_snapshot, SnmpAgent._encode_reply

    def tick(tree):
        take_snapshot(tree)
        device = devices[tree]
        truth = {
            iface.if_index: {a: getattr(iface.counters, a) for a in COUNTERS.values()}
            for iface in device.interfaces
        }
        log.append(("tick", device.name, truth))

    def serve(agent, version, request_id, pairs, *args, **kwargs):
        log.append(("serve", agent.name, agent.sim.now, list(pairs)))
        return encode_reply(agent, version, request_id, pairs, *args, **kwargs)

    patch.setattr(CachingMibTree, "_take_snapshot", tick)
    patch.setattr(SnmpAgent, "_encode_reply", serve)
    try:
        scenario = Scenario(seed=0)
        scenario.watch(fig4.PATH_SRC, fig4.PATH_DST)
        scenario.add_load(fig4.LOAD_SRC, fig4.LOAD_DST, fig4.LOAD_SCHEDULE)
        for name, agent in scenario.build.agents.items():
            assert isinstance(agent.mib, CachingMibTree), name
            devices[agent.mib] = scenario.network.device(name)
        poller = scenario.monitor.poller
        hand_on = poller.on_sample
        poller.on_sample = lambda sample: samples.append(sample) or hand_on(sample)
        scenario.run(RUN_UNTIL)
    finally:
        patch.undo()
    return log, samples


def served_counters(log):
    """``(node, ifIndex, attribute, time, served, truth at the last tick)``
    for every counter an agent served."""
    last_tick = {}
    for entry in log:
        if entry[0] == "tick":
            last_tick[entry[1]] = entry[2]
            continue
        _, node, time, pairs = entry
        for oid, value in pairs:
            attribute = COUNTERS.get(oid.parent)
            if attribute is not None:
                truth = last_tick[node][oid[-1]]
                yield node, oid[-1], attribute, time, value, truth[attribute]


class TestCachedAgentsServeTheirTicks:
    def test_every_served_counter_is_the_truth_at_the_last_tick(self, figure4):
        log, _samples = figure4
        served = list(served_counters(log))
        moved = {(node, i) for node, i, a, _t, _v, raw in served if a == "in_octets" and raw}
        assert len(served) > 1000 and len(moved) >= 3
        for node, if_index, attribute, time, value, raw in served:
            assert value == Counter32.wrap(raw), (node, if_index, attribute, time)

    def test_displacement_loses_no_octet(self, figure4):
        log, samples = figure4
        polls = {}  # (node, ifIndex) -> [(time, true in, true out)] per poll served
        for node, if_index, attribute, time, _value, raw in served_counters(log):
            if attribute == "in_octets":
                polls.setdefault((node, if_index), []).append([time, raw, None])
            elif attribute == "out_octets":
                polls[(node, if_index)][-1][2] = raw
        sums = {}
        for sample in samples:
            key = (sample.node, sample.if_index)
            total = sums.setdefault(key, [0.0, 0.0, 0.0])
            total[0] += sample.in_bytes_per_s * sample.interval
            total[1] += sample.out_bytes_per_s * sample.interval
            total[2] = max(total[2], sample.time)
        assert len(sums) == 10
        grew = 0
        for key, (octets_in, octets_out, last_sample) in sums.items():
            first = polls[key][0]
            last = [poll for poll in polls[key] if poll[0] <= last_sample][-1]
            assert octets_in == pytest.approx(last[1] - first[1], rel=1e-9, abs=1e-6), key
            assert octets_out == pytest.approx(last[2] - first[2], rel=1e-9, abs=1e-6), key
            grew += last[1] + last[2] - first[1] - first[2] > 1_000_000
        assert grew == 3  # the load left L, crossed the switch and reached N1
