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
  first and the last poll;
- a reading lost on the way -- an SNMP reply, or a batch on either tier
  of the coordinator tree -- is a missed poll: the next sample spans it,
  and is the true growth across it.
"""

import pytest

from repro.core.deltas import REC_SAME, is_delta, parse_delta
from repro.core.poller import polled_interfaces
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
    SYS_UPTIME,
    CachingMibTree,
)
from repro.simnet.trafficgen import KBPS, StepSchedule, StaircaseLoad
from tests.snmp_reference import old_decode

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

    def serve(agent, *args, **kwargs):
        # Every reply, from a plan or not, leaves through the one writer:
        # its pairs are what the reply carries.
        reply = encode_reply(agent, *args, **kwargs)
        pairs = [(vb.oid, vb.value) for vb in old_decode(reply).pdu.varbinds]
        log.append(("serve", agent.name, agent.sim.now, pairs))
        return reply

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


# ----------------------------------------------------------------------
# The coordinator tree's samples against the truth
# ----------------------------------------------------------------------
class _TreeTruth:
    """A tree plane run with every agent read and every accepted sample
    logged, by test-side instrumentation only.

    ``reads`` maps ``(agent, sysUpTime)`` to ``(time, {ifIndex: (true in
    octets, true out octets)})`` for every row a reply served: the
    interface's ``Interface.counters`` at the instant of the read, or at
    the agent's last snapshot tick where it caches.  ``uptimes`` maps a
    worker's ``(node, time)`` of a derived reply to the sysUpTime it
    carried; ``accepted`` holds every sample the root admitted, in order.
    ``lost`` holds ``(agent, ifIndex, sysUpTime)`` of every read a rig
    lost on its way to the root on purpose.
    """

    def __init__(self, patch, build_plane, poll_interval):
        from repro.core.poller import SnmpPoller

        self.reads, self.uptimes, self.accepted, self.lost = {}, {}, [], set()
        self.poll_interval = poll_interval
        ticks = {}
        take_snapshot, encode_reply = CachingMibTree._take_snapshot, SnmpAgent._encode_reply
        derive = SnmpPoller._derive
        devices = {}

        def truth_of(device):
            return {
                iface.if_index: (iface.counters.in_octets, iface.counters.out_octets)
                for iface in device.interfaces
            }

        def tick(tree):
            take_snapshot(tree)
            ticks[tree] = truth_of(devices[tree])

        def serve(agent, *args, **kwargs):
            reply = encode_reply(agent, *args, **kwargs)
            pairs = [(vb.oid, vb.value) for vb in old_decode(reply).pdu.varbinds]
            uptimes = [value.value for oid, value in pairs if oid == SYS_UPTIME]
            if uptimes:
                mib = agent.mib
                truth = (
                    ticks[mib] if isinstance(mib, CachingMibTree)
                    else truth_of(self.network.device(agent.name))
                )
                rows = {
                    oid[-1]: truth[oid[-1]] for oid, _ in pairs
                    if oid.parent in (IF_IN_OCTETS, IF_OUT_OCTETS)
                }
                self.reads[(agent.name, uptimes[-1])] = (agent.sim.now, rows)
            return reply

        def derive_logged(poller, node, if_indexes, uptime, tables):
            self.uptimes[(node, poller.sim.now)] = uptime
            return derive(poller, node, if_indexes, uptime, tables)

        patch.setattr(CachingMibTree, "_take_snapshot", tick)
        patch.setattr(SnmpAgent, "_encode_reply", serve)
        patch.setattr(SnmpPoller, "_derive", derive_logged)
        self.build, self.plane = build_plane()
        self.network = self.build.network
        for name, agent in self.build.agents.items():
            if isinstance(agent.mib, CachingMibTree):
                devices[agent.mib] = self.network.device(name)
        update = self.plane.rates.update
        self.plane.rates.update = lambda s: (self.accepted.append(s), update(s))

    def reads_behind(self, sample):
        """The two reads a sample was derived from: ``(time, rows)`` each."""
        uptime = self.uptimes[(sample.node, sample.time)]
        before = uptime - round(sample.interval * 100)
        return self.reads[(sample.node, before)], self.reads[(sample.node, uptime)]

    def lost_between(self, sample):
        """The reads of the sample's interface between its two, each of
        which must have been recorded lost."""
        uptime = self.uptimes[(sample.node, sample.time)]
        before = uptime - round(sample.interval * 100)
        between = [
            up for (node, up), (_, rows) in self.reads.items()
            if node == sample.node and sample.if_index in rows and before < up < uptime
        ]
        for up in between:
            assert (sample.node, sample.if_index, up) in self.lost, (sample, up)
        return between

    def check_every_accepted_sample(self):
        """Each admitted sample's octets are the true growth between its
        two reads, and those reads are one poll apart, or one more for
        each read between them recorded lost (a baseline older than that
        would be a rate over time the interface went unpolled)."""
        assert self.accepted
        for sample in self.accepted:
            lost = len(self.lost_between(sample))
            (t0, first), (t1, last) = self.reads_behind(sample)
            true_in = last[sample.if_index][0] - first[sample.if_index][0]
            true_out = last[sample.if_index][1] - first[sample.if_index][1]
            where = (sample.node, sample.if_index, sample.time)
            assert sample.in_bytes_per_s * sample.interval == pytest.approx(
                true_in, rel=1e-9, abs=1e-6
            ), where
            assert sample.out_bytes_per_s * sample.interval == pytest.approx(
                true_out, rel=1e-9, abs=1e-6
            ), where
            assert 0 < t1 - t0 <= (1.5 + lost) * self.poll_interval, where

    def first_after(self, key, at):
        """The first sample of ``key`` the root admitted after ``at``."""
        return next(
            s for s in self.accepted if (s.node, s.if_index) == key and s.time > at
        )


def _watched_keys(plane, label):
    from repro.core.counters import required_poll_targets

    needed = required_poll_targets(plane.spec, plane.path_of(label))
    return {(node, i) for node, indexes in needed.items() for i in indexes}


def _rewatch_run(patch, build_plane, steady, spare, back, load):
    """Watch ``steady`` and ``spare``; drop ``spare`` at t = 12 and watch
    ``back`` at t = 24, while ``load`` runs.  Returns the rig, the keys
    ``back`` brought back into the pool and what its first report read."""
    rig = _TreeTruth(patch, build_plane, poll_interval=2.0)
    plane, net = rig.plane, rig.network
    plane.watch_path(*steady)
    dropped = plane.watch_path(*spare, name="spare")
    spare_keys = _watched_keys(plane, dropped)
    StaircaseLoad(net.host(load[0]), net.ip_of(load[1]), load[2]).start()
    plane.start()
    net.run(12.0)
    plane.unwatch_path(dropped)
    gone = spare_keys - polled_interfaces(plane.targets)
    assert gone and all(plane.rates.latest(*key) is None for key in gone)
    net.run(24.0)
    label = plane.watch_path(*back)
    returned = _watched_keys(plane, label) & gone
    first_report = plane.current_report(label)
    net.run(40.0)
    return rig, returned, first_report


class TestTheTreeMeasuresTheTruth:
    """ROADMAP item 1(a) property (i) on the tree planes, with the pool
    narrowed to the watches: every sample the root admits is the true
    octet growth between the two agent reads it came from -- including an
    interface's first sample after a watch brings it back into the pool,
    whose baseline is a read after its return."""

    def test_three_workers_on_the_testbed(self):
        from repro.core.distributed import DistributedMonitor
        from repro.experiments.testbed import build_testbed

        def build_plane():
            build = build_testbed()
            return build, DistributedMonitor(
                build, "L", ["L", "S1", "S2"], poll_jitter=0.0
            )

        with pytest.MonkeyPatch.context() as patch:
            rig, returned, first = _rewatch_run(
                patch, build_plane, ("S1", "N1"), ("L", "S2"), ("S2", "N1"),
                ("L", "N1", StepSchedule.pulse(4.0, 36.0, 200 * KBPS)),
            )
        self._check(rig, returned, first)

    def test_the_small_campus_hierarchy(self):
        from repro.core.hierarchy import HierarchicalMonitor
        from repro.experiments.scale import hierarchy_plan, scale_spec
        from repro.spec.builder import build_network

        shape = dict(switches=2, hosts_per_switch=3)

        def build_plane():
            build = build_network(
                scale_spec(hierarchical=2, host_agents=False, **shape), agent_seed=0
            )
            return build, HierarchicalMonitor(
                build, hierarchy_plan(2, **shape), poll_interval=2.0,
                poll_jitter=0.0, seed=0,
            )

        with pytest.MonkeyPatch.context() as patch:
            rig, returned, first = _rewatch_run(
                patch, build_plane, ("p0h0_2", "p1h1_2"), ("p0h1_0", "p1h0_0"),
                ("p0h1_0", "p1h1_2"),
                ("p0h0_2", "p1h1_2", StepSchedule.pulse(1.0, 36.0, 50 * KBPS)),
            )
        self._check(rig, returned, first)

    @staticmethod
    def _check(rig, returned, first):
        rig.check_every_accepted_sample()
        moved = {
            (s.node, s.if_index) for s in rig.accepted if s.in_bytes_per_s > 1000
        }
        assert moved  # the load crossed what was measured
        # The returning interfaces' first report reads no sample of theirs...
        assert returned
        source = rig.plane.calculator.counter_source
        unsampled = {
            source(m.connection).key() for m in first.connections if m.sample_time is None
        }
        assert returned <= unsampled and not first.trusted
        # ...and their first sample rests on reads made after the watch.
        for key in returned:
            sample = rig.first_after(key, 24.0)
            (t0, _), _ = rig.reads_behind(sample)
            assert t0 > 24.0, (key, t0)


class _FlatTruth(_TreeTruth):
    """The same rig on the flat monitor, whose poller hands its samples
    to the rate table itself: they are logged on their way out of it."""

    def __init__(self, patch, build_plane, poll_interval):
        super().__init__(patch, build_plane, poll_interval)
        poller = self.plane.poller
        hand_on = poller.on_sample
        poller.on_sample = lambda sample: (self.accepted.append(sample), hand_on(sample))


class TestTheFlatPlaneMeasuresTheTruth:
    """ROADMAP item 1(a) property (i) on the flat plane: the flat poller
    and a tree's root derive with the same code, and each answers to the
    simulator -- every sample the flat monitor admits is the true octet
    growth between the two agent reads it came from, one poll apart."""

    @staticmethod
    def _run(patch, build_plane, watch, load):
        rig = _FlatTruth(patch, build_plane, poll_interval=2.0)
        rig.plane.watch_path(*watch)
        net = rig.network
        StaircaseLoad(net.host(load[0]), net.ip_of(load[1]), load[2]).start()
        rig.plane.start()
        net.run(40.0)
        rig.check_every_accepted_sample()
        moved = {(s.node, s.if_index) for s in rig.accepted if s.in_bytes_per_s > 1000}
        assert moved  # the load crossed what was measured
        return rig

    def test_the_testbed(self):
        from repro.core.monitor import NetworkMonitor
        from repro.experiments.testbed import build_testbed

        def build_plane():
            build = build_testbed()
            return build, NetworkMonitor(build, "L", poll_interval=2.0)

        with pytest.MonkeyPatch.context() as patch:
            self._run(
                patch, build_plane, ("S1", "N1"),
                ("L", "N1", StepSchedule.pulse(4.0, 36.0, 200 * KBPS)),
            )

    def test_a_small_mesh(self):
        from repro.core.monitor import NetworkMonitor
        from repro.experiments.scale import scale_spec
        from repro.spec.builder import build_network

        def build_plane():
            spec = scale_spec(switches=3, hosts_per_switch=2, arity=1, redundant_uplinks=1)
            build = build_network(spec, agent_seed=0)
            build.network.run(2.0)  # spanning tree settles before anything polls
            build.network.announce_hosts()
            return build, NetworkMonitor(build, "h0_0", poll_interval=2.0)

        with pytest.MonkeyPatch.context() as patch:
            rig = self._run(
                patch, build_plane, ("h0_1", "h2_1"),
                ("h0_1", "h2_1", StepSchedule.pulse(4.0, 36.0, 100 * KBPS)),
            )
        assert {s.node for s in rig.accepted} >= {"sw0", "sw1", "sw2"}


# ----------------------------------------------------------------------
# One loss model: a lost reading is a missed poll, on every plane
# ----------------------------------------------------------------------
LOSS_AT = 15.5  # the first reading each rig loses is read after this


def _flat_loss(patch):
    """The testbed's flat monitor, with the first reply the switch sends
    after :data:`LOSS_AT` lost on its way to the manager."""
    from repro.core.monitor import NetworkMonitor
    from repro.experiments.testbed import build_testbed

    def build_plane():
        build = build_testbed()
        return build, NetworkMonitor(build, "L", poll_interval=2.0)

    rig = _FlatTruth(patch, build_plane, poll_interval=2.0)
    net, rig.unreadable = rig.network, set()
    rig.plane.watch_path("S1", "N1")
    StaircaseLoad(
        net.host("L"), net.ip_of("N1"), StepSchedule.pulse(4.0, 36.0, 200 * KBPS)
    ).start()
    socket, switch = rig.plane.poller.manager.socket, net.ip_of("switch")
    receive = socket.on_receive

    def lossy(payload, size, src_ip, src_port):
        if not rig.lost and net.now >= LOSS_AT and src_ip == switch and payload:
            pairs = [(vb.oid, vb.value) for vb in old_decode(payload).pdu.varbinds]
            (uptime,) = [value.value for oid, value in pairs if oid == SYS_UPTIME]
            rig.lost = {("switch", oid[-1], uptime) for oid, _ in pairs
                        if oid.parent == IF_IN_OCTETS}
            return
        receive(payload, size, src_ip, src_port)

    socket.on_receive = lossy
    rig.plane.start()
    net.run(24.0)
    return rig, rig.plane.stats()


def _tree_loss(patch, tier):
    """The two-pod campus tree, with the first batch that shard ``mon0``'s
    ``tier`` -- a worker or the leaf -- ships after :data:`LOSS_AT` lost,
    and with it the keyframe request the gap sends, so the next batch is a
    plain delta.  ``unreadable`` holds that batch's ``same`` entries: they
    name values that rode the lost batch."""
    from repro.core.hierarchy import HierarchicalMonitor
    from repro.experiments.scale import hierarchy_plan, scale_spec
    from repro.spec.builder import build_network

    shape = dict(switches=2, hosts_per_switch=3)

    def build_plane():
        build = build_network(
            scale_spec(hierarchical=2, host_agents=False, **shape), agent_seed=0
        )
        return build, HierarchicalMonitor(
            build, hierarchy_plan(2, **shape), poll_interval=2.0, poll_jitter=0.0, seed=0,
        )

    rig = _TreeTruth(patch, build_plane, poll_interval=2.0)
    net, plane, leaf = rig.network, rig.plane, rig.plane.leaves["mon0"]
    sender, receiver = (leaf.dm.workers["p0h0_0"], leaf.dm) if tier == "worker" else (leaf, plane)
    plane.watch_path("p0h0_2", "p1h1_2")
    StaircaseLoad(  # it ends as the lost batch is read: its octets ride only that one
        net.host("p0h0_2"), net.ip_of("p1h1_2"), StepSchedule.pulse(1.0, 15.0, 50 * KBPS)
    ).start()
    shipper, rig.unreadable, kfreqs = sender.shipper, set(), []
    send, control = shipper.send, receiver._send_control

    def lossy(payload):
        if is_delta(payload) and net.now >= LOSS_AT and not rig.unreadable:
            key_of = {rec_id: key for key, rec_id in shipper.delta._ids.items()}
            reads = {
                (*(key or key_of[rec_id]), uptime): kind
                for _, uptime, _, entries in parse_delta(payload).records
                for kind, rec_id, key, _ in entries
            }
            if not rig.lost:
                rig.lost = set(reads)
                return
            rig.unreadable = {read for read, kind in reads.items() if kind == REC_SAME}
            rig.lost |= rig.unreadable
        send(payload)

    def lossy_control(worker, kind, **fields):
        if kind == "kfreq" and worker == sender.name and rig.lost and not kfreqs:
            kfreqs.append(net.now)
            return
        control(worker, kind, **fields)

    shipper.send, receiver._send_control = lossy, lossy_control
    plane.start()
    net.run(26.0)
    assert kfreqs  # the gap asked for a keyframe, and that was lost too
    return rig, receiver.stats()


class TestOneLossModel:
    """ROADMAP item 24: the paper's one loss model on every plane.  A
    reply the flat manager never gets, a batch a leaf never gets from its
    worker, one the root never gets from a leaf: each is a missed poll.
    The next sample of every interface the lost reading carried pairs the
    reads on either side of it (the baseline is the read before: the gap
    kept it), over the longer interval, and is the true octet growth
    between them."""

    @pytest.mark.parametrize("tier", ["flat", "worker", "leaf"])
    def test_the_next_sample_spans_the_lost_reading(self, tier):
        with pytest.MonkeyPatch.context() as patch:
            rig, stats = _flat_loss(patch) if tier == "flat" else _tree_loss(patch, tier)
        rig.check_every_accepted_sample()
        dropped = rig.lost - rig.unreadable
        assert dropped
        if tier != "flat":
            assert stats["gaps_detected"] == 1 and stats["failovers"] == 0
            # An interface moved in the lost batch and was still after it:
            # its next entry names values only the lost batch carried.
            assert rig.unreadable
        spanned = 0
        for node, if_index, uptime in dropped:
            lost_at = rig.reads[(node, uptime)][0]
            sample = rig.first_after((node, if_index), lost_at)
            behind = rig.uptimes[(sample.node, sample.time)] - round(sample.interval * 100)
            reads = [up for (n, up), (_, rows) in rig.reads.items()
                     if n == node and if_index in rows and up < uptime]
            assert behind == max(reads), (node, if_index)
            spanned += sample.interval > 1.5 * rig.poll_interval
        # Over a longer interval, but for the flat manager's retry: read
        # within the poll it retries.
        assert spanned == (0 if tier == "flat" else len(dropped))
