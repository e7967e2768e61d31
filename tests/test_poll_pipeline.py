"""Pipelined poll scheduling, delta shipping, and measurement equivalence.

The scaled poll path must change the *cost* of measurement, never the
measurement itself: GetBulk batching against the paper's one GET per
agent, and wire-level delta shipping against the samples the workers'
own pollers derive from the same replies.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deltas import (
    REC_FULL,
    REC_MOVED,
    REC_SAME,
    DeltaDecoder,
    DeltaEncoder,
    is_delta,
    parse_delta,
)
from repro.core.distributed import DistributedMonitor, SampleShipper, poll_targets
from repro.core.poller import POLL_MODES, PollTarget, SnmpPoller
from repro.experiments.testbed import MONITOR_HOST, build_testbed
from repro.simnet.network import Network
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.snmp.agent import SnmpAgent
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import build_mib2
from tests.tree_reference import admitted_by, bits, derive_alongside, held_to_the_pollers


def switch_poller(mode, ports=8, window=0, interval=2.0, with_agent=True):
    """Manager host M polling a managed ``ports``-port switch, with two
    bystander hosts T and D whose traffic crosses ports 2 and 3 only."""
    net = Network()
    mgr = net.add_host("M")
    sw = net.add_switch("sw", ports, managed=True)
    t = net.add_host("T")
    d = net.add_host("D")
    net.connect(mgr, sw)
    net.connect(t, sw)
    net.connect(d, sw)
    net.announce_hosts()
    if with_agent:
        SnmpAgent(net.endpoint("sw"), build_mib2(net.device("sw"), net.sim))
    manager = SnmpManager(mgr, retries=1)
    target = PollTarget("sw", net.endpoint("sw").primary_ip, list(range(1, ports + 1)))
    poller = SnmpPoller(
        manager, [target], interval=interval, jitter=0.0,
        poll_mode=mode, pipeline_window=window,
    )
    return net, poller, manager, t, d


class TestPollModes:
    def test_invalid_mode_rejected(self):
        net, poller, mgr, *_ = switch_poller("get")
        with pytest.raises(ValueError):
            SnmpPoller(mgr, [], poll_mode="telepathy")
        assert POLL_MODES == ("get", "bulk")  # one per plane, nothing else

    def test_bulk_slashes_exchange_count(self):
        """The headline economy: >= 5x fewer exchanges than one GET per
        counter instance, which costs exactly one exchange per OID."""
        net, poller, manager, *_ = switch_poller("bulk", ports=8)
        poller.start()
        net.run(10.0)
        per_varbind = poller.cycles * sum(len(t.oids()) for t in poller.targets)
        assert poller.cycles >= 5
        assert manager.requests_sent * 5 <= per_varbind

    def test_modes_measure_identically(self):
        """Identical background traffic must yield identical rates on
        interfaces that do not carry the poll traffic itself.

        Ports 2/3 carry only T->D load; only port 1 sees the manager's
        (mode-dependent) footprint.  Arrival timestamps differ by the
        modes' round-trip structure, so `time` is excluded; everything
        the measurement pipeline derives must match bit for bit.
        """
        results = {}
        for mode in ("get", "bulk"):
            net, poller, manager, t, d = switch_poller(mode, ports=4)
            StaircaseLoad(
                t, d.primary_ip, StepSchedule.pulse(3.0, 15.0, 48 * KBPS)
            ).start()
            poller.start()
            net.run(16.0)
            results[mode] = {
                (node, i): (
                    s.interval, s.in_bytes_per_s, s.out_bytes_per_s,
                    s.in_pkts_per_s, s.out_pkts_per_s,
                )
                for (node, i) in poller.rates.keys()
                for s in [poller.rates.latest(node, i)]
                if i in (2, 3)
            }
        assert results["get"] == results["bulk"]
        assert ("sw", 2) in results["get"]  # the comparison is not vacuous
        assert results["get"][("sw", 2)][1] > 0  # and saw the load

    @pytest.mark.parametrize("rows, walked", [
        ([4], True), ([2, 3], True), ([2, 4], True), ([2, 5], False),
        ([1, 8], False), ([1, 2, 3, 6], True), ([1, 2, 3, 8], False),
    ])
    def test_a_sparse_target_is_read_by_get(self, rows, walked):
        """A walk reads every row between the lowest and highest ifIndex
        asked for: a bulk-mode poller walks a target only while that spans
        at most 2n - 1 rows, and names a sparser target's instances in a
        GET.  Either way the samples are the rows asked for."""
        net, poller, manager, *_ = switch_poller("bulk", ports=8)
        poller.targets[0].if_indexes = rows
        forms = []
        poll = manager.poll_interfaces

        def spy(*args, bulk, **kwargs):
            forms.append(bulk)
            return poll(*args, bulk=bulk, **kwargs)

        manager.poll_interfaces = spy
        poller.start()
        net.run(5.0)
        assert forms and set(forms) == {walked}
        assert manager.requests_sent == len(forms)  # one exchange a cycle
        assert sorted(i for _, i in poller.rates.keys()) == rows

    def test_bulk_mode_produces_samples(self):
        net, poller, manager, t, d = switch_poller("bulk", ports=6)
        poller.start()
        net.run(6.0)
        assert poller.samples_produced > 0
        assert manager.requests_sent <= 4  # one exchange per cycle


class TestPipelineWindow:
    def test_window_bounds_in_flight(self):
        net, poller, *_ = switch_poller("get", ports=4, window=1)
        # Three more targets (the same switch, split) to create a queue.
        ip = poller.targets[0].address
        poller.targets[:] = [
            PollTarget("sw", ip, [1]), PollTarget("sw", ip, [2]),
            PollTarget("sw", ip, [3]), PollTarget("sw", ip, [4]),
        ]
        poller.start()
        net.run(4.0)
        assert poller.window_peak == 1
        assert poller.window_deferred > 0
        assert poller.samples_produced > 0

    def test_unwindowed_launches_everything(self):
        net, poller, *_ = switch_poller("get", ports=4, window=0)
        poller.start()
        net.run(4.0)
        assert poller.window_deferred == 0
        assert poller.window_overruns == 0

    def test_stale_backlog_counts_overruns(self):
        """A unit still queued when the next cycle starts is an overrun."""
        net, poller, manager, *_ = switch_poller(
            "get", ports=4, window=1, interval=1.0, with_agent=False
        )
        # No agent: every exchange times out (~1s with retry), so the
        # window never frees within a cycle and the backlog goes stale.
        ip = poller.targets[0].address
        poller.targets[:] = [
            PollTarget("sw", ip, [1]), PollTarget("sw", ip, [2]),
            PollTarget("sw", ip, [3]),
        ]
        poller.start()
        net.run(6.0)
        assert poller.window_overruns > 0


COUNTERS = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
AGENTS = ["sw1", "sw2", "h3"]


@st.composite
def reading_batches(draw):
    """Batches of agent readings: each agent polls a fixed set of
    ifIndexes; a row's counters move or repeat, cycle after cycle."""
    polled = {
        node: draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
        for node in draw(st.lists(st.sampled_from(AGENTS), min_size=1, unique=True))
    }
    last, batches = {}, []
    for cycle in range(draw(st.integers(min_value=1, max_value=6))):
        batch = []
        for node in draw(st.permutations(sorted(polled))):
            rows = []
            for index in polled[node]:
                if (node, index) not in last or draw(st.booleans()):
                    last[node, index] = tuple(draw(COUNTERS) for _ in range(6))
                rows.append((index, last[node, index]))
            batch.append(("w1", node, 100 * cycle, 2.0 * cycle, rows))
        batches.append(batch)
    return batches


def _ship(encoder, seq, readings):
    for reading in readings:
        encoder.add(*reading)
    return encoder.close(1, seq)


def _kinds(payloads):
    """How many entries of each kind the payloads carry."""
    return Counter(
        entry[0] for payload in payloads
        for record in parse_delta(payload).records for entry in record[3]
    )


class TestDeltaCodec:
    @settings(max_examples=60, deadline=None)
    @given(batches=reading_batches(), kf_every=st.integers(min_value=0, max_value=3))
    def test_round_trip_is_bit_identical(self, batches, kf_every):
        """Whatever mix of full/moved/same entries the encoder picks, the
        decoder reproduces the exact readings, each row's first reading
        flagged; a keyframe re-states the other agents' last readings
        first."""
        encoder = DeltaEncoder("w1", kf_every)
        decoder = DeltaDecoder()
        seen, last = set(), {}
        for seq, readings in enumerate(batches, start=1):
            payload = _ship(encoder, seq, readings)
            assert is_delta(payload)
            batch = parse_delta(payload)
            assert (batch.worker, batch.incarnation, batch.seq) == ("w1", 1, seq)
            decoded = decoder.apply(batch)
            want = []
            for worker, node, uptime, time, rows in readings:
                first = [i for i, _ in rows if (node, i) not in seen]
                seen.update((node, i) for i, _ in rows)
                want.append((worker, node, uptime, time, rows, first))
            restated, ours = decoded[: len(decoded) - len(want)], decoded[-len(want):]
            assert ours == want
            assert restated == [] or batch.keyframe
            for worker, node, uptime, time, rows, first in restated:
                assert first == [] and last[node] == (uptime, time, rows)
            for _, node, uptime, time, rows, _ in want:
                last[node] = (uptime, time, rows)

    def test_quiescent_stream_shrinks(self):
        """Unmoved counters ship as their id alone, a fraction of what the
        same reading costs full."""
        rows = [(i, (1000 * i, 500, 10, 5, 0, 0)) for i in range(1, 9)]
        sent = []
        shipper = SampleShipper("w1", sent.append, max_batch=8, keyframe_every=0)
        for cycle in range(10):
            shipper.enqueue(("w1", "sw1", 200 * cycle, 2.0 * cycle, rows, ()))
            shipper.flush()
        assert len(sent) == 10
        assert _kinds(sent) == {REC_FULL: 8, REC_SAME: 72}  # full in the first batch only
        assert max(map(len, sent[1:])) * 4 < len(sent[0])

    def test_a_gap_skips_same_until_restated(self):
        """After a gap the receiver keeps its ids and forgets the values:
        a ``same`` entry -- values it may never have seen -- is skipped;
        a ``moved`` entry is delivered, and a keyframe re-states the rest,
        neither of them a first reading (the baselines stand)."""
        encoder = DeltaEncoder("w1", 0)
        decoder = DeltaDecoder()
        rows = lambda p1, p2: [(1, (p1, p1, 1, 1, 0, 0)), (2, (p2, p2, 1, 1, 0, 0))]
        mk = lambda t, p1, p2: [("w1", "sw1", int(100 * t), t, rows(p1, p2))]
        decoder.apply(parse_delta(_ship(encoder, 1, mk(1.0, 10, 7))))
        _ship(encoder, 2, mk(3.0, 20, 7))  # lost: port 1 moved in it
        decoder.forget_values()
        # Port 1 unmoved since the lost batch, port 2 moved.
        delivered = decoder.apply(parse_delta(_ship(encoder, 3, mk(5.0, 20, 9))))
        assert delivered == [("w1", "sw1", 500, 5.0, rows(20, 9)[1:], [])]
        assert decoder.needs_keyframe and decoder.entries_skipped == 1
        encoder.force_keyframe()
        delivered = decoder.apply(parse_delta(_ship(encoder, 4, mk(7.0, 30, 9))))
        assert delivered == [("w1", "sw1", 700, 7.0, rows(30, 9), [])]
        assert not decoder.needs_keyframe
        # Re-stated: unmoved ports read again.
        delivered = decoder.apply(parse_delta(_ship(encoder, 5, mk(9.0, 30, 9))))
        assert delivered == [("w1", "sw1", 900, 9.0, rows(30, 9), [])]

    def test_fresh_decoder_skips_unknown_ids(self):
        """A restarted receiver cannot interpret entries for ids it never
        saw mapped; it must skip them and ask for a keyframe."""
        encoder = DeltaEncoder("w1", 0)
        mk = lambda t: [("w1", "sw1", int(100 * t), t, [(1, (1, 2, 3, 4, 0, 0))])]
        _ship(encoder, 1, mk(1.0))  # lost before the restart
        late = DeltaDecoder()
        delivered = late.apply(parse_delta(_ship(encoder, 2, mk(3.0))))
        assert delivered == []
        assert late.needs_keyframe
        assert late.entries_skipped > 0


class TestShippedEquivalence:
    def _run(self, **options):
        build = build_testbed()
        # Every agent polled, not only the watch's: the pool is pinned.
        dm = DistributedMonitor(
            build, MONITOR_HOST, ["L", "S1", "S2"], poll_interval=2.0,
            max_batch=4, integrity=False,
            targets=poll_targets(build, build.spec.connections), **options,
        )
        dm.watch_path("N1", "N2")
        # What each worker's own poller derives from its replies, in order...
        derived = derive_alongside(dm)
        # ...the interface readings it queues and the bytes it ships...
        sent, queued = {name: [] for name in dm.workers}, []
        for name, worker in dm.workers.items():
            send, enqueue = worker.shipper.send, worker.shipper.enqueue
            worker.shipper.send = (
                lambda p, send=send, mine=sent[name]: (mine.append(p), send(p))
            )
            worker.shipper.enqueue = (
                lambda *rs, enqueue=enqueue: queued.append(enqueue(*rs)) or queued[-1]
            )
        # ...and everything the coordinator's rate table admits.
        landed = admitted_by(dm)
        StaircaseLoad(
            build.network.host("S1"), build.network.ip_of("N1"),
            StepSchedule.pulse(4.0, 20.0, 64 * KBPS),
        ).start()
        dm.start()
        build.network.run(24.0)
        dm.stop()
        build.network.run(25.0)  # drain batches already on the wire
        return dm, derived, landed, sent, queued

    def test_every_polled_sample_lands_bit_identical(self):
        """Same replies, same samples: every sample a worker's own poller
        derives from the replies it reads reaches the coordinator's rate
        table bit for bit, derived there from the shipped integers,
        whichever entry carried them."""
        dm, derived, landed, sent, _ = self._run(keyframe_every=4)
        produced = [sample for _, sample in derived]
        shipped = [s for s in produced if s.time < 24.0 - 0.5]  # cycle closed before stop()
        assert len(shipped) > 100
        assert Counter(map(bits, shipped)) <= Counter(map(bits, landed))
        # Nothing invented, nothing doubled, each worker's in its order.
        assert held_to_the_pollers(landed, derived) == len(landed)
        # The latest sample of every key is the producing worker's own latest.
        latest = {(s.node, s.if_index): s for s in shipped}
        assert len(latest) > 0
        for key, sample in latest.items():
            assert bits(dm.rates.latest(*key)) == bits(sample)
        # The run exercised every way a reading can travel.
        shippers = [w.shipper for w in dm.workers.values()]
        assert sum(s.keyframes_shipped for s in shippers) > len(shippers)  # periodic ones too
        kinds = _kinds([p for payloads in sent.values() for p in payloads])
        assert kinds[REC_FULL] > 0 and kinds[REC_MOVED] > 0 and kinds[REC_SAME] > 0
        assert dm.stats()["decode_errors"] == 0

    def test_a_sample_ships_for_less_than_a_full_record(self):
        """Even on the ten-interface testbed, where most interfaces
        carry the monitor's own traffic and so ship their moved counters,
        a reading costs less on the wire than one full entry (>= 53
        bytes)."""
        dm, _, _, _, queued = self._run()
        shippers = [w.shipper for w in dm.workers.values()]
        samples = sum(s.samples_shipped for s in shippers)
        assert samples == sum(queued)
        assert sum(s.bytes_shipped for s in shippers) < 50 * samples
