"""Pipelined poll scheduling, delta shipping, and measurement equivalence.

The scaled poll path must change the *cost* of measurement, never the
measurement itself: GetBulk batching against the paper's one GET per
agent, and wire-level delta shipping against the samples the workers'
own pollers produced.
"""

import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deltas import (
    DeltaBatch,
    DeltaDecoder,
    DeltaEncoder,
    is_delta,
    parse_delta,
)
from repro.core.distributed import DistributedMonitor, SampleShipper, poll_targets
from repro.core.poller import (
    POLL_MODES,
    InterfaceRates,
    PollTarget,
    SnmpPoller,
)
from repro.experiments.testbed import MONITOR_HOST, build_testbed
from repro.simnet.network import Network
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.snmp.agent import SnmpAgent
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import build_mib2


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


SAMPLE_FLOATS = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@st.composite
def sample_batches(draw):
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(["sw1", "sw2", "h3"]),
                      st.integers(min_value=1, max_value=6)),
            min_size=1, max_size=6, unique=True,
        )
    )
    n_batches = draw(st.integers(min_value=1, max_value=6))
    batches = []
    for _ in range(n_batches):
        batch = []
        for node, if_index in draw(st.permutations(keys)):
            batch.append(
                InterfaceRates(
                    node, if_index,
                    time=draw(SAMPLE_FLOATS), interval=draw(SAMPLE_FLOATS),
                    in_bytes_per_s=draw(SAMPLE_FLOATS),
                    out_bytes_per_s=draw(SAMPLE_FLOATS),
                    in_pkts_per_s=draw(SAMPLE_FLOATS),
                    out_pkts_per_s=draw(SAMPLE_FLOATS),
                )
            )
        batches.append(batch)
    return batches


class TestDeltaCodec:
    @settings(max_examples=60, deadline=None)
    @given(batches=sample_batches(), kf_every=st.integers(min_value=0, max_value=3))
    def test_round_trip_is_bit_identical(self, batches, kf_every):
        """Whatever mix of FULL/CHANGED/ADVANCE records the encoder
        picks, the decoder must reproduce the exact input samples."""
        encoder = DeltaEncoder("w1")
        decoder = DeltaDecoder()
        for seq, samples in enumerate(batches, start=1):
            keyframe = kf_every > 0 and seq % kf_every == 0
            payload = encoder.encode(1, seq, samples, keyframe=keyframe)
            assert is_delta(payload)
            batch = parse_delta(payload)
            assert (batch.worker, batch.incarnation, batch.seq) == ("w1", 1, seq)
            assert decoder.apply(batch) == samples

    def test_quiescent_stream_shrinks(self):
        """Unchanged rates ship as ADVANCE records, a fraction of what
        the same sample costs as a FULL record."""
        samples = [
            InterfaceRates("sw1", i, 10.0, 2.0, 100.0, 50.0, 10.0, 5.0)
            for i in range(1, 9)
        ]
        sent = []
        shipper = SampleShipper("w1", sent.append, max_batch=8, keyframe_every=0)
        for cycle in range(10):
            for s in samples:
                shipper.enqueue(
                    InterfaceRates(
                        s.node, s.if_index, 10.0 + 2.0 * cycle, 2.0,
                        s.in_bytes_per_s, s.out_bytes_per_s,
                        s.in_pkts_per_s, s.out_pkts_per_s,
                    )
                )
            shipper.flush()
        assert len(sent) == 10
        assert shipper.delta.records_full == 8  # the first batch only
        assert shipper.delta.records_advance == 72
        assert max(map(len, sent[1:])) * 4 < len(sent[0])

    def test_desync_drops_advance_until_keyframe(self):
        encoder = DeltaEncoder("w1")
        decoder = DeltaDecoder()
        mk = lambda t: [InterfaceRates("sw1", 1, t, 2.0, 1.0, 2.0, 3.0, 4.0)]
        decoder.apply(parse_delta(encoder.encode(1, 1, mk(1.0))))
        decoder.mark_desync()  # an unfillable gap was abandoned
        delivered = decoder.apply(parse_delta(encoder.encode(1, 2, mk(3.0))))
        assert delivered == []  # ADVANCE-only batch: context is suspect
        assert decoder.needs_keyframe
        encoder.force_keyframe()
        delivered = decoder.apply(parse_delta(encoder.encode(1, 3, mk(5.0))))
        assert delivered == mk(5.0)
        assert not decoder.needs_keyframe

    def test_fresh_decoder_skips_unknown_ids(self):
        """A restarted receiver cannot interpret CHANGED/ADVANCE records
        for ids it never saw; it must skip them and ask for a keyframe."""
        encoder = DeltaEncoder("w1")
        mk = lambda t: [InterfaceRates("sw1", 1, t, 2.0, 1.0, 2.0, 3.0, 4.0)]
        encoder.encode(1, 1, mk(1.0))  # lost before the restart
        late = DeltaDecoder()
        delivered = late.apply(parse_delta(encoder.encode(1, 2, mk(3.0))))
        assert delivered == []
        assert late.needs_keyframe
        assert late.samples_skipped > 0


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
        # Everything each worker's poller produces, in production order.
        produced = {name: [] for name in dm.workers}
        for name, worker in dm.workers.items():
            ship = worker.poller.on_sample
            worker.poller.on_sample = (
                lambda s, ship=ship, mine=produced[name]: (mine.append(s), ship(s))
            )
        # ...and everything the coordinator's rate table admits.
        landed = []
        update = dm.rates.update
        dm.rates.update = lambda s: (landed.append(s), update(s))
        StaircaseLoad(
            build.network.host("S1"), build.network.ip_of("N1"),
            StepSchedule.pulse(4.0, 20.0, 64 * KBPS),
        ).start()
        dm.start()
        build.network.run(24.0)
        dm.stop()
        build.network.run(25.0)  # drain batches already on the wire
        return dm, produced, landed

    def test_every_polled_sample_lands_bit_identical(self):
        """Same polls, same samples: every sample a worker's poller
        produced reaches the coordinator's rate table bit for bit, float
        fields included, whichever record type carried it."""
        dm, per_worker, landed = self._run(keyframe_every=4)
        produced = [s for samples in per_worker.values() for s in samples]
        shipped = [s for s in produced if s.time < 24.0 - 0.5]  # linger + flight
        assert len(shipped) > 100

        def bits(sample):
            return (sample.node, sample.if_index) + tuple(
                struct.pack("<d", f)
                for f in (sample.time, sample.interval, sample.in_bytes_per_s,
                          sample.out_bytes_per_s, sample.in_pkts_per_s,
                          sample.out_pkts_per_s)
            )

        assert Counter(map(bits, shipped)) <= Counter(map(bits, landed))
        # Nothing invented, nothing doubled.
        assert Counter(map(bits, landed)) <= Counter(map(bits, produced))
        # The latest sample of every key is the producing worker's own latest.
        for samples in per_worker.values():
            latest = {(s.node, s.if_index): s for s in samples}
            assert len(latest) > 0
            for key, sample in latest.items():
                assert bits(dm.rates.latest(*key)) == bits(sample)
        # The run exercised every way a sample can travel.
        encoders = [w.shipper.delta for w in dm.workers.values()]
        assert sum(e.keyframes for e in encoders) > len(encoders)  # periodic ones too
        assert sum(e.records_full for e in encoders) > 0
        assert sum(e.records_changed for e in encoders) > 0
        assert sum(e.records_advance for e in encoders) > 0
        assert dm.stats()["decode_errors"] == 0

    def test_a_sample_ships_for_less_than_a_full_record(self):
        """Even on the ten-interface testbed, where most interfaces
        carry the monitor's own traffic and so ship CHANGED, a sample
        costs less on the wire than one FULL record (>= 53 bytes)."""
        dm, per_worker, _ = self._run()
        shippers = [w.shipper for w in dm.workers.values()]
        samples = sum(s.samples_shipped for s in shippers)
        assert samples == sum(map(len, per_worker.values()))
        assert sum(s.bytes_shipped for s in shippers) < 50 * samples
