"""Tests for the fault-tolerant distributed-monitoring plane.

Covers the two wire codecs (binary sample batches, JSON control
messages, including type-confused payload hardening; the byte-mutation
fuzz lives in test_uplink_fuzz.py), deterministic target partitioning
and its edge cases,
normal-operation semantics vs. the single monitor, worker-crash
failover/failback (the chaos acceptance scenario), ARQ gap repair under
a network partition, and a hypothesis property proving sequence-number
dedup never double-counts a sample.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deltas import DeltaDecoder, DeltaEncoder, DeltaError, parse_delta
from repro.core.distributed import DistributedMonitor, decode_message
from repro.core.poller import InterfaceRates
from repro.experiments.testbed import build_testbed
from repro.simnet.faults import NetworkPartition, WorkerCrash
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule

ALL_SNMP_NODES = ["L", "N1", "N2", "S1", "S2", "switch"]


def batch(seq, samples=(("N1", 1),), worker="S1", inc=1):
    """A sample batch as it arrives at the coordinator: one sample per
    source, every batch a keyframe so that it decodes on its own."""
    return DeltaEncoder(worker).encode(
        inc, seq,
        [
            InterfaceRates(node, if_index, float(seq), 1.0, 10.0, 10.0, 1.0, 1.0)
            for node, if_index in samples
        ],
    )


class TestSampleCodec:
    def test_roundtrip(self):
        sample = InterfaceRates("S1", 3, 12.5, 2.0, 100.5, 50.25, 10.0, 5.0)
        parsed = parse_delta(DeltaEncoder("w").encode(1, 1, [sample]))
        assert DeltaDecoder().apply(parsed) == [sample]

    def test_garbage_rejected(self):
        with pytest.raises(DeltaError):
            parse_delta(b"not json")
        with pytest.raises(ValueError):
            decode_message(b"not json")

    @pytest.mark.parametrize(
        "payload",
        [
            b"[1, 2, 3]",  # JSON, but not an object
            b'"just a string"',
            b"12345",
            b"null",
            b'{"n": "S1"}',  # an object without a kind
            b'{"n": "S1", "i": "x", "t": 0, "d": 1,'
            b' "ib": 0, "ob": 0, "ip": 0, "op": 0}',  # what a JSON sample was
            b'{"n": "S1", "i": [1], "t": 0, "d": 1,'
            b' "ib": 0, "ob": 0, "ip": 0, "op": 0}',
        ],
    )
    def test_type_confused_payloads_rejected(self, payload):
        """Valid JSON that is not a control message is neither of the
        two things the uplink carries."""
        with pytest.raises(DeltaError):
            parse_delta(payload)
        with pytest.raises(ValueError):
            decode_message(payload)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_fuzzed_payloads_raise_only_decode_errors(self, payload):
        for decode in (parse_delta, decode_message):
            try:
                decode(payload)
            except ValueError:
                pass  # the documented decode-failure surface (DeltaError is one)


def distributed(worker_hosts=("L", "S1", "S2"), **kwargs):
    build = build_testbed()
    dm = DistributedMonitor(
        build, coordinator_host="L", worker_hosts=list(worker_hosts),
        poll_jitter=0.0, **kwargs
    )
    return build, dm


def footprint(build, dm):
    """``(SNMP requests the workers sent, octets every host NIC sent)``."""
    requests = sum(
        value for key, value in dm.stats().items()
        if key.startswith("per_worker_requests.")
    )
    octets = sum(
        host.interfaces[0].counters.out_octets for host in build.network.hosts.values()
    )
    return requests, octets


class TestPartitioning:
    def test_every_snmp_node_assigned_exactly_once(self):
        build, dm = distributed()
        assigned = [t for w in dm.workers.values() for t in w.poller.targets]
        assert sorted(t.node for t in assigned) == ALL_SNMP_NODES

    def test_affinity_workers_poll_themselves(self):
        build, dm = distributed()
        assert "L" in dm.targets_of("L")
        assert "S1" in dm.targets_of("S1")
        assert "S2" in dm.targets_of("S2")

    def test_single_worker_gets_everything(self):
        build, dm = distributed(worker_hosts=("S2",))
        assert sorted(dm.targets_of("S2")) == ALL_SNMP_NODES

    def test_no_workers_rejected(self):
        build = build_testbed()
        with pytest.raises(ValueError):
            DistributedMonitor(build, "L", [])

    def test_worker_host_that_is_not_a_poll_target(self):
        # S3 runs no SNMP agent, so it appears nowhere in the target set;
        # it still works fine as a worker and absorbs its round-robin share.
        build, dm = distributed(worker_hosts=("S3", "S1"))
        union = sorted(dm.targets_of("S3") + dm.targets_of("S1"))
        assert union == ALL_SNMP_NODES
        assert "S3" not in union
        assert dm.targets_of("S3")  # the non-agent host still polls others

    def test_more_workers_than_targets_leaves_spares(self):
        hosts = ("L", "S1", "S2", "S3", "S4", "S5", "S6")
        build, dm = distributed(worker_hosts=hosts)
        # Every worker exists (spares are failover capacity), every target
        # is covered exactly once, and no worker is required to have work.
        assert sorted(dm.workers) == sorted(hosts)
        assigned = [n for w in hosts for n in dm.targets_of(w)]
        assert sorted(assigned) == ALL_SNMP_NODES
        assert any(not dm.targets_of(w) for w in hosts)  # at least one spare

    def test_partition_is_deterministic(self):
        _, dm1 = distributed()
        _, dm2 = distributed()
        for worker in ("L", "S1", "S2"):
            assert dm1.targets_of(worker) == dm2.targets_of(worker)


class TestOperation:
    def test_measurements_match_single_monitor_semantics(self):
        build, dm = distributed()
        label = dm.watch_path("S1", "N1")
        net = build.network
        StaircaseLoad(
            net.host("L"), net.ip_of("N1"), StepSchedule.pulse(5.0, 35.0, 300_000.0)
        ).start()
        dm.start()
        net.run(40.0)
        series = dm.history.series(label)
        assert series.used().max() == pytest.approx(300_000 * 1.019, rel=0.08)
        assert dm.samples_received > 0
        assert dm.decode_errors == 0

    def test_load_spread_across_workers(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(20.0)
        stats = dm.stats()
        per_worker = {
            key.split(".", 1)[1]: value
            for key, value in stats.items()
            if key.startswith("per_worker_requests.")
        }
        assert sorted(per_worker) == ["L", "S1", "S2"]
        assert all(count > 0 for count in per_worker.values())

    def test_subscribers_receive_reports(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        seen = []
        dm.subscribe(seen.append)
        dm.start()
        build.network.run(12.0)
        assert len(seen) >= 3

    def test_stop_halts_workers(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(10.0)
        dm.stop()
        build.network.run(11.0)  # drain datagrams already on the wire
        received = dm.samples_received
        build.network.run(40.0)
        assert dm.samples_received == received

    def test_stopped_plane_can_be_rebuilt_on_same_hosts(self):
        # stop() must release every socket (report sink, control sockets,
        # SNMP manager sockets) or the second plane dies on port collision.
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(10.0)
        dm.stop()
        dm2 = DistributedMonitor(
            build, coordinator_host="L", worker_hosts=["L", "S1", "S2"],
            poll_jitter=0.0,
        )
        dm2.watch_path("S1", "N1")
        dm2.start()
        build.network.run(20.0)
        assert dm2.samples_received > 0
        dm2.stop()

    def test_duplicate_watch_rejected(self):
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        with pytest.raises(ValueError):
            dm.watch_path("S1", "N1")

    def test_report_shipping_is_real_traffic(self):
        """Workers' sample datagrams traverse the network to the coordinator."""
        build, dm = distributed(worker_hosts=("S2",))
        dm.watch_path("S1", "N1")
        s2 = build.network.host("S2")
        base = s2.interfaces[0].counters.out_octets
        dm.start()
        build.network.run(15.0)
        assert s2.interfaces[0].counters.out_octets > base + 1000

    def test_malformed_datagrams_counted_not_fatal(self):
        build, dm = distributed()
        bad = [
            b"\x00\xff garbage",
            b"[1,2,3]",
            b'{"k": "hb", "w": "S1"}',  # missing inc/q
            b'{"k": "hb", "w": ["S1"], "inc": 1, "q": 1}',
            b'{"k": "batch", "w": "S1", "inc": 1, "q": 1, "s": []}',  # retired
            batch(1)[:-3],  # truncated sample batch
            b'{"k": "wat"}',
            b'{"no": "kind"}',
        ]
        for payload in bad:
            dm._on_datagram(payload, len(payload), None, 1234)
        assert dm.decode_errors == len(bad)
        # The plane still works afterwards.
        dm.watch_path("S1", "N1")
        dm.start()
        build.network.run(10.0)
        assert dm.samples_received > 0


class TestFailover:
    def test_worker_crash_failover_and_failback(self):
        """The chaos acceptance scenario: kill one of three workers
        mid-run; its targets move to survivors and every watched path
        reports trusted fresh data within three poll cycles; affected
        reports are degraded (never silently stale) in between; on
        recovery the plane rebalances back.  Surviving the crash costs
        within 10 % of a fault-free twin's SNMP requests and NIC octets
        under the same 200 KB/s load."""
        build, dm = distributed()  # poll_interval=2.0
        twin_build, twin = distributed()
        for b, plane in ((build, dm), (twin_build, twin)):
            plane.watch_path("S1", "N1")
            StaircaseLoad(
                b.network.host("L"), b.network.ip_of("N1"),
                StepSchedule.pulse(5.0, 35.0, 200_000.0),
            ).start()
        reports = []
        dm.subscribe(reports.append)
        net = build.network
        WorkerCrash(net.sim, dm.workers["S2"], at=10.0, until=25.0)
        dm.start()

        net.run(20.0)  # mid-crash
        assert dm.worker_states()["S2"] == "dead"
        assert dm.stats()["failovers"] >= 1
        # S2's share (itself + the switch) now belongs to the survivors.
        survivors = dm.targets_of("L") + dm.targets_of("S1")
        assert sorted(survivors) == ALL_SNMP_NODES
        assert dm.assigned_targets_of("S2") == []
        # Re-coverage within 3 poll cycles of the crash: every report
        # after t = 10 + 3*2 s is trusted again.
        settled = [r for r in reports if r.time >= 16.0]
        assert settled and all(r.trusted for r in settled)
        # In the detection window the path was degraded, not silently
        # served from the dead worker's last samples.
        gap_window = [r for r in reports if 11.0 <= r.time <= 14.0]
        assert any(not r.trusted for r in gap_window)

        net.run(40.0)  # recovery at t=25, then settle
        assert dm.worker_states() == {w: "alive" for w in ("L", "S1", "S2")}
        assert dm.stats()["rebalances"] >= 1
        # Affinity restored: S2 polls itself (and its round-robin share).
        assert "S2" in dm.targets_of("S2")
        late = [r for r in reports if r.time >= 28.0]
        assert late and all(r.trusted for r in late)
        assert dm.stats()["degraded_sources"] == 0.0

        twin.start()
        twin_build.network.run(40.0)
        for chaos, calm in zip(footprint(build, dm), footprint(twin_build, twin)):
            assert 0.90 <= chaos / calm <= 1.10

    def test_lease_states_exported(self):
        build, dm = distributed()
        dm.start()
        build.network.run(6.0)
        stats = dm.stats()
        assert stats["workers_alive"] == 3.0
        assert stats["workers_dead"] == 0.0
        assert dm.worker_states() == {w: "alive" for w in ("L", "S1", "S2")}


class TestArq:
    def test_partition_gaps_are_detected_and_refilled(self):
        """Batches lost in a short partition come back via selective
        retransmit from the worker's resend buffer -- no failover, no
        permanent loss, no double-counting."""
        build, dm = distributed()
        dm.watch_path("S1", "N1")
        net = build.network
        # Sever S2's uplink for 1.2 s: long enough to lose batches and
        # heartbeats, short enough that the lease survives (suspect only).
        uplink = net.host("S2").interfaces[0].link
        NetworkPartition(net.sim, [uplink], at=10.0, until=11.2)
        dm.start()
        net.run(30.0)
        stats = dm.stats()
        assert stats["gaps_detected"] >= 1.0
        assert stats["gaps_filled"] == stats["gaps_detected"]
        assert stats["gaps_abandoned"] == 0.0
        assert stats["failovers"] == 0.0
        assert dm.worker_states()["S2"] == "alive"
        assert dm.stats()["degraded_sources"] == 0.0

    def test_unfillable_gap_degrades_then_recovers(self):
        """A gap the worker can no longer serve (evicted from its resend
        buffer) is abandoned: the worker's assigned sources go degraded,
        and fresh in-order samples clear the marks again."""
        build, dm = distributed(integrity=False)
        # S1's affinity share is itself plus round-robined N2.
        assert sorted(dm.assigned_targets_of("S1")) == ["N2", "S1"]
        dm._on_delta(batch(1))
        dm._on_delta(batch(3))  # seq 2 never arrives: gap + retx
        assert dm.stats()["gaps_detected"] == 1.0
        # The worker answers that seq 2 fell out of its resend buffer.
        dm._on_gone({"k": "gone", "w": "S1", "inc": 1, "seqs": [2]})
        dm._sweep()
        stats = dm.stats()
        assert stats["gaps_abandoned"] == 1.0
        # Seq 3 was drained past the abandoned gap; nothing re-delivered.
        assert dm.samples_received == 2
        # Every source S1 is responsible for is now marked lossy...
        assert stats["degraded_sources"] == 2.0
        assert dm.degraded.is_degraded("S1", 1)
        assert dm.degraded.is_degraded("N2", 1)
        # ...until fresh in-order samples arrive and clear the marks.
        dm._on_delta(batch(4, samples=(("S1", 1), ("N2", 1))))
        assert dm.stats()["degraded_sources"] == 0.0


class TestPoolAdmission:
    def test_a_spoofed_batch_mints_no_key(self):
        """A batch with a known worker's name, incarnation and next seq,
        whose records name interfaces outside the poll-target pool, adds
        no key to the rate table or the integrity state; the root counts
        what it dropped."""
        build, dm = distributed()
        dm.start()
        build.network.run(10.0)
        keys, inspected = dm.rates.keys(), set(dm.integrity._interfaces)
        received = dm.samples_received
        state = dm._ingest["S1"]
        ghosts = [("ghost", i) for i in range(1, 2001)]
        dm._on_delta(batch(state.expected, samples=ghosts, inc=state.incarnation))
        assert dm.rates.keys() == keys
        assert set(dm.integrity._interfaces) == inspected
        assert dm.samples_received == received
        assert dm.stats()["foreign_samples"] == 2000.0


class TestSequenceDedup:
    """Sequence-number dedup: whatever order batches arrive in, and
    however often they are duplicated (retransmit overshoot, replays),
    each unique batch is delivered exactly once."""

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(list(range(1, 9))),
        dups=st.lists(st.integers(min_value=1, max_value=8), max_size=12),
    )
    def test_each_sequence_delivered_exactly_once(self, order, dups):
        build, dm = distributed(integrity=False)
        for seq in list(order) + dups:
            dm._on_delta(batch(seq))
        # All 8 unique batches delivered exactly once, however mangled
        # the arrival order and however many duplicates came in.
        assert dm.samples_received == 8
        assert dm.stats()["duplicate_batches"] == float(len(dups))
        # And the rate table holds exactly the newest sample.
        assert dm.rates.latest("N1", 1).time == 8.0

    def test_restarted_worker_sequence_space_is_fresh(self):
        """A restart resets the worker's sequence numbers; the coordinator
        must adopt the new incarnation instead of treating seq 1 as a
        duplicate of the old seq 1."""
        build, dm = distributed(integrity=False)
        dm._on_delta(batch(1))
        dm._on_delta(batch(2))
        assert dm.samples_received == 2
        dm._on_delta(batch(1, inc=2))
        assert dm.samples_received == 3
        assert dm.stats()["duplicate_batches"] == 0.0
        # Stragglers from the previous incarnation are dropped.
        dm._on_delta(batch(2))
        assert dm.samples_received == 3
