"""Hostile input on the uplink: byte-mutated datagrams at both decoders.

The uplink carries two things: binary sample batches
(:func:`~repro.core.deltas.parse_delta` then ``DeltaDecoder.apply``) and
JSON control messages (:func:`~repro.core.distributed.decode_message`
then one handler per ``"k"``, on the coordinator and on the endpoint).
The contract for both, at every level: a typed decode error or a valid
object, never another exception, and no state change on a reject.

Seeds are valid datagrams with small numbers; mutations replace bytes
and truncate.  A sequence number far ahead of the stream is *valid*, not
hostile bytes; what it may cost is bounded separately, at the end.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deltas import (
    DELTA_MAGIC,
    REC_ADVANCE,
    REC_ADVANCE_SAME_D,
    REC_CHANGED,
    REC_FULL,
    DeltaDecoder,
    DeltaEncoder,
    DeltaError,
    _put_str,
    _put_varint,
    parse_delta,
)
from repro.core.distributed import (
    DistributedMonitor,
    _targets_doc,
    decode_message,
    encode_message,
    poll_targets,
)
from repro.core.poller import InterfaceRates
from repro.experiments.testbed import build_testbed
from tests.sample_reference import reference_parse_delta


def plane():
    """A testbed plane polling every agent, watched or not (its pool
    pinned through ``targets=``): the batches below name them all."""
    build = build_testbed()
    dm = DistributedMonitor(
        build, "L", ["L", "S1", "S2"], poll_jitter=0.0, integrity=False,
        targets=poll_targets(build, build.spec.connections),
    )
    return build, dm


def _samples(t, rate=10.0):
    return [
        InterfaceRates("S1", 1, t, 2.0, rate, 10.0, 1.0, 1.0),
        InterfaceRates("N2", 1, t, 2.0, 0.0, 0.0, 0.0, 0.0),
    ]


def _batches():
    """A keyframe, a CHANGED/ADVANCE batch and an ADVANCE-only batch."""
    encoder = DeltaEncoder("S1")
    return [
        encoder.encode(1, 1, _samples(2.0)),
        encoder.encode(1, 2, _samples(4.0, rate=20.0)),
        encoder.encode(1, 3, _samples(6.0, rate=20.0)),
    ]


BATCHES = _batches()
TO_COORDINATOR = [
    encode_message("hb", w="S1", inc=1, q=3, av=1),
    encode_message("gone", w="S1", inc=1, seqs=[2, 3]),
]


@st.composite
def mutated(draw, seeds):
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(1, len(data))):]
    return bytes(data)


# ----------------------------------------------------------------------
# Sample batches
# ----------------------------------------------------------------------
class TestDeltaDecoders:
    @settings(max_examples=400, deadline=None)
    @given(payload=mutated(BATCHES))
    def test_typed_error_or_samples(self, payload):
        decoder = DeltaDecoder()
        decoder.apply(parse_delta(BATCHES[0]))
        try:
            batch = parse_delta(payload)
        except DeltaError:
            return  # stateless: there is nothing a reject could have touched
        for sample in decoder.apply(batch):
            assert isinstance(sample, InterfaceRates)
            assert isinstance(sample.node, str) and isinstance(sample.if_index, int)

    def test_corrupted_name_byte_is_a_decode_error(self):
        """The parent's failing case: a name that is no longer UTF-8."""
        payload = bytearray(BATCHES[0])
        payload[payload.index(b"S1", 4)] = 0xFF  # the first record's node name
        with pytest.raises(DeltaError):
            parse_delta(bytes(payload))
        build, dm = plane()
        before = ingest_state(dm)
        dm._on_datagram(bytes(payload), len(payload), None, 1234)
        assert dm.decode_errors == 1
        assert ingest_state(dm) == before

    @settings(max_examples=200, deadline=None)
    @given(payload=mutated(BATCHES))
    def test_ingest_counts_rejects_and_changes_nothing(self, payload):
        build, dm = plane()
        dm._on_datagram(BATCHES[0], len(BATCHES[0]), None, 1234)
        before, errors = ingest_state(dm), dm.decode_errors
        dm._on_datagram(payload, len(payload), None, 1234)
        if dm.decode_errors != errors:
            assert dm.decode_errors == errors + 1
            assert ingest_state(dm) == before


# ----------------------------------------------------------------------
# Control messages, coordinator side (hb, gone)
# ----------------------------------------------------------------------
def parsed(parse, payload):
    """What ``parse`` makes of ``payload``: the batch's fields, floats by
    their repr (NaN and -0.0 included), or the error and its words."""
    try:
        batch = parse(payload)
    except DeltaError as exc:
        return "DeltaError", str(exc)
    return batch.worker, batch.incarnation, batch.seq, batch.keyframe, repr(batch.records)


TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0, float("nan"), float("inf")]), st.floats(allow_nan=False),
)
RECORDS = st.one_of(
    st.tuples(st.just(REC_ADVANCE_SAME_D), st.integers(0, 127), TIMES),
    st.tuples(st.just(REC_ADVANCE_SAME_D), st.integers(0, 127), TIMES),
    st.tuples(st.just(REC_ADVANCE_SAME_D), st.integers(128, 20_000), TIMES),
    st.tuples(st.just(REC_ADVANCE), st.integers(0, 300), TIMES),
    st.tuples(st.just(REC_CHANGED), st.integers(0, 300), TIMES),
    st.tuples(st.just(REC_FULL), st.integers(0, 300), TIMES),
)


@st.composite
def steady_batches(draw):
    """A batch of mostly steady records in runs, ids of one octet and of
    more between them, its ``count`` off by a few either way (a run longer
    than ``count``; records ``count`` promises that never come), and its
    last record cut short, sometimes."""
    records = draw(st.lists(RECORDS, max_size=60))
    body = bytearray()
    for kind, rec_id, time in records:
        body.append(kind)
        _put_varint(body, rec_id)
        if kind == REC_FULL:
            _put_str(body, "sw")
            _put_varint(body, rec_id % 50)
        floats = {REC_ADVANCE_SAME_D: 1, REC_ADVANCE: 2}.get(kind, 6)
        body += struct.pack(f"<{floats}d", *[time] * floats)
    if records and draw(st.booleans()):
        del body[len(body) - draw(st.integers(1, 9)):]
    out = bytearray([DELTA_MAGIC, draw(st.sampled_from([0, 1]))])
    _put_str(out, "w")
    _put_varint(out, 1)
    _put_varint(out, 7)
    _put_varint(out, max(0, len(records) + draw(st.integers(-3, 2))))
    return bytes(out + body)


class TestARunIsParsedAsItsRecords:
    """``parse_delta`` unpacks a run of steady records whole; the parent
    parsed them one by one (``tests/sample_reference.py``).  Same batch
    or the same error, word for word, on any bytes."""

    @settings(max_examples=400, deadline=None)
    @given(payload=mutated(BATCHES))
    def test_on_the_fuzz_corpus(self, payload):
        assert parsed(parse_delta, payload) == parsed(reference_parse_delta, payload)

    @settings(max_examples=400, deadline=None)
    @given(payload=steady_batches())
    def test_on_runs_cut_anywhere(self, payload):
        assert parsed(parse_delta, payload) == parsed(reference_parse_delta, payload)

    def test_a_run_longer_than_the_batch_is_the_batch(self):
        body = b"".join(
            bytes((REC_ADVANCE_SAME_D, i % 128)) + struct.pack("<d", 2.0 * i) for i in range(300)
        )
        for count in (0, 1, 127, 128, 129, 299, 300):
            out = bytearray([DELTA_MAGIC, 0])
            _put_str(out, "w")
            for field in (1, 7, count):
                _put_varint(out, field)
            payload = bytes(out) + body[: 10 * count]
            assert parsed(parse_delta, payload) == parsed(reference_parse_delta, payload)
            assert len(parse_delta(payload).records) == count
            if count < 300:  # one record more than it counts: the run stops at the count
                with pytest.raises(DeltaError, match="trailing bytes"):
                    parse_delta(bytes(out) + body[: 10 * count + 10])


def ingest_state(dm):
    """Everything a datagram can move on the coordinator, bar the
    decode-error counter."""
    stats = dm.stats()
    stats.pop("decode_errors")
    return (
        stats,
        {w: dm.leases._records[w].beats for w in dm.workers},
        {
            w: (s.incarnation, s.expected, s.anchored, sorted(s.buffer),
                sorted(s.gaps), s.delta.needs_keyframe)
            for w, s in dm._ingest.items()
        },
        dict(dm._assign_version),
        len(dm.rates),
    )


NON_FINITE = [
    b'{"k":"hb","w":"S1","inc":Infinity,"q":1}',
    b'{"k":"hb","w":"S1","inc":1,"q":1e400}',
    b'{"k":"hb","w":"S1","inc":1,"q":1,"av":-Infinity}',
    b'{"k":"hb","w":"S1","inc":NaN,"q":1}',
    b'{"k":"gone","w":"S1","inc":Infinity,"seqs":[1]}',
    b'{"k":"gone","w":"S1","inc":1,"seqs":[1e999]}',
]


class TestCoordinatorControl:
    @pytest.mark.parametrize("payload", NON_FINITE)
    def test_non_finite_numbers_are_decode_errors(self, payload):
        """``json`` accepts them and ``int(inf)`` is an OverflowError:
        the parent raised it out of the socket callback."""
        with pytest.raises(ValueError):
            decode_message(payload)
        build, dm = plane()
        before = ingest_state(dm)
        dm._on_datagram(payload, len(payload), None, 1234)
        assert dm.decode_errors == 1
        assert ingest_state(dm) == before

    def test_half_valid_heartbeat_does_not_renew_the_lease(self):
        build, dm = plane()
        before = ingest_state(dm)
        for payload in (
            b'{"k":"hb","w":"S1","inc":1}',  # no next_seq
            b'{"k":"hb","w":"S1","inc":2,"q":"soon"}',  # would reset the stream
            b'{"k":"gone","w":"S1","inc":1,"seqs":[1,null]}',
        ):
            dm._on_datagram(payload, len(payload), None, 1234)
        assert dm.decode_errors == 3
        assert ingest_state(dm) == before

    @settings(max_examples=300, deadline=None)
    @given(payload=mutated(TO_COORDINATOR))
    def test_mutated_messages_are_dropped_whole_or_handled(self, payload):
        build, dm = plane()
        before = ingest_state(dm)
        dm._on_datagram(payload, len(payload), None, 1234)
        if dm.decode_errors:
            assert dm.decode_errors == 1
            assert ingest_state(dm) == before
        else:
            decode_message(payload)  # handled: it was a message


# ----------------------------------------------------------------------
# Control messages, endpoint side (retx, assign, kfreq)
# ----------------------------------------------------------------------
def endpoint_state(worker):
    shipper = worker.shipper
    return (
        worker.assign_version,
        [(t.node, tuple(t.if_indexes), t.community) for t in worker.poller.targets],
        shipper.incarnation, shipper.next_seq,
        shipper.retransmits_served, shipper.retransmits_missed,
        shipper.delta._kf_pending,
        worker.manager.requests_sent,
    )


def _assign(dm, version, nodes=("N1", "switch")):
    targets = [t for t in dm.targets if t.node in nodes]
    return encode_message("assign", v=version, t=_targets_doc(targets))


class TestEndpointControl:
    @pytest.mark.parametrize(
        "payload",
        [
            b'{"k":"retx","inc":Infinity,"seqs":[1]}',
            b'{"k":"retx","inc":1,"seqs":[1e400]}',
            b'{"k":"retx","inc":1,"seqs":7}',
            b'{"k":"assign","v":Infinity,"t":[]}',
            b'{"k":"assign","v":9,"t":[{"n":"ghost","ifs":[1],"c":"public"}]}',
            b'{"k":"assign","v":9,"t":[{"n":"N1","ifs":[1e400],"c":"public"}]}',
            b'{"k":"assign","v":9,"t":[{"n":"N1","ifs":[1]}]}',
            b'{"k":"assign","v":9,"t":7}',
        ],
    )
    def test_malformed_control_changes_nothing(self, payload):
        """An assignment is validated in full -- an unknown node used to
        escape as NetworkError -- before ``assign_version`` moves."""
        build, dm = plane()
        worker = dm.workers["S1"]
        worker.shipper.delta.force_keyframe()
        before = endpoint_state(worker)
        worker._on_control(payload, len(payload), None, 1234)
        assert endpoint_state(worker) == before

    def test_valid_assignment_still_applies(self):
        build, dm = plane()
        worker = dm.workers["S1"]
        payload = _assign(dm, 2)
        worker._on_control(payload, len(payload), None, 1234)
        assert worker.assign_version == 2
        assert sorted(t.node for t in worker.poller.targets) == ["N1", "switch"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_control_never_raises_and_applies_atomically(self, data):
        build, dm = plane()
        worker = dm.workers["S1"]
        seeds = [
            _assign(dm, 2),
            b'{"k":"retx","inc":1,"seqs":[1,2]}',
            b'{"k":"kfreq","inc":1}',
        ]
        payload = data.draw(mutated(seeds))
        before = endpoint_state(worker)
        worker._on_control(payload, len(payload), None, 1234)
        try:
            doc = decode_message(payload)
        except ValueError:
            assert endpoint_state(worker) == before
            return
        if worker.assign_version != before[0]:
            # The version moved: then the whole target list came with it.
            assert doc["k"] == "assign" and worker.assign_version == int(doc["v"])
            assert [t.node for t in worker.poller.targets] == [t["n"] for t in doc["t"]]


# ----------------------------------------------------------------------
# A valid sequence number far ahead of the stream
# ----------------------------------------------------------------------
class TestFarAheadSequence:
    """A ``q``/seq of 2**40 is a *valid* datagram.  Everything missing
    further back than the sender's resend buffer is given up by count;
    only the newest window gets gap records and a retransmit request."""

    FAR = 2**40

    @pytest.mark.parametrize("kind", ["heartbeat", "batch"])
    def test_costs_the_window_not_the_jump(self, kind):
        from repro.core.distributed import RESEND_BUFFER
        from repro.telemetry.events import SAMPLE_GAP
        from tests.costs import python_calls

        build, dm = plane()
        dm._on_datagram(BATCHES[0], len(BATCHES[0]), None, 1234)  # expected = 2
        if kind == "heartbeat":
            payload = encode_message("hb", w="S1", inc=1, q=self.FAR, av=1)
        else:
            payload = DeltaEncoder("S1").encode(1, self.FAR, _samples(4.0))
        calls = python_calls(
            lambda: dm._on_datagram(payload, len(payload), None, 1234)
        )
        # Measured 304 / 315, ~6 per gap record in the window (what the
        # parent paid per *missing seq*: 603 769 calls for a jump of 1e5).
        assert calls < 15 * RESEND_BUFFER

        state, stats = dm._ingest["S1"], dm.stats()
        missing = self.FAR - 2
        assert len(state.gaps) == RESEND_BUFFER
        assert state.expected == self.FAR - RESEND_BUFFER
        assert len(state.buffer) == (kind == "batch")
        assert stats["gaps_detected"] == missing
        assert stats["gaps_abandoned"] == missing - RESEND_BUFFER
        assert stats["retx_requests"] == 1 and stats["keyframe_requests"] == 1
        assert stats["degraded_sources"] > 0 and state.delta.needs_keyframe
        abandoned = [
            e for e in dm.telemetry.events.events(SAMPLE_GAP)
            if e.attrs["action"] == "abandoned"
        ]
        assert [(e.attrs["first"], e.attrs["upto"]) for e in abandoned] == [
            (2, self.FAR - RESEND_BUFFER)
        ]

    def test_batches_held_below_the_horizon_are_delivered_not_leaked(self):
        build, dm = plane()
        for payload in (BATCHES[0], BATCHES[2]):  # seq 1 delivered, seq 3 held
            dm._on_datagram(payload, len(payload), None, 1234)
        state = dm._ingest["S1"]
        assert sorted(state.buffer) == [3] and sorted(state.gaps) == [2]
        far = encode_message("hb", w="S1", inc=1, q=self.FAR, av=1)
        dm._on_datagram(far, len(far), None, 1234)
        assert state.buffer == {} and min(state.gaps) >= state.expected
        assert dm.stats()["batches_received"] == 2
