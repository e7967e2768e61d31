"""Hostile input on the uplink: byte-mutated datagrams at both decoders.

The uplink carries two things: binary reading batches
(:func:`~repro.core.deltas.parse_delta` then ``DeltaDecoder.apply``) and
JSON control messages (:func:`~repro.core.distributed.decode_message`
then one handler per ``"k"``, on the coordinator and on the endpoint).
The contract for both, at every level: a typed decode error or a valid
object, never another exception, and no state change on a reject.

Seeds are valid datagrams with small numbers; mutations replace bytes
and truncate.  A sequence number far ahead of the stream is *valid*, not
hostile bytes; what it may cost is bounded separately, at the end.  The
retired retransmit kinds, ``retx`` and ``gone``, are unknown kinds now:
a counted decode error at a coordinator, ignored at an endpoint.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deltas import DeltaDecoder, DeltaEncoder, DeltaError, parse_delta
from repro.core.distributed import (
    DistributedMonitor,
    _targets_doc,
    decode_message,
    encode_message,
    poll_targets,
)
from repro.experiments.testbed import build_testbed


def plane():
    """A testbed plane polling every agent, watched or not (its pool
    pinned through ``targets=``): the batches below name them all."""
    build = build_testbed()
    dm = DistributedMonitor(
        build, "L", ["L", "S1", "S2"], poll_jitter=0.0, integrity=False,
        targets=poll_targets(build, build.spec.connections),
    )
    return build, dm


def _batch(encoder, seq, t, octets=1000):
    """S1 read at ``t``: its port 1 at ``octets``, N2's port idle."""
    encoder.add("S1", "S1", int(100 * t), t, [(1, (octets, 10, 1, 1, 0, 0))])
    encoder.add("S1", "N2", int(100 * t), t, [(1, (0, 0, 0, 0, 0, 0))])
    return encoder.close(1, seq)


def _batches():
    """A keyframe, a moved/same batch and a same-only batch."""
    encoder = DeltaEncoder("S1", 0)
    return [
        _batch(encoder, 1, 2.0),
        _batch(encoder, 2, 4.0, octets=21_000),
        _batch(encoder, 3, 6.0, octets=21_000),
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
        for worker, node, uptime, time, rows, first in decoder.apply(batch):
            assert isinstance(worker, str) and isinstance(node, str)
            assert 0 <= uptime < 2**32 and isinstance(time, float)
            for if_index, counters in rows:
                assert isinstance(if_index, int) and len(counters) == 6
                assert all(0 <= c < 2**32 for c in counters)
            assert set(first) <= {if_index for if_index, _ in rows}

    def test_corrupted_name_byte_is_a_decode_error(self):
        """The parent's failing case: a name that is no longer UTF-8."""
        payload = bytearray(BATCHES[0])
        payload[payload.index(b"N2", 4)] = 0xFF  # the second record's node name
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
# The closing batch's assignment-version echo
# ----------------------------------------------------------------------
def _closing(av=b"\x01"):
    """S1's second batch, closing its cycle, with ``av`` as the raw bytes
    of its assignment-version varint (one byte after the flags)."""
    encoder = DeltaEncoder("S1", 0)
    _batch(encoder, 1, 2.0)
    encoder.add("S1", "S1", 400, 4.0, [(1, (21_000, 10, 1, 1, 0, 0))])
    payload = encoder.close(1, 2, av=1)
    assert payload[2:3] == b"\x01"
    return payload[:2] + av + payload[3:]


BAD_ECHOES = {
    "truncated": _closing()[:2] + b"\x81",
    "over-long": _closing(b"\xff" * 10 + b"\x01"),
    "huge": _closing(b"\x80\x80\x80\x80\x80\x01"),  # 2**35
}


class TestClosingBatchEcho:
    def test_a_valid_echo_parses(self):
        batch = parse_delta(_closing())
        assert batch.closes and batch.av == 1 and batch.seq == 2

    @pytest.mark.parametrize("kind", sorted(BAD_ECHOES))
    def test_a_bad_echo_is_one_decode_error_and_renews_nothing(self, kind):
        payload = BAD_ECHOES[kind]
        with pytest.raises(DeltaError):
            parse_delta(payload)
        build, dm = plane()
        dm._on_datagram(BATCHES[0], len(BATCHES[0]), None, 1234)
        before = ingest_state(dm)
        dm._on_datagram(payload, len(payload), None, 1234)
        assert dm.decode_errors == 1
        assert ingest_state(dm) == before

    @settings(max_examples=200, deadline=None)
    @given(payload=mutated([_closing()]))
    def test_mutated_closing_batches_are_dropped_whole_or_handled(self, payload):
        build, dm = plane()
        dm._on_datagram(BATCHES[0], len(BATCHES[0]), None, 1234)
        before = ingest_state(dm)
        dm._on_datagram(payload, len(payload), None, 1234)
        if dm.decode_errors:
            assert dm.decode_errors == 1
            assert ingest_state(dm) == before
        else:
            parse_delta(payload)  # handled: it was a batch


# ----------------------------------------------------------------------
# Control messages, coordinator side (hb)
# ----------------------------------------------------------------------
def ingest_state(dm):
    """Everything a datagram can move on the coordinator, bar the
    decode-error counter."""
    stats = dm.stats()
    stats.pop("decode_errors")
    return (
        stats,
        {w: dm.leases._records[w].beats for w in dm.workers},
        {
            w: (s.incarnation, s.expected, s.anchored, s.delta.needs_keyframe)
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

    def test_retired_kinds_are_unknown(self):
        """``retx`` and ``gone`` well formed: a coordinator counts each as
        a decode error and changes nothing; an endpoint ignores them."""
        build, dm = plane()
        worker = dm.workers["S1"]
        before, at_worker = ingest_state(dm), endpoint_state(worker)
        for payload in (TO_COORDINATOR[1], encode_message("retx", inc=1, seqs=[1])):
            dm._on_datagram(payload, len(payload), None, 1234)
            worker._on_control(payload, len(payload), None, 1234)
        assert dm.decode_errors == 2 and ingest_state(dm) == before
        assert endpoint_state(worker) == at_worker

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
# Control messages, endpoint side (assign, kfreq)
# ----------------------------------------------------------------------
def endpoint_state(worker):
    shipper = worker.shipper
    return (
        worker.assign_version,
        [(t.node, tuple(t.if_indexes), t.community) for t in worker.poller.targets],
        shipper.incarnation, shipper.next_seq,
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
        seeds = [_assign(dm, 2), b'{"k":"kfreq","inc":1}']
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
    """A ``q``/seq of 2**40 is a *valid* datagram: a gap of every seq
    before it.  With nothing held or resent, it costs the receiver a
    constant -- the count, the event, the marks, one keyframe request --
    whatever the jump."""

    @pytest.mark.parametrize("kind", ["heartbeat", "batch"])
    def test_costs_a_constant_not_the_jump(self, kind):
        from repro.telemetry.events import SAMPLE_GAP
        from tests.costs import python_calls

        calls = {}
        for far in (2**6, 2**40):
            build, dm = plane()
            dm._on_datagram(BATCHES[0], len(BATCHES[0]), None, 1234)  # expected = 2
            if kind == "heartbeat":
                payload = encode_message("hb", w="S1", inc=1, q=far, av=1)
            else:
                payload = _batch(DeltaEncoder("S1", 0), far, 4.0)
            calls[far] = python_calls(
                lambda: dm._on_datagram(payload, len(payload), None, 1234)
            )
            state, stats = dm._ingest["S1"], dm.stats()
            assert stats["gaps_detected"] == far - 2
            assert state.expected == far + (kind == "batch")
            assert stats["keyframe_requests"] == 1
            # The gap degraded S1's share; a batch's readings span it at once.
            assert stats["degraded_sources"] == (0 if kind == "batch" else 2)
            assert dm.samples_received == (2 if kind == "batch" else 0)
            (event,) = dm.telemetry.events.events(SAMPLE_GAP)
            assert (event.attrs["first"], event.attrs["upto"]) == (2, far)
        assert calls[2**40] == calls[2**6], calls
