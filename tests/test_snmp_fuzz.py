"""Hostile input on the SNMP ports: byte-mutated *valid* messages at every
receiver, and the streaming column reader held equal to the general decoder.

``tests/test_robustness.py`` throws random bytes, which die at the first
TLV.  Here the seeds are valid messages -- every PDU kind, v1 traps, every
value type, a 97-varbind interface-poll reply -- and one to three bytes are
set, deleted, inserted or bit-flipped, so a mutant gets as deep into a
decoder as a real corrupt datagram would.  The contract at every receiver
(``Message.decode``, ``SnmpAgent``, ``SnmpManager`` with a GET and an
interface-poll walk pending, ``TrapReceiver``, ``InformSender``): a
``BerError`` / counted reject or a valid object, never another exception,
and on a reject no pending request, timer, estimator, walk table or dedup
entry has changed.

The differential properties at the end hold the two fast paths to the
general codec (``tests/snmp_reference.py``): the agent's reply writer to
the old handlers' ``Message(...).encode()``, and ``_read_columns`` to
``decode_varbinds`` plus the old classification -- same rows, same uptime,
the same ``BerError`` or none; and a reply read against the last reply to
the same request to ``_read_columns`` on its own bytes.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet.network import Network
from repro.snmp import ber
from repro.snmp.agent import SnmpAgent
from repro.snmp.ber import BerError
from repro.snmp.datatypes import (
    Counter32,
    Counter64,
    EndOfMibView,
    Gauge32,
    Integer,
    IpAddress,
    NoSuchInstance,
    NoSuchObject,
    Null,
    ObjectIdentifier,
    OctetString,
    TimeTicks,
)
from repro.snmp.manager import (
    MAX_WALK_EXCHANGES,
    SnmpManager,
    _BulkWalk,
    _column_set,
    _read_columns,
    _Reading,
)
from repro.snmp.message import VERSION_1, VERSION_2C, Message, decode_header
from repro.snmp.mib import (
    IF_DESCR,
    IF_ENTRY,
    IF_IN_NUCAST_PKTS,
    IF_IN_OCTETS,
    IF_IN_UCAST_PKTS,
    IF_INDEX,
    IF_OPER_STATUS,
    IF_OUT_NUCAST_PKTS,
    IF_OUT_OCTETS,
    IF_OUT_UCAST_PKTS,
    IF_SPEED,
    SYS_DESCR,
    SYS_UPTIME,
    build_mib2,
)
from repro.snmp.oid import Oid
from repro.snmp.pdu import Pdu, VarBind, decode_varbinds
from repro.snmp.trap import (
    TRAP_LINK_DOWN,
    InformSender,
    TrapReceiver,
    TrapV1Pdu,
    build_trap_pdu,
)
from tests.snmp_reference import (
    agent_reply,
    counted,
    old_classification,
    old_encode,
    old_outcome,
    old_reply,
)

COLUMNS = [
    IF_IN_OCTETS, IF_OUT_OCTETS, IF_IN_UCAST_PKTS, IF_OUT_UCAST_PKTS,
    IF_IN_NUCAST_PKTS, IF_OUT_NUCAST_PKTS,
]
PORTS = 16
INFORM_ID = 0x7001
EVERY_VALUE = [
    Integer(-5), Integer(2**31 - 1), OctetString(b"eth0"), Null(),
    ObjectIdentifier("1.3.6.1.4.1.99999.1"), IpAddress("10.0.0.7"),
    Counter32(2**32 - 1), Gauge32(100_000_000), TimeTicks(4242),
    Counter64(2**63), NoSuchObject(), NoSuchInstance(), EndOfMibView(),
]


# ----------------------------------------------------------------------
# Rigs and seeds
# ----------------------------------------------------------------------
def lan():
    """Manager host L, a second host S1 and a managed 16-port switch with
    an agent.  Nothing runs: datagrams are handed to the receivers."""
    net = Network()
    host, peer = net.add_host("L"), net.add_host("S1")
    switch = net.add_switch("sw", PORTS, managed=True)
    net.connect(host, switch)
    net.connect(peer, switch)
    net.announce_hosts()
    agent = SnmpAgent(net.endpoint("sw"), build_mib2(switch, net.sim))
    return net, host, peer, agent


class Outcomes:
    """Callbacks that record which request ended how."""

    def __init__(self):
        self.ended = []

    def ok(self, name):
        return lambda result: self.ended.append((name, "ok", result))

    def fail(self, name):
        return lambda exc: self.ended.append((name, "error", exc))


def manager_rig():
    """A manager with one GET (request-id 1) and one interface-poll walk
    (request-id 2, its first exchange) pending."""
    net, host, _peer, agent = lan()
    manager = SnmpManager(host, retries=1)
    got = Outcomes()
    agent_ip = net.endpoint("sw").primary_ip
    manager.get(
        agent_ip, [SYS_UPTIME, IF_DESCR.extend(1)], got.ok("get"), got.fail("get")
    )
    manager.poll_interfaces(
        agent_ip, range(1, PORTS + 1), COLUMNS, got.ok("poll"), got.fail("poll")
    )
    walk = manager._pending[2].callback.__self__
    return net, manager, agent, walk, got


def _message(pdu, version=VERSION_2C, community="public"):
    return Message(version, community, pdu).encode()


def _seeds():
    _net, manager, agent, _walk, _got = manager_rig()
    get_request, walk_request = (manager._pending[i].payload for i in (1, 2))
    reply_get = old_reply(agent.mib, "public", get_request)
    reply_walk = old_reply(agent.mib, "public", walk_request)
    assert len(Message.decode(reply_walk).pdu.varbinds) == 1 + len(COLUMNS) * PORTS
    oids = [SYS_UPTIME, IF_IN_OCTETS.extend(1), IF_ENTRY + "99.1"]
    requests = [
        get_request,
        walk_request,
        _message(Pdu.get_request(5, oids), VERSION_1),
        _message(Pdu.get_next_request(6, [SYS_DESCR, Oid("2.999")])),
        _message(Pdu.get_next_request(7, [Oid("2.999")]), VERSION_1),
        _message(Pdu.get_bulk_request(8, [SYS_UPTIME.parent, IF_SPEED], 1, 20)),
        _message(Pdu(ber.TAG_SET_REQUEST, 9, 0, 0, [VarBind(SYS_DESCR, OctetString("x"))])),
        _message(Pdu.get_request(10, oids), community="private"),
    ]
    every_value = Pdu(
        ber.TAG_GET_RESPONSE, 1, 0, 0,
        [VarBind(IF_ENTRY.extend(1, i + 1), value) for i, value in enumerate(EVERY_VALUE)],
    )
    responses = [
        reply_get,
        reply_walk,
        _message(every_value),
        _message(Pdu(ber.TAG_GET_RESPONSE, 1, 2, 1, [VarBind(SYS_UPTIME)]), VERSION_1),
        _message(Pdu(ber.TAG_GET_RESPONSE, INFORM_ID, 0, 0, [])),
    ]
    v1_trap = TrapV1Pdu(
        Oid("1.3.6.1.4.1.99999"), IpAddress("10.0.0.7"), 2, 0, TimeTicks(4242),
        [VarBind(IF_DESCR.extend(3), OctetString("eth2"))],
    )
    notifications = [
        _message(build_trap_pdu(TimeTicks(100), TRAP_LINK_DOWN, [VarBind(IF_INDEX + "3", Integer(3))])),
        _message(inform_pdu()),
        _message(v1_trap, VERSION_1),
        _message(dataclasses.replace(v1_trap, generic_trap=6, specific_trap=17), VERSION_1),
    ]
    return requests, responses, notifications


def inform_pdu():
    pdu = build_trap_pdu(
        TimeTicks(100), TRAP_LINK_DOWN, [VarBind(IF_DESCR.extend(3), Integer(3))],
        confirmed=True,
    )
    pdu.request_id = INFORM_ID
    return pdu


REQUESTS, RESPONSES, NOTIFICATIONS = _seeds()
EVERYTHING = REQUESTS + RESPONSES + NOTIFICATIONS
REPLY_GET, REPLY_WALK = RESPONSES[0], RESPONSES[1]

# The two inputs that escaped a socket callback at the parent commit.
STATUS_16 = _message(Pdu(ber.TAG_GET_RESPONSE, 1, 16, 1, [VarBind(SYS_UPTIME)]))
STATUS_65 = _message(Pdu(ber.TAG_GET_RESPONSE, 1, 65, 0, []))
NEGATIVE_SPECIFIC_TRAP = _message(
    TrapV1Pdu(
        Oid("1.3.6.1.4.1.99999"), IpAddress("10.0.0.7"), 6, -1, TimeTicks(1), []
    ),
    VERSION_1,
)


@st.composite
def mutated(draw, seeds, least=1, hows=("set", "delete", "insert", "flip")):
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(least, 3))):
        how = draw(st.sampled_from(hows))
        if how == "insert":
            data.insert(draw(st.integers(0, len(data))), draw(st.integers(0, 255)))
        elif data:
            at = draw(st.integers(0, len(data) - 1))
            if how == "set":
                data[at] = draw(st.integers(0, 255))
            elif how == "delete":
                del data[at]
            else:
                data[at] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


# An insert or a delete breaks every enclosing length; to reach the
# varbinds behind a header that still parses, keep the size.
SAME_SIZE = ("set", "flip")


# ----------------------------------------------------------------------
# Message.decode
# ----------------------------------------------------------------------
class TestMessageDecode:
    def test_every_seed_is_valid(self):
        for payload in EVERYTHING:
            assert Message.decode(payload).encode() == payload

    def test_the_one_envelope_writer_writes_the_old_bytes(self):
        """``Message.encode`` through ``encode_message`` over ``encode_pdu``
        (or a v1 Trap-PDU's own writer) against the parent's two nested
        writers, on every PDU kind and value type."""
        for payload in EVERYTHING:
            message = Message.decode(payload)
            assert message.encode() == old_encode(message) == payload

    @settings(max_examples=600, deadline=None)
    @given(payload=mutated(EVERYTHING))
    @example(payload=NEGATIVE_SPECIFIC_TRAP)
    def test_ber_error_or_a_message_that_round_trips(self, payload):
        try:
            message = Message.decode(payload)
        except BerError:
            return
        assert isinstance(message, Message) and isinstance(message.pdu.kind, str)
        # A valid object: it encodes, and decodes again to itself.
        assert Message.decode(message.encode()) == message


# ----------------------------------------------------------------------
# SnmpAgent
# ----------------------------------------------------------------------
class TestAgent:
    @settings(max_examples=400, deadline=None)
    @given(payload=mutated(REQUESTS + RESPONSES[2:] + NOTIFICATIONS, least=0))
    def test_counted_reject_or_the_old_handlers_reply(self, payload):
        net, _host, peer, agent = lan()
        events = net.sim.pending_count()
        reply = agent_reply(agent, payload, peer.primary_ip)
        assert agent.in_packets == 1
        rejected = agent.malformed + agent.bad_community + agent.unsupported
        assert rejected in (0, 1)
        if rejected:
            assert reply is None and net.sim.pending_count() == events
            assert (agent.get_requests, agent.out_packets) == (0, 0)
        else:
            # Answered: one reply scheduled, and byte for byte the one the
            # parent's handlers built through Message(...).encode().
            assert reply == old_reply(agent.mib, agent.community, payload)
            assert net.sim.pending_count() == events + 1

    @settings(max_examples=400, deadline=None)
    @given(payload=mutated(REQUESTS + RESPONSES[2:] + NOTIFICATIONS, least=0))
    def test_the_same_twice_at_a_warm_agent(self, payload):
        """The test above meets a cold agent every time and cannot see a
        stale memo.  Here the agent has answered every valid request, and
        each mutant arrives twice: the same counted reject both times, or
        the old handlers' reply to the MIB as it then stands -- whatever
        the first delivery left behind (a decoded list, a written
        varbind), the second is served as if it were the first."""
        net, _host, peer, agent = lan()
        for request in REQUESTS:
            agent._on_datagram(request, len(request), peer.primary_ip, 4000)
        outcome = old_outcome(agent.community, payload)
        for _delivery in range(2):
            before = counted(agent)
            reply = agent_reply(agent, payload, peer.primary_ip)
            if outcome is not None:
                before[outcome] += 1
            assert counted(agent) == before
            if outcome in (None, "get_requests"):
                assert reply == old_reply(agent.mib, agent.community, payload)
            else:
                assert reply is None


# ----------------------------------------------------------------------
# SnmpManager, with a GET and an interface-poll walk pending
# ----------------------------------------------------------------------
def responses(manager):
    """(matched, unmatched) responses, as the manager's registry counts them."""
    value = manager.telemetry.registry.value
    return value("snmp_responses_total"), value("snmp_responses_unmatched_total")


def manager_state(manager, walk):
    """Everything a datagram can move, bar the two reject counters."""
    return (
        sorted((i, p.attempts, manager.sim.pending(p.timer)) for i, p in manager._pending.items()),
        {ip: (e.srtt, e.rttvar, e.rto, e.samples) for ip, e in manager._estimators.items()},
        (manager.requests_sent, responses(manager)[0]),
        (walk.exchanges, walk.uptime, list(walk.cursor_rows), list(walk.done)),
        [dict(table) for table in walk.tables],
    )


class TestManager:
    @settings(max_examples=400, deadline=None)
    @given(payload=mutated(RESPONSES + REQUESTS[:2] + NOTIFICATIONS[2:], least=0))
    @example(payload=STATUS_16)
    @example(payload=STATUS_65)
    @example(payload=NOTIFICATIONS[2])  # a v1 Trap-PDU on the manager's port
    def test_reject_changes_nothing_and_a_match_ends_one_request(self, payload):
        net, manager, _agent, walk, got = manager_rig()
        before = manager_state(manager, walk)
        manager._on_datagram(payload, len(payload), None, 161)
        rejects = manager.decode_errors + responses(manager)[1]
        assert rejects in (0, 1)
        if rejects:
            assert manager_state(manager, walk) == before and got.ended == []
            return
        # Matched: that request is gone and ended exactly once -- or, for
        # the walk, went on to its next exchange.
        assert responses(manager)[0] == 1
        if 1 not in manager._pending:
            assert [name for name, _how, _what in got.ended] == ["get"]
            assert 2 in manager._pending
        else:
            assert 2 not in manager._pending
            went_on = manager.requests_sent == 3 and len(manager._pending) == 2
            assert went_on != ([name for name, *_ in got.ended] == ["poll"])

    def test_the_valid_replies_complete_both_requests(self):
        net, manager, _agent, walk, got = manager_rig()
        for payload in (REPLY_WALK, REPLY_GET):
            manager._on_datagram(payload, len(payload), None, 161)
        (_, how, (uptime, tables)), (_, _, varbinds) = got.ended
        assert how == "ok" and not manager._pending
        assert uptime == 0 and [len(tables[col]) for col in COLUMNS] == [PORTS] * 6
        assert [vb.oid for vb in varbinds] == [SYS_UPTIME, IF_DESCR.extend(1)]

    def test_a_v1_trap_on_the_managers_port_is_unmatched(self):
        net, manager, _agent, walk, got = manager_rig()
        manager._on_datagram(NOTIFICATIONS[2], len(NOTIFICATIONS[2]), None, 162)
        assert (responses(manager)[1], manager.decode_errors) == (1, 0)
        manager._on_datagram(NEGATIVE_SPECIFIC_TRAP, len(NEGATIVE_SPECIFIC_TRAP), None, 162)
        assert (responses(manager)[1], manager.decode_errors) == (1, 1)


# ----------------------------------------------------------------------
# TrapReceiver and InformSender
# ----------------------------------------------------------------------
def listening(host):
    """A receiver on ``host`` and the list its callback delivers into."""
    events = []
    return TrapReceiver(host, callback=events.append), events


def receiver_state(net, receiver, events):
    return (
        list(events), set(receiver._seen_informs), receiver.informs_acked,
        receiver.duplicate_informs, net.sim.pending_count(),
    )


class TestTrapReceiver:
    @settings(max_examples=400, deadline=None)
    @given(payload=mutated(NOTIFICATIONS + RESPONSES[2:] + REQUESTS[:1], least=0))
    @example(payload=NEGATIVE_SPECIFIC_TRAP)
    def test_counted_reject_or_one_event(self, payload):
        net, host, peer, _agent = lan()
        receiver, events = listening(host)
        before = receiver_state(net, receiver, events)
        receiver._on_datagram(payload, len(payload), peer.primary_ip, 4000)
        rejected = receiver.malformed + receiver.bad_community
        assert rejected in (0, 1)
        if rejected:
            assert receiver_state(net, receiver, events) == before
        else:
            assert len(events) == 1
            event = events[0]
            assert isinstance(event.trap_oid, Oid) and isinstance(event.uptime, TimeTicks)
            assert len(receiver._seen_informs) == receiver.informs_acked <= 1

    def test_negative_specific_trap_is_malformed(self):
        """The parent's failing case: ``enterprise.0.-1`` is no OID, and
        ``OidError`` left the socket callback."""
        net, host, peer, _agent = lan()
        receiver, events = listening(host)
        receiver._on_datagram(
            NEGATIVE_SPECIFIC_TRAP, len(NEGATIVE_SPECIFIC_TRAP), peer.primary_ip, 4000
        )
        assert receiver.malformed == 1 and events == []

    def test_a_malformed_inform_is_neither_acknowledged_nor_remembered(self):
        """The parent acknowledged an inform and remembered its id before
        finding that its first varbind was no sysUpTime TimeTicks: a
        counted reject that still sent a datagram and moved the dedup set."""
        net, host, peer, _agent = lan()
        receiver, events = listening(host)
        pdu = inform_pdu()
        pdu.varbinds[0] = VarBind(SYS_UPTIME, Integer(100))
        payload = _message(pdu)
        before = receiver_state(net, receiver, events)
        receiver._on_datagram(payload, len(payload), peer.primary_ip, 4000)
        assert receiver.malformed == 1 and receiver_state(net, receiver, events) == before


class TestInformSender:
    @settings(max_examples=300, deadline=None)
    @given(payload=mutated(RESPONSES + NOTIFICATIONS[:2], least=0))
    def test_only_its_own_acknowledgement_settles_an_inform(self, payload):
        net, host, peer, _agent = lan()
        sender = InformSender(peer, host.primary_ip)
        sender.send(inform_pdu())
        (attempts, timer), sent = sender._pending[INFORM_ID][1:], sender.sent
        sender._on_datagram(payload, len(payload), host.primary_ip, 162)
        try:
            pdu = Message.decode(payload).pdu
            settles = pdu.kind == "response" and pdu.request_id == INFORM_ID
        except BerError:
            settles = False
        if settles:
            assert sender.acked == 1 and not sender._pending and not net.sim.pending(timer)
        else:
            assert sender.acked == 0 and sender.sent == sent
            assert sender._pending[INFORM_ID][1:] == [attempts, timer] and net.sim.pending(timer)


# ----------------------------------------------------------------------
# Differential: the column reader is the general decoder, on a subset
# ----------------------------------------------------------------------
def read_both_ways(payload, columns):
    """(reader's answer, general decoder's answer), ``BerError`` standing
    for itself; ``None`` when the header already fails (one parser)."""
    try:
        start, end = decode_header(payload)[-2:]
    except BerError:
        return None
    answers = []
    for read in (
        lambda: _read_columns(payload, start, end, _column_set(tuple(columns))),
        lambda: old_classification(decode_varbinds(payload, start, end), columns),
    ):
        try:
            answers.append(read())
        except BerError:
            answers.append(BerError)
    return tuple(answers)


POLL_COLUMNS = COLUMNS + [IF_OPER_STATUS, IF_SPEED]
# Prefixes of two encoded lengths, one column nested in another, and one
# whose arcs need two octets each.
ODD_COLUMNS = [IF_IN_OCTETS, IF_IN_OCTETS.extend(7), IF_ENTRY, Oid("1.3.6.1.4.1.99999.300")]


def _tlv(tag, content, long_form=False):
    if long_form:  # a legal, non-minimal length
        return bytes((tag, 0x81, len(content))) + content
    return ber.encode_tlv(tag, content)


@st.composite
def arc_octets(draw, arc):
    """Base-128 octets of one arc, sometimes with redundant 0x80 leads."""
    minimal = ber.encode_oid_content(Oid((1, 3, arc)))[1:]
    return b"\x80" * draw(st.sampled_from([0, 0, 0, 1, 2])) + minimal


UNSIGNED32 = [
    b"\x00", b"\x7f", b"\x00\x80", b"\xff\xff", b"\x00\xff\xff\xff\xff",
    b"\x00\x00\x00\x00\x91", b"\xff\xff\xff\xff",
]
LEGAL_VALUES = (
    [(tag, c) for tag in (ber.TAG_COUNTER32,) * 3 + (ber.TAG_GAUGE32, ber.TAG_TIMETICKS)
     for c in UNSIGNED32]
    + [(ber.TAG_INTEGER, c) for c in (b"\x01", b"\x80", b"\xff\xff", b"\x01\x00\x00\x00\x00")]
    + [(ber.TAG_END_OF_MIB_VIEW, b""), (ber.TAG_NO_SUCH_INSTANCE, b""), (ber.TAG_NULL, b""),
       (ber.TAG_OCTET_STRING, b"eth0"), (ber.TAG_IPADDRESS, b"\x0a\x00\x00\x07"),
       (ber.TAG_COUNTER64, b"\x00\xff\xff\xff\xff\xff\xff\xff\xff")]
)
ILLEGAL_VALUES = [
    (ber.TAG_COUNTER32, b""), (ber.TAG_COUNTER32, b"\x01\x00\x00\x00\x00"),
    (ber.TAG_GAUGE32, b"\x00\x01\x00\x00\x00\x00"), (ber.TAG_INTEGER, b""),
    (ber.TAG_END_OF_MIB_VIEW, b"\x00"), (ber.TAG_NULL, b"\x00"), (ber.TAG_OPAQUE, b"\x01"),
    (ber.TAG_IPADDRESS, b"\x0a\x00\x07"), (ber.TAG_COUNTER64, b"\x01" + b"\x00" * 8),
]


@st.composite
def values(draw, hostile):
    pool = LEGAL_VALUES + ILLEGAL_VALUES if hostile and draw(st.integers(0, 5)) == 0 else LEGAL_VALUES
    tag, content = draw(st.sampled_from(pool))
    return _tlv(tag, content, draw(st.integers(0, 7)) == 0)


@st.composite
def poll_replies(draw):
    """A Response shaped like an interface poll's -- column-major,
    row-interleaved or GET-ordered, rows 1-300 -- with legal oddities
    (long-form lengths, redundant arc octets, zero-padded counters, other
    types) and, in a ``hostile`` one, illegal ones mixed in cell by cell
    (empty and overflowing integers, trailing octets)."""
    columns = draw(st.sampled_from([POLL_COLUMNS, ODD_COLUMNS]))
    hostile = draw(st.booleans())
    rows = draw(st.lists(st.integers(0, 300), min_size=1, max_size=6, unique=True))
    layout = draw(st.sampled_from(["column-major", "row-interleaved", "get"]))
    if layout != "get":
        rows.sort()
    if layout == "column-major":
        cells = [(col, row) for col in columns for row in rows]
    else:
        cells = [(col, row) for row in rows for col in columns]
    varbinds = []
    uptime = draw(st.sampled_from(["ticks", "ticks", "counter", "absent", "last"]))
    if uptime in ("ticks", "counter"):
        value = TimeTicks(77) if uptime == "ticks" else Counter32(77)
        varbinds.append(VarBind(SYS_UPTIME, value).encode())
    for col, row in cells:
        prefix = ber.encode_oid_content(col)
        if draw(st.integers(0, 9)) == 0:
            prefix = prefix[:-1] + b"\x80" + prefix[-1:]  # same arcs, other bytes
        oid = prefix + draw(arc_octets(row))
        if draw(st.integers(0, 9)) == 0:
            oid += draw(arc_octets(draw(st.integers(0, 200))))  # a second index arc
        elif draw(st.integers(0, 19)) == 0:
            oid = prefix  # the column itself, no row
        odd = draw(st.integers(0, 11))
        body = _tlv(ber.TAG_OID, oid, odd == 0) + draw(values(hostile))
        if odd == 1 and hostile:
            body += b"\x00"  # trailing octet inside the varbind
        varbinds.append(_tlv(ber.TAG_SEQUENCE, body, odd == 2))
    if uptime == "last":
        varbinds.append(VarBind(SYS_UPTIME, TimeTicks(78)).encode())
    if draw(st.booleans()):
        varbinds.append(VarBind(IF_DESCR.extend(1), OctetString("eth0")).encode())
    pdu = ber.encode_tlv(
        ber.TAG_GET_RESPONSE,
        ber.encode_integer(2) + ber.encode_integer(0) + ber.encode_integer(0)
        + ber.encode_sequence(*varbinds),
    )
    payload = ber.encode_sequence(
        ber.encode_integer(VERSION_2C), ber.encode_octet_string(b"public"), pdu
    )
    return columns, payload


SEQUENCE_ROWS = [1, 2, 127, 128, 300]  # row arcs of one and two octets
EXCEPTIONS = [NoSuchInstance(), EndOfMibView(), Null()]  # NULL: a value, as long
CELL = st.integers(1, 40)  # a varbind after sysUpTime, modulo the reply's
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("move"), CELL, st.sampled_from([0, 1, 2**32 - 1])),
        st.tuples(st.just("move"), CELL, st.sampled_from([0, 1, 2**32 - 1])),
        st.tuples(st.just("tick"), st.sampled_from([0, 200, 2**32 - 1])),
        st.tuples(st.just("exception"), CELL, st.integers(0, 2)),  # of EXCEPTIONS
        st.tuples(st.just("renumber"), CELL),  # another row arc of as many octets
        st.tuples(st.just("leave"), CELL),  # the row is named out of the columns
        st.tuples(st.just("back"), CELL),  # ... and in its column again
        st.tuples(st.just("uptime twice"), st.integers(0, 2**32 - 1)),  # or once again
        st.tuples(st.just("long form"), st.integers(0, 40)),  # toggled
        st.tuples(st.just("mutate")),  # this reply only, by the mutation corpus
    ),
    max_size=12,
)


@st.composite
def reply_sequences(draw):
    """``(layout, rows, counter values, steps)``: an interface poll's first
    reply, GET- or bulk-ordered, and what happens to it poll by poll."""
    layout = draw(st.sampled_from(["get", "bulk"]))
    rows = draw(st.lists(st.sampled_from(SEQUENCE_ROWS), min_size=1, max_size=3, unique=True))
    if layout == "bulk":
        rows.sort()
    values = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    return layout, rows, values, draw(STEPS)


def _reply_cells(layout, rows, values):
    """The reply as ``[oid, value, long form, column, row]`` per varbind."""
    if layout == "bulk":
        order = [(col, row) for col in range(len(COLUMNS)) for row in rows]
    else:
        order = [(col, row) for row in rows for col in range(len(COLUMNS))]
    return [[SYS_UPTIME, TimeTicks(1000), False, None, None]] + [
        [COLUMNS[col].extend(row), Counter32(values[i % len(values)]), False, col, row]
        for i, (col, row) in enumerate(order)
    ]


def _encode_cells(cells):
    """A value given as bytes is its TLV as it stands, legal or not."""
    varbinds = [
        _tlv(
            ber.TAG_SEQUENCE,
            ber.encode_oid(oid) + (value if isinstance(value, bytes) else value.encode()),
            long_form,
        )
        for oid, value, long_form, _col, _row in cells
    ]
    pdu = ber.encode_tlv(
        ber.TAG_GET_RESPONSE,
        ber.encode_integer(2) + ber.encode_integer(0) + ber.encode_integer(0)
        + ber.encode_sequence(*varbinds),
    )
    return ber.encode_sequence(
        ber.encode_integer(VERSION_2C), ber.encode_octet_string(b"public"), pdu
    )


def _step(cells, step):
    """Apply one of :data:`STEPS` to ``cells``; the reply they now encode."""
    kind, *args = step
    if kind == "tick":
        cells[0][1] = TimeTicks((cells[0][1].value + args[0]) % 2**32)
    elif kind == "uptime twice":
        if cells[-1][0] == SYS_UPTIME and len(cells) > 1:
            cells.pop()
        else:
            cells.append([SYS_UPTIME, TimeTicks(args[0]), False, None, None])
    elif kind == "long form":
        cells[args[0] % len(cells)][2] ^= True
    elif kind != "mutate":
        cell = cells[1 + (args[0] - 1) % (len(cells) - 1)]
        oid, value, _long, col, row = cell
        if kind == "move" and isinstance(value, Counter32):
            cell[1] = Counter32((value.value + args[1]) % 2**32)
        elif kind == "exception":
            cell[1] = EXCEPTIONS[args[1]]
        elif kind == "renumber" and col is not None:
            cell[0] = oid.parent.extend(oid[-1] ^ 1)
        elif kind == "leave" and col is not None:
            cell[0] = IF_DESCR.extend(row)
        elif kind == "back" and col is not None:
            cell[0], cell[1] = COLUMNS[col].extend(row), Counter32(row)
    return _encode_cells(cells)


def _filed(manager, rows, reading):
    """What a walk over ``rows`` makes of one reading: its cursors, done
    flags and tables (it is told it may issue no further exchange)."""
    got = []
    columns = _column_set(tuple(COLUMNS))
    walk = _BulkWalk(manager, None, rows, columns, got.append, None, True, None)
    walk.exchanges = MAX_WALK_EXCHANGES
    walk._on_response(reading)
    return walk.cursor_rows, walk.done, got


# sysUpTime.0 as agents may serve it: padded, in five or six octets, out
# of range, empty, under another tag -- and as it should be.
UPTIME_ENCODINGS = [
    _tlv(ber.TAG_TIMETICKS, b"\x00\x05"), _tlv(ber.TAG_TIMETICKS, b"\x00\xff\xff\xff\xff"),
    _tlv(ber.TAG_TIMETICKS, b"\x00\x00\x00\x00\x00\x05"),
    _tlv(ber.TAG_TIMETICKS, b"\x01\x00\x00\x00\x00"), _tlv(ber.TAG_TIMETICKS, b""),
    _tlv(ber.TAG_COUNTER32, b"\x05"), _tlv(ber.TAG_INTEGER, b"\x05"),
    _tlv(ber.TAG_TIMETICKS, b"\x05"), TimeTicks(2**32 - 1),
]
# Counters moved across one, two and three octet boundaries and round the
# wrap, so replies grow and shrink by a varbind or several.
RESIZING_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("move"), CELL, st.sampled_from([1, 2**7, 2**8, 2**16, 2**24, 2**31, 2**32 - 1]),
        ),
        st.tuples(st.just("uptime"), st.integers(0, len(UPTIME_ENCODINGS) - 1)),
        st.tuples(st.just("tick"), st.sampled_from([1, 200, 2**24, 2**32 - 1])),
        st.tuples(st.just("long form"), st.integers(0, 40)),
        st.tuples(st.just("exception"), CELL, st.integers(0, 2)),
        st.tuples(st.just("mutate")),
    ),
    max_size=14,
)


def _resize(cells, step):
    """Apply one of :data:`RESIZING_STEPS` to ``cells``."""
    kind, *args = step
    if kind == "uptime":
        cells[0][1] = UPTIME_ENCODINGS[args[0]]
    elif kind == "tick":
        ticks = cells[0][1].value if isinstance(cells[0][1], TimeTicks) else 0
        cells[0][1] = TimeTicks((ticks + args[0]) % 2**32)
    elif kind == "move":
        cell = cells[1 + (args[0] - 1) % (len(cells) - 1)]
        value = cell[1].value if isinstance(cell[1], Counter32) else 0
        cell[1] = Counter32((value + args[1]) % 2**32)
    elif kind != "mutate":
        _step(cells, step)
    return _encode_cells(cells)


class TestColumnReaderIsTheGeneralDecoder:
    def test_on_the_valid_replies(self):
        for payload in (REPLY_WALK, REPLY_GET, RESPONSES[2]):
            got, want = read_both_ways(payload, COLUMNS)
            assert got == want and got is not BerError
        uptime, rows = read_both_ways(REPLY_WALK, COLUMNS)[0]
        assert uptime == 0
        assert rows[:2] == [(0, 1, Counter32.tag, rows[0][3]), (0, 2, Counter32.tag, rows[1][3])]
        assert len(rows) == len(COLUMNS) * PORTS

    @settings(max_examples=600, deadline=None)
    @given(
        payload=st.one_of(mutated(RESPONSES[:3]), mutated(RESPONSES[:3], hows=SAME_SIZE)),
        columns=st.sampled_from([COLUMNS, ODD_COLUMNS]),
    )
    def test_on_the_mutation_corpus(self, payload, columns):
        answers = read_both_ways(payload, columns)
        if answers is not None:
            assert answers[0] == answers[1]

    @settings(max_examples=800, deadline=None)
    @given(reply=poll_replies(), data=st.data())
    def test_on_every_layout_and_legal_oddity(self, reply, data):
        columns, payload = reply
        if data.draw(st.integers(0, 3)) == 0:
            payload = data.draw(mutated([payload], hows=SAME_SIZE))
        answers = read_both_ways(payload, columns)
        if answers is not None:
            assert answers[0] == answers[1]

    def test_the_named_oddities_one_by_one(self):
        """Rows 127/128/300 (one and two index octets), a redundant 0x80
        lead, a long-form length, a Counter32 padded to five octets and one
        overflowing 2**32: read alike, and the last one rejected alike."""
        def reply(oid_content, value_tlv, long_form=False):
            varbind = _tlv(
                ber.TAG_SEQUENCE, _tlv(ber.TAG_OID, oid_content) + value_tlv, long_form
            )
            return ber.encode_sequence(
                ber.encode_integer(VERSION_2C), ber.encode_octet_string(b"public"),
                ber.encode_tlv(
                    ber.TAG_GET_RESPONSE,
                    ber.encode_integer(2) * 3 + ber.encode_sequence(varbind),
                ),
            )

        prefix = ber.encode_oid_content(IF_IN_OCTETS)
        counter = Counter32(145).encode()
        for octets, row in ((b"\x7f", 127), (b"\x81\x00", 128), (b"\x82\x2c", 300),
                            (b"\x80\x05", 5), (b"\x80\x80\x05", 5)):
            got, want = read_both_ways(reply(prefix + octets, counter), COLUMNS)
            assert got == want == (None, [(0, row, Counter32.tag, 145)])
        got, want = read_both_ways(reply(prefix + b"\x05", counter, long_form=True), COLUMNS)
        assert got == want == (None, [(0, 5, Counter32.tag, 145)])
        padded = _tlv(ber.TAG_COUNTER32, b"\x00\xff\xff\xff\xff")
        got, want = read_both_ways(reply(prefix + b"\x05", padded), COLUMNS)
        assert got == want == (None, [(0, 5, Counter32.tag, 2**32 - 1)])
        overflow = _tlv(ber.TAG_COUNTER32, b"\x01\x00\x00\x00\x00")
        assert read_both_ways(reply(prefix + b"\x05", overflow), COLUMNS) == (BerError, BerError)
        empty = _tlv(ber.TAG_COUNTER32, b"")
        assert read_both_ways(reply(prefix + b"\x05", empty), COLUMNS) == (BerError, BerError)

    @settings(max_examples=300, deadline=None)
    @given(sequence=reply_sequences(), data=st.data())
    @example(  # counters across one and two octets, then the uptime named twice
        sequence=("bulk", [1, 128], [127, 0, 2**32 - 1], [
            ("move", 1, 1), ("move", 2, 1), ("move", 3, 2**32 - 1), ("tick", 200),
            ("uptime twice", 9), ("tick", 0), ("uptime twice", 0), ("long form", 4),
        ]),
        data=st.data(),
    )
    def test_a_reply_read_against_the_last_one_is_read_whole(self, sequence, data):
        """One request, then replies to it in turn: each read against the
        last one read (:meth:`SnmpManager._read`) is what ``_read_columns``
        makes of the same bytes -- rows, uptime, ``BerError`` or none --
        a datagram that raises leaves the memo as it was, and the walk
        files every reading as it files the same bytes read whole."""
        _net, manager, _agent, _walk, _got = manager_rig()
        poll = manager._pending[2].poll  # the interface poll's request
        columns = poll[1]
        layout, rows, values, steps = sequence
        cells = _reply_cells(layout, rows, values)
        for step in [None] + steps:
            payload = _encode_cells(cells) if step is None else _step(cells, step)
            if step is not None and step[0] == "mutate":
                payload = data.draw(mutated([payload]))
            try:
                start, end = decode_header(payload)[-2:]
            except BerError:
                continue  # refused before any reader sees it
            try:
                want = _read_columns(payload, start, end, columns)
            except BerError:
                want = BerError
            before = manager._replies.get(poll)
            try:
                reading = manager._read(poll, payload, start, end)
            except BerError:
                assert want is BerError and manager._replies.get(poll) is before
                continue
            assert (reading.uptime, reading.rows) == want, step
            whole = _Reading(payload, start, end, columns)
            assert _filed(manager, rows, reading) == _filed(manager, rows, whole), step

    @settings(max_examples=300, deadline=None)
    @given(sequence=reply_sequences(), steps=RESIZING_STEPS, data=st.data())
    @example(  # one counter grows a byte, then the uptime five octets long
        sequence=("bulk", [1, 128], [255, 2**24 - 1], []),
        steps=[("move", 1, 1), ("move", 2, 1), ("uptime", 1), ("tick", 1), ("uptime", 4)],
        data=st.data(),
    )
    def test_a_resized_reply_reads_as_the_parents_decoder_read_it(self, sequence, steps, data):
        """Replies to one request whose varbinds grow and shrink, and whose
        sysUpTime comes padded, five octets long, empty or under another
        tag: each read against the last one read is what the parent made
        of the same bytes -- the general decoder's varbinds, classified
        (``tests/snmp_reference.py::old_classification``) -- or the same
        ``BerError``, and a datagram that raises leaves the memo as it was."""
        _net, manager, _agent, _walk, _got = manager_rig()
        poll = manager._pending[2].poll
        layout, rows, values, _steps = sequence
        cells = _reply_cells(layout, rows, values)
        for step in [None] + steps:
            payload = _encode_cells(cells) if step is None else _resize(cells, step)
            if step is not None and step[0] == "mutate":
                payload = data.draw(mutated([payload], hows=SAME_SIZE))
            try:
                start, end = decode_header(payload)[-2:]
            except BerError:
                continue
            try:
                want = old_classification(decode_varbinds(payload, start, end), COLUMNS)
            except BerError:
                want = BerError
            before = manager._replies.get(poll)
            try:
                reading = manager._read(poll, payload, start, end)
            except BerError:
                assert want is BerError and manager._replies.get(poll) is before, step
                continue
            assert (reading.uptime, reading.rows) == want, step
            whole = _Reading(payload, start, end, poll[1])
            assert _filed(manager, rows, reading) == _filed(manager, rows, whole), step

    def test_a_varbind_that_became_two_is_read_whole(self):
        """A reply of the same length whose changed bytes no longer hold one
        varbind where one was: read whole, not half of it read again."""
        _net, manager, _agent, _walk, _got = manager_rig()
        poll = manager._pending[2].poll
        pair = [[COLUMNS[0].extend(1), Counter32(7), False, 0, 1],
                [COLUMNS[1].extend(1), Counter32(9), False, 1, 1]]
        tail = [  # enough unchanged varbinds that the change is worth reading alone
            [COLUMNS[col].extend(row), Counter32(5), False, col, row]
            for col in range(len(COLUMNS)) for row in range(2, 14)
        ]
        uptime = [[SYS_UPTIME, TimeTicks(1000), False, None, None]]
        two = _encode_cells(uptime + pair + tail)
        head = len(ber.encode_oid(pair[0][0])) + 4  # the sequence's and the string's headers
        padding = b"x" * (len(_encode_cells(pair)) - len(_encode_cells([])) - head)
        string = [[COLUMNS[0].extend(1), OctetString(padding), False, 0, 1]]
        one = _encode_cells(uptime + string + tail)
        assert len(one) == len(two)
        for payload in (one, two):
            start, end = decode_header(payload)[-2:]
            reading = manager._read(poll, payload, start, end)
            assert (reading.uptime, reading.rows) == _read_columns(payload, start, end, poll[1])
        assert len(reading.rows) == 2 + len(tail)
