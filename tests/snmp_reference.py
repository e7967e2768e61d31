"""The SNMP message path as it was before it was made fast, kept as the
reference the fast one is held equal to.

- :func:`old_reply` is the agent of the parent commit: three handlers that
  build ``VarBind`` lists, answered through ``Message(...).encode()``.
  The reply writer must produce these bytes.
- :func:`old_classification` is what ``_BulkWalk._on_response`` and the
  poller's ``{vb.oid: vb.value}`` parser made of a decoded varbind list.
  The column reader must produce these rows, or the same ``BerError``.
- :func:`old_decode` and :func:`old_encode` are ``Message.decode`` and
  ``Message.encode`` before a varbind list was remembered by its bytes and
  before ``Message.encode``, the reply writer's tail and the poll request
  shared one envelope writer over one PDU writer; :func:`old_reply` goes
  through both.  :func:`old_outcome` is which of the agent's counters a
  datagram moved.  :func:`old_get_poll` and :func:`old_bulk_poll` are the
  requests ``poll_interfaces`` built as ``Pdu`` objects before it kept
  their varbind lists as bytes.

Nothing here is called by the product.
"""

from repro.snmp import ber
from repro.snmp.ber import BerError
from repro.snmp.datatypes import (
    EndOfMibView,
    NoSuchInstance,
    NoSuchObject,
    TimeTicks,
)
from repro.snmp.errors import ErrorStatus
from repro.snmp.manager import interface_oids
from repro.snmp.message import VERSION_1, VERSION_2C, Message, decode_header
from repro.snmp.mib import SYS_UPTIME
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu, VarBind, decode_varbinds


def old_handle_get(mib, version, pdu):
    out = []
    for i, vb in enumerate(pdu.varbinds):
        value = mib.get(vb.oid)
        if value is None:
            if version == VERSION_1:
                return pdu.response(pdu.varbinds, ErrorStatus.NO_SUCH_NAME, i + 1)
            exc = (
                NoSuchInstance() if mib.has_subtree(vb.oid.parent) else NoSuchObject()
            ) if len(vb.oid) > 1 else NoSuchObject()
            out.append(VarBind(vb.oid, exc))
        else:
            out.append(VarBind(vb.oid, value))
    return pdu.response(out)


def old_handle_get_next(mib, version, pdu):
    out = []
    for i, vb in enumerate(pdu.varbinds):
        hit = mib.get_next(vb.oid)
        if hit is None:
            if version == VERSION_1:
                return pdu.response(pdu.varbinds, ErrorStatus.NO_SUCH_NAME, i + 1)
            out.append(VarBind(vb.oid, EndOfMibView()))
        else:
            out.append(VarBind(hit[0], hit[1]))
    return pdu.response(out)


def old_handle_get_bulk(mib, pdu):
    non_repeaters = pdu.non_repeaters
    max_repetitions = min(pdu.max_repetitions, MAX_BULK_REPETITIONS)
    out = []
    for vb in pdu.varbinds[:non_repeaters]:
        hit = mib.get_next(vb.oid)
        out.append(
            VarBind(hit[0], hit[1]) if hit is not None else VarBind(vb.oid, EndOfMibView())
        )
    for vb in pdu.varbinds[non_repeaters:]:
        cursor = vb.oid
        for _ in range(max_repetitions):
            hit = mib.get_next(cursor)
            if hit is None:
                out.append(VarBind(cursor, EndOfMibView()))
                break
            out.append(VarBind(hit[0], hit[1]))
            cursor = hit[0]
    return pdu.response(out)


def old_reply(mib, community, payload):
    """The reply datagram the parent's agent sent for ``payload``, by
    successor queries chained one ``get_next`` at a time; ``None`` where
    it sent none.  ``payload`` must decode."""
    message = old_decode(payload)
    if message.community != community:
        return None
    pdu, version = message.pdu, message.version
    if pdu.kind == "get":
        response = old_handle_get(mib, version, pdu)
    elif pdu.kind == "get-next":
        response = old_handle_get_next(mib, version, pdu)
    elif pdu.kind == "get-bulk" and version == VERSION_2C:
        response = old_handle_get_bulk(mib, pdu)
    elif pdu.kind == "set":
        status = ErrorStatus.READ_ONLY if version == VERSION_1 else ErrorStatus.NOT_WRITABLE
        response = pdu.response(pdu.varbinds, status, 1 if pdu.varbinds else 0)
    else:
        return None
    return old_encode(Message(version, community, response))


def agent_reply(agent, payload, src_ip, src_port=4000):
    """Hand ``payload`` to ``agent`` and return the reply it scheduled
    (``None``: it scheduled none), read off the simulator's queue."""
    before = {seq for _t, seq, _callback, _args in agent.sim._heap}
    agent._on_datagram(payload, len(payload), src_ip, src_port)
    replies = [
        args[0]
        for _t, seq, callback, args in agent.sim._heap
        if seq not in before and callback == agent._send_reply
    ]
    assert len(replies) <= 1
    return replies[0] if replies else None


def old_classification(varbinds, columns):
    """``(uptime, rows)`` as the parent filed a response's varbinds.

    A varbind belongs to the first (shortest) requested column its OID
    starts with; its row is the arc after the column (-1: none); a
    varbind under no column counts only if it is sysUpTime.0, whose last
    occurrence wins and must be TimeTicks.  A row is ``(column position,
    row, value tag, value as an integer or 0)``.
    """
    positions = {tuple(col): i for i, col in enumerate(columns)}
    lengths = sorted({len(col) for col in columns})
    uptime, rows = None, []
    for vb in varbinds:
        arcs = tuple(vb.oid)
        for n in lengths:
            if arcs[:n] in positions:
                number = getattr(vb.value, "value", 0)
                rows.append((
                    positions[arcs[:n]],
                    arcs[n] if len(arcs) > n else -1,
                    vb.value.tag,
                    number if isinstance(number, int) else 0,
                ))
                break
        else:
            if vb.oid == SYS_UPTIME:
                uptime = vb.value.value if isinstance(vb.value, TimeTicks) else None
    return uptime, rows


def old_decode(payload):
    """``Message.decode(payload)`` as the parent read it: every varbind
    list decoded afresh, none remembered."""
    version, community, tag, request_id, status, index, start, end = decode_header(payload)
    pdu = Pdu(tag, request_id, status, index, decode_varbinds(payload, start, end))
    return Message(version, community, pdu)


def old_encode(message):
    """``message.encode()`` as the parent wrote it: ``Message.encode``
    around ``Pdu.encode``."""
    pdu = message.pdu
    body = (
        ber.encode_integer(pdu.request_id)
        + ber.encode_integer(pdu.error_status)
        + ber.encode_integer(pdu.error_index)
        + ber.encode_sequence(*[vb.encode() for vb in pdu.varbinds])
    )
    encoded = ber.encode_tlv(pdu.pdu_type, body)
    return ber.encode_sequence(
        ber.encode_integer(message.version),
        ber.encode_octet_string(message.community.encode()),
        encoded,
    )


def counted(agent):
    """The agent's four outcome counters, by the names :func:`old_outcome` uses."""
    names = ("malformed", "bad_community", "unsupported", "get_requests")
    return {name: getattr(agent, name) for name in names}


def old_outcome(community, payload):
    """Which counter the parent's ``SnmpAgent._on_datagram`` moved for
    ``payload`` beside ``in_packets``: ``"malformed"``, ``"bad_community"``,
    ``"unsupported"``, ``"get_requests"`` -- or ``None``, answered and not
    a Get."""
    try:
        message = old_decode(payload)
    except BerError:
        return "malformed"
    if message.community != community:
        return "bad_community"
    kind = message.pdu.kind
    if kind == "get":
        return "get_requests"
    if kind in ("get-next", "set") or (kind == "get-bulk" and message.version == VERSION_2C):
        return None
    return "unsupported"


def old_get_poll(request_id, if_indexes, columns, include_uptime):
    """The GET form of ``poll_interfaces`` as the parent built it."""
    oids = interface_oids(tuple(if_indexes), tuple(columns))
    return Pdu.get_request(request_id, [SYS_UPTIME, *oids] if include_uptime else oids)


def old_bulk_poll(request_id, walk):
    """The request the parent's ``_BulkWalk.issue`` built from the walk's
    state as it stands *before* the exchange is issued."""
    cursor_rows = walk.cursor_rows
    live = [i for i, done in enumerate(walk.done) if not done]
    reps = max(walk.max_idx - cursor_rows[i] for i in live)
    reps = max(1, min(reps, MAX_BULK_REPETITIONS))
    oids = []
    if walk.include_uptime and walk.exchanges == 0:
        oids.append(SYS_UPTIME.parent)
    non_repeaters = len(oids)
    oids.extend(walk.columns.columns[i].extend(cursor_rows[i]) for i in live)
    return Pdu.get_bulk_request(request_id, oids, non_repeaters, reps)
