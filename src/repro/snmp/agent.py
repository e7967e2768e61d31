"""The SNMP agent ("SNMP demon" in the paper's words).

An agent binds UDP port 161 on a host or on a switch's management stack,
decodes incoming BER messages, services Get / GetNext / GetBulk against a
:class:`~repro.snmp.mib.MibTree`, and sends the response back across the
simulated network after a small processing delay.  The handlers return
``(oid, value)`` pairs -- a GetBulk repeater's as one run of successors --
and one writer turns them into the reply's bytes; nothing else is built.
A request answered before is answered again from its reply plan: its
header read, each interface's counters read as one tuple and compared
with the tuple last served, and only a value that moved written again --
an idle counter costs the agent no Python call.

The processing delay matters for fidelity: the paper observed that
"occasionally, some data bytes are counted in a later SNMP message instead
of an earlier one, resulting in an abnormally small value followed by an
abnormally large one" -- their dominant error source.  Seeded jitter on the
agent's response time (plus genuine queueing of the response packets)
reproduces that effect.
"""

from __future__ import annotations

import random
import zlib
from itertools import compress, count
from operator import call, is_not, ne
from typing import Dict, List, Optional, Tuple

from repro.snmp import ber
from repro.snmp.datatypes import EndOfMibView, NoSuchInstance, NoSuchObject, SnmpValue
from repro.snmp.errors import ErrorStatus
from repro.snmp.message import VERSION_1, VERSION_2C, Message, decode_header, encode_message
from repro.snmp.mib import MibError, MibTree, _LiveCounter, register_snmp_group
from repro.snmp.oid import Oid
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu, VarBind, encode_pdu
from repro.simnet.address import IPv4Address
from repro.simnet.sockets import SNMP_PORT

DEFAULT_RESPONSE_DELAY = 0.5e-3  # seconds of agent processing
DEFAULT_RESPONSE_JITTER = 1.5e-3  # uniform extra, seeded

# UDP's payload limit over IPv4 (65 535 - 20 - 8): no reply is longer.
MAX_MESSAGE_BYTES = 65507

__all__ = ["SnmpAgent", "MAX_BULK_REPETITIONS"]

Pair = Tuple[Oid, SnmpValue]

# The reply plans are bounded in entries and in varbind bytes per entry: a
# walker sends a new request every exchange and a hostile peer any.  A
# poller sends an agent a handful; the longest poll reply is 9 KB, and a
# kept reply is never one the writer would cut or answer tooBig.
_MEMO_PLANS, _MEMO_PLAN_BYTES = 64, 16384

# Values a plan never serves again: what they answer moves with the MIB's
# extent, not with a reading.
_EXCEPTIONS = (EndOfMibView, NoSuchInstance, NoSuchObject)


class _Refused(Exception):
    """``(error_status, error_index)``, raised by a handler: the request is
    answered with that error and its own varbinds."""


class _Plan:
    """A request's reply, kept to be served again: the ``view`` it was
    resolved in and that view's registration ``stamp``, the reply's
    ``varbinds`` (bytes, in reply order) and, for each position a value
    can move at -- ``slots`` -- its ``reader`` and its encoded OID
    ``prefix``.  A constant's position has no reader: its bytes stand.

    A live counter's reader is read through its row group -- the k-th
    group is ``getters[k](sources[k])``, its ``members`` each a ``(slot,
    position)`` -- all groups' raw tuples in one pass, compared with those
    last served (``raws``), and the reader only for a member whose raw
    reading moved.  Any other reader (``single``) is read every time, its
    value compared by identity with the object last served (``values``)."""

    __slots__ = (
        "view", "stamp", "varbinds", "slots", "readers", "prefixes",
        "single", "single_readers", "values", "getters", "sources", "members", "raws",
    )

    def __init__(self, view, stamp, varbinds, slots, readers, prefixes, values) -> None:
        self.view, self.stamp, self.varbinds = view, stamp, varbinds
        self.slots, self.readers, self.prefixes = slots, readers, prefixes
        grouped: Dict[int, Tuple[tuple, list]] = {}
        single = []
        for k, reader in enumerate(readers):
            counter = getattr(reader, "__self__", None)
            if type(counter) is _LiveCounter:
                group = counter.group
                grouped.setdefault(id(group), (group, []))[1].append((k, counter.position))
            else:
                single.append(k)
        self.single, self.single_readers = single, [readers[k] for k in single]
        self.values = [values[k] for k in single]
        self.getters = [getter for (getter, _source), _members in grouped.values()]
        self.sources = [source for (_getter, source), _members in grouped.values()]
        self.members = [tuple(members) for _group, members in grouped.values()]
        # Read now, at the instant the reply's values were: what they encode.
        self.raws = list(map(call, self.getters, self.sources))


class SnmpAgent:
    """Serve a MIB over the simulated network.

    ``endpoint`` is a :class:`~repro.simnet.host.Host` or a
    :class:`~repro.simnet.mgmt.ManagementStack` (they share the socket
    API).  The agent answers both SNMPv1 and v2c, with the correct error
    semantics for each.

    A request answered before is served from its reply plan
    (:class:`_Plan`): each interface's counters are read as one tuple by
    their row group's getter and compared with the tuple last served, so
    a counter that did not move costs no Python call; only a reading
    that moved is read through its reader and written again.  Byte for
    byte what the handlers would answer.
    """

    def __init__(
        self,
        endpoint,
        mib: MibTree,
        community: str = "public",
        response_delay: float = DEFAULT_RESPONSE_DELAY,
        response_jitter: float = DEFAULT_RESPONSE_JITTER,
        seed: int = 0,
    ) -> None:
        self.endpoint = endpoint
        self.mib = mib
        self.community = community
        self.sim = endpoint.sim
        self.response_delay = response_delay
        self.response_jitter = response_jitter
        # Seed mixes in the endpoint name deterministically (str hash is
        # randomised per-process, so crc32 instead).
        self.rng = random.Random(seed ^ zlib.crc32(endpoint.name.encode()))
        self.socket = endpoint.create_socket(SNMP_PORT)
        self.socket.on_receive = self._on_datagram
        # Statistics, served back over SNMP as the RFC 1213 snmp group.
        self.in_packets = 0
        self.malformed = 0
        self.bad_community = 0
        self.unsupported = 0
        self.get_requests = 0
        self._sent = 0  # replies and traps; out_packets adds the informs
        self._inform_sender = None
        self._plans: Dict[tuple, _Plan] = {}  # see _serve
        try:
            register_snmp_group(mib, self)
        except MibError:
            pass  # a shared/prebuilt tree may already carry the group

    @property
    def name(self) -> str:
        return self.endpoint.name

    @property
    def out_packets(self) -> int:
        """snmpOutPkts (RFC 1213): every message passed to the transport --
        each reply, each trap and each InformRequest transmission."""
        informs = self._inform_sender
        return self._sent + (informs.sent if informs is not None else 0)

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------
    def enable_link_traps(
        self, destination: IPv4Address, community: Optional[str] = None,
        port: int = 162,
    ) -> None:
        """Emit linkDown/linkUp traps to ``destination`` on state changes.

        Observes every interface of the device this agent serves.  Trap
        datagrams leave through the agent's ordinary socket, so they are
        genuine network traffic (and can themselves be lost -- traps are
        unacknowledged, which is why the poller remains the backstop).
        """
        self._trap_destination = (destination, port)
        self._trap_community = community if community is not None else self.community
        self._observe_interfaces()
        self.traps_sent = 0

    def enable_link_informs(
        self, destination: IPv4Address, community: Optional[str] = None,
        port: int = 162, timeout: float = 2.0, max_attempts: int = 30,
    ) -> None:
        """Like :meth:`enable_link_traps`, but acknowledged.

        Link-state notifications become InformRequests that retransmit
        until the receiver acknowledges -- so a linkDown about the
        agent's own uplink is delivered once connectivity returns,
        instead of dying with the link.
        """
        from repro.snmp.trap import InformSender  # local: avoid cycle

        self._inform_sender = InformSender(
            self.endpoint, destination,
            community=community if community is not None else self.community,
            port=port, timeout=timeout, max_attempts=max_attempts,
        )
        self._observe_interfaces()
        self.traps_sent = 0

    def _observe_interfaces(self) -> None:
        device = getattr(self.endpoint, "switch", self.endpoint)
        for iface in getattr(device, "interfaces", []):
            if self._on_link_state not in iface.state_observers:
                iface.state_observers.append(self._on_link_state)

    def _on_link_state(self, iface, up: bool) -> None:
        from repro.snmp.mib import SYS_UPTIME  # local import avoids a cycle
        from repro.snmp.trap import build_trap_pdu, TRAP_LINK_DOWN, TRAP_LINK_UP
        from repro.snmp.mib import IF_INDEX
        from repro.snmp.datatypes import Integer

        uptime = self.mib.get(SYS_UPTIME)
        trap_oid = TRAP_LINK_UP if up else TRAP_LINK_DOWN
        varbinds = [VarBind(IF_INDEX + str(iface.if_index), Integer(iface.if_index))]
        inform_sender = self._inform_sender
        if inform_sender is not None:
            pdu = build_trap_pdu(uptime, trap_oid, varbinds, confirmed=True)
            inform_sender.send(pdu)
            self.traps_sent += 1
            return
        destination = getattr(self, "_trap_destination", None)
        if destination is None:
            return
        pdu = build_trap_pdu(uptime, trap_oid, varbinds, confirmed=False)
        payload = Message(VERSION_2C, self._trap_community, pdu).encode()
        self._sent += 1
        self.socket.sendto(payload, destination)
        self.traps_sent += 1

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _on_datagram(
        self, payload: Optional[bytes], size: int, src_ip: IPv4Address, src_port: int
    ) -> None:
        self.in_packets += 1
        if payload is None:
            self.malformed += 1
            return
        try:
            version, community, tag, request_id, field_1, field_2, start, end = decode_header(
                payload
            )
        except ber.BerError:
            self.malformed += 1
            return
        # A request is its reply plan's key but for its request-id.
        key = (version, community, tag, field_1, field_2, payload[start:end])
        plan, mib = self._plans.get(key), self.mib
        if (
            plan is not None and plan.view is mib and plan.stamp == mib._registrations
            and community == self.community
        ):
            if tag == ber.TAG_GET_REQUEST:
                self.get_requests += 1
            reply = self._serve(plan, version, request_id, tag == ber.TAG_GET_BULK_REQUEST)
        else:
            reply = self._answer(payload, key)
            if reply is None:
                return
        delay = self.response_delay + self.rng.random() * self.response_jitter
        self.sim.schedule(delay, self._send_reply, reply, src_ip, src_port)

    def _answer(self, payload: bytes, key: tuple) -> Optional[bytes]:
        """The reply to a request no plan serves (``None``: none is sent),
        through the handlers and the writer; kept as ``key``'s plan when
        it can be served again.  The order of checks is
        ``Message.decode``'s own: varbinds before the community."""
        try:
            message = Message.decode(payload)
        except ber.BerError:
            self.malformed += 1
            return None
        if message.community != self.community:
            # RFC 1157: silently drop (and would send an authenticationFailure
            # trap); the manager sees a timeout.
            self.bad_community += 1
            return None
        pdu, version, kind = message.pdu, message.version, message.pdu.kind
        status, index = ErrorStatus.NO_ERROR, 0
        try:
            if kind == "get":
                self.get_requests += 1
                pairs = self._handle_get(version, pdu)
            elif kind == "get-next":
                pairs = self._handle_get_next(version, pdu.varbinds)
            elif kind == "get-bulk" and version == VERSION_2C:
                pairs = self._handle_get_bulk(pdu)
            elif kind == "set":
                # The monitor is read-only; reject all sets.
                read_only = (
                    ErrorStatus.READ_ONLY if version == VERSION_1 else ErrorStatus.NOT_WRITABLE
                )
                raise _Refused(read_only, 1 if pdu.varbinds else 0)
            else:
                self.unsupported += 1
                return None
        except _Refused as refused:
            # An error response echoes the request's own varbinds.
            status, index = refused.args
            pairs = [(vb.oid, vb.value) for vb in pdu.varbinds]
        encode_oid, encode_tlv = ber.encode_oid, ber.encode_tlv
        varbinds = [
            encode_tlv(ber.TAG_SEQUENCE, encode_oid(oid) + value.encode()) for oid, value in pairs
        ]
        if status == ErrorStatus.NO_ERROR and sum(map(len, varbinds)) <= _MEMO_PLAN_BYTES:
            self._keep(key, pairs, varbinds)
        return self._encode_reply(
            version, pdu.request_id, varbinds, status, index, bulk=kind == "get-bulk"
        )

    def _keep(self, key: tuple, pairs: List[Pair], varbinds: List[bytes]) -> None:
        """Keep ``key``'s plan: the reply just written, when the view can
        read each of its values again the way it just did (``readers``;
        not a provider's row, nor anything its run could have reached one
        on) and none is an exception value.  The plan is bound to the view
        *object* and its registration stamp: a lie, a reboot's new tree, a
        snapshot laid out afresh or a new instance each get a fresh one."""
        mib = self.mib
        if any(isinstance(value, _EXCEPTIONS) for _oid, value in pairs):
            return
        readers = mib.readers([oid for oid, _value in pairs])
        if readers is None:
            return
        slots = [k for k, reader in enumerate(readers) if callable(reader)]
        plans = self._plans
        if key not in plans and len(plans) >= _MEMO_PLANS:
            plans.clear()  # a walk's leavings: a poll's plan is made again next poll
        plans[key] = _Plan(
            mib, mib._registrations, varbinds, slots, [readers[k] for k in slots],
            [ber.encode_oid(pairs[k][0]) for k in slots], [pairs[k][1] for k in slots],
        )

    def _serve(self, plan: _Plan, version: int, request_id: int, bulk: bool) -> bytes:
        """``plan``'s reply to this request: each row group read in one
        call and compared with the raw tuple last served, every other
        reader read and its value compared by identity (``is``, never
        ``==``) with the object served last time.  Only a value that moved
        is written again -- inline, so a moved counter costs what it always
        did: ``read``, ``wrap``, ``Counter32()``, ``encode``.  A value is
        immutable and a counter's bytes a function of its raw reading, so
        bytes kept cannot go stale.  Byte for byte what the handlers and
        the writer would answer."""
        changed = []
        raws, lasts, readers = list(map(call, plan.getters, plan.sources)), plan.raws, plan.readers
        for g in compress(count(), map(ne, raws, lasts)):
            raw, last = raws[g], lasts[g]
            for k, position in plan.members[g]:
                if raw[position] != last[position]:
                    changed.append((k, readers[k]()))
        plan.raws = raws
        values = list(map(call, plan.single_readers))
        single = plan.single
        for j in compress(count(), map(is_not, values, plan.values)):
            changed.append((single[j], values[j]))
        plan.values = values
        if changed:
            varbinds, slots, prefixes = plan.varbinds, plan.slots, plan.prefixes
            for k, value in changed:
                body = prefixes[k] + value.encode()
                varbinds[slots[k]] = (
                    bytes((ber.TAG_SEQUENCE, len(body))) + body if len(body) < 0x80
                    else ber.encode_tlv(ber.TAG_SEQUENCE, body)
                )
        return self._encode_reply(version, request_id, plan.varbinds, bulk=bulk)

    def _send_reply(self, payload: bytes, dst_ip: IPv4Address, dst_port: int) -> None:
        self._sent += 1
        self.socket.sendto(payload, (dst_ip, dst_port))

    def _encode_reply(
        self, version: int, request_id: int, varbinds: List[bytes],
        status: ErrorStatus = ErrorStatus.NO_ERROR, index: int = 0, bulk: bool = False,
    ) -> bytes:
        """The one reply writer: a Response around its encoded varbinds,
        byte for byte ``Message(version, community, request.response(
        varbinds, status, index)).encode()`` with no VarBind, Pdu or
        Message built.

        No reply exceeds :data:`MAX_MESSAGE_BYTES`: a GetBulk response is
        cut short until it fits (RFC 3416 section 4.2.3), any other is
        answered ``tooBig`` with an empty list (section 4.2.1).
        """
        while True:
            reply = encode_message(version, self.community, encode_pdu(
                ber.TAG_GET_RESPONSE, request_id, int(status), index,
                ber.encode_sequence(*varbinds),
            ))
            excess = len(reply) - MAX_MESSAGE_BYTES
            if excess <= 0:
                return reply
            if bulk:
                kept = len(varbinds)
                while excess > 0:  # shorter length octets come on top
                    kept -= 1
                    excess -= len(varbinds[kept])
                varbinds = varbinds[:kept]
            else:
                status, index, varbinds = ErrorStatus.TOO_BIG, 0, []

    # ------------------------------------------------------------------
    # Operations: each returns the (oid, value) pairs of its response
    # ------------------------------------------------------------------
    def _handle_get(self, version: int, pdu: Pdu) -> List[Pair]:
        out: List[Pair] = []
        for i, vb in enumerate(pdu.varbinds):
            oid = vb.oid
            value = self.mib.get(oid)
            if value is None:
                if version == VERSION_1:
                    # v1: whole request fails with noSuchName at this index.
                    raise _Refused(ErrorStatus.NO_SUCH_NAME, i + 1)
                value = (
                    NoSuchInstance()
                    if len(oid) > 1 and self.mib.has_subtree(oid.parent)
                    else NoSuchObject()
                )
            out.append((oid, value))
        return out

    def _handle_get_next(self, version: int, varbinds: List[VarBind]) -> List[Pair]:
        out: List[Pair] = []
        for i, vb in enumerate(varbinds):
            hit = self.mib.get_next(vb.oid)
            if hit is None and version == VERSION_1:
                raise _Refused(ErrorStatus.NO_SUCH_NAME, i + 1)
            out.append(hit or (vb.oid, EndOfMibView()))
        return out

    def _handle_get_bulk(self, pdu: Pdu) -> List[Pair]:
        # Decode already validated both fields as non-negative; the agent
        # additionally clamps the repetition count to its own bound.
        non_repeaters = pdu.non_repeaters
        max_repetitions = min(pdu.max_repetitions, MAX_BULK_REPETITIONS)
        out = self._handle_get_next(VERSION_2C, pdu.varbinds[:non_repeaters])
        for vb in pdu.varbinds[non_repeaters:]:
            run = self.mib.get_next_run(vb.oid, max_repetitions)
            out.extend(run)
            if len(run) < max_repetitions:
                # The MIB ended inside this repeater: one endOfMibView,
                # named after the last instance there was.
                out.append((run[-1][0] if run else vb.oid, EndOfMibView()))
        return out
