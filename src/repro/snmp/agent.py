"""The SNMP agent ("SNMP demon" in the paper's words).

An agent binds UDP port 161 on a host or on a switch's management stack,
decodes incoming BER messages, services Get / GetNext / GetBulk against a
:class:`~repro.snmp.mib.MibTree`, and sends the response back across the
simulated network after a small processing delay.  The handlers return
``(oid, value)`` pairs -- a GetBulk repeater's as one run of successors --
and one writer turns them into the reply's bytes; nothing else is built.

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
from typing import Dict, List, Optional, Tuple

from repro.snmp import ber
from repro.snmp.datatypes import EndOfMibView, NoSuchInstance, NoSuchObject, SnmpValue
from repro.snmp.errors import ErrorStatus
from repro.snmp.message import VERSION_1, VERSION_2C, Message, encode_message
from repro.snmp.mib import MibError, MibTree, register_snmp_group
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

# The reply writer's memo of written varbinds is bounded in entries and in
# bytes per entry: a walker names every OID there is and a hostile peer
# any.  A polled varbind is ~20 bytes; one agent serves at most 8 x 64.
_MEMO_VARBINDS, _MEMO_VARBIND_BYTES = 4096, 64


class _Refused(Exception):
    """``(error_status, error_index)``, raised by a handler: the request is
    answered with that error and its own varbinds."""


class SnmpAgent:
    """Serve a MIB over the simulated network.

    ``endpoint`` is a :class:`~repro.simnet.host.Host` or a
    :class:`~repro.simnet.mgmt.ManagementStack` (they share the socket
    API).  The agent answers both SNMPv1 and v2c, with the correct error
    semantics for each.
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
        self.out_packets = 0
        self.malformed = 0
        self.bad_community = 0
        self.unsupported = 0
        self.get_requests = 0
        self._written: Dict[Oid, Tuple[SnmpValue, bytes]] = {}  # see _encode_reply
        try:
            register_snmp_group(mib, self)
        except MibError:
            pass  # a shared/prebuilt tree may already carry the group

    @property
    def name(self) -> str:
        return self.endpoint.name

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
        inform_sender = getattr(self, "_inform_sender", None)
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
            message = Message.decode(payload)
        except ber.BerError:
            self.malformed += 1
            return
        if message.community != self.community:
            # RFC 1157: silently drop (and would send an authenticationFailure
            # trap); the manager sees a timeout.
            self.bad_community += 1
            return
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
                return
        except _Refused as refused:
            # An error response echoes the request's own varbinds.
            status, index = refused.args
            pairs = [(vb.oid, vb.value) for vb in pdu.varbinds]
        reply = self._encode_reply(
            version, pdu.request_id, pairs, status, index, bulk=kind == "get-bulk"
        )
        delay = self.response_delay + self.rng.random() * self.response_jitter
        self.sim.schedule(delay, self._send_reply, reply, src_ip, src_port)

    def _send_reply(self, payload: bytes, dst_ip: IPv4Address, dst_port: int) -> None:
        self.out_packets += 1
        self.socket.sendto(payload, (dst_ip, dst_port))

    def _encode_reply(
        self, version: int, request_id: int, pairs: List[Pair],
        status: ErrorStatus = ErrorStatus.NO_ERROR, index: int = 0, bulk: bool = False,
    ) -> bytes:
        """The one reply writer: a Response straight from (oid, value)
        pairs, byte for byte ``Message(version, community,
        request.response(varbinds, status, index)).encode()`` with no
        VarBind, Pdu or Message built -- and no value written twice:
        ``_written`` keeps, per OID, the value object last served and its
        varbind's bytes, and a pair carrying that very object (``is``)
        costs one dict probe.  A value is immutable, so one object's bytes
        cannot go stale, whichever MIB view handed it out; a view makes an
        unchanged instance cheap by handing out the same object again.
        The memo sits here, never on the value (``SnmpValue.__eq__``
        compares ``__dict__``), is bounded, and an error reply's varbinds
        -- the request's own -- are written past it.

        No reply exceeds :data:`MAX_MESSAGE_BYTES`: a GetBulk response is
        cut short until it fits (RFC 3416 section 4.2.3), any other is
        answered ``tooBig`` with an empty list (section 4.2.1).
        """
        encode_oid, varbinds = ber.encode_oid, []
        written = self._written if status == ErrorStatus.NO_ERROR else {}
        for oid, value in pairs:
            entry = written.get(oid)
            if entry is not None and entry[0] is value:
                varbinds.append(entry[1])
                continue
            body = encode_oid(oid) + value.encode()
            if len(body) < 0x80:  # short form: every varbind on the poll path
                varbind = bytes((ber.TAG_SEQUENCE, len(body))) + body
            else:
                varbind = ber.encode_tlv(ber.TAG_SEQUENCE, body)
            varbinds.append(varbind)
            if len(varbind) <= _MEMO_VARBIND_BYTES:
                if entry is None and len(written) >= _MEMO_VARBINDS:
                    written.clear()  # a walk's leavings: polled rows re-enter next poll
                written[oid] = (value, varbind)
        while True:
            reply = encode_message(version, self.community, encode_pdu(
                ber.TAG_GET_RESPONSE, request_id, int(status), index,
                ber.encode_sequence(*varbinds),
            ))
            excess = len(reply) - MAX_MESSAGE_BYTES
            if excess <= 0:
                return reply
            if bulk:
                while excess > 0:  # shorter length octets come on top
                    excess -= len(varbinds.pop())
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
