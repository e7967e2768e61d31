"""SNMPv2c notifications (traps): linkDown / linkUp and friends.

Polling discovers a dead link only at the next cycle; traps tell the
manager *now*.  RFC 1905 SNMPv2-Trap PDUs are ordinary PDUs (tag 0xA7)
whose first two varbinds are, by convention, ``sysUpTime.0`` and
``snmpTrapOID.0``; the interesting payload (here: the ``ifIndex`` of the
affected interface) follows.

:meth:`SnmpAgent.enable_link_traps` (in :mod:`repro.snmp.agent`) hooks
interface state observers and emits these through the normal socket path,
so trap datagrams are real traffic like everything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.snmp import ber
from repro.snmp.datatypes import Integer, ObjectIdentifier, SnmpValue, TimeTicks
from repro.snmp.message import VERSION_2C, Message
from repro.snmp.mib import IF_INDEX, SYS_UPTIME
from repro.snmp.oid import Oid
from repro.snmp.pdu import Pdu, VarBind, decode_varbinds
from repro.simnet.address import IPv4Address

TRAP_PORT = 162  # standard notification-receiver port
TRAP_COMMUNITY = "public"  # what the receiver accepts

# snmpTrapOID.0 (RFC 3418) and the generic trap identities (RFC 1907).
SNMP_TRAP_OID = Oid("1.3.6.1.6.3.1.1.4.1.0")
TRAP_COLD_START = Oid("1.3.6.1.6.3.1.1.5.1")
TRAP_LINK_DOWN = Oid("1.3.6.1.6.3.1.1.5.3")
TRAP_LINK_UP = Oid("1.3.6.1.6.3.1.1.5.4")

_trap_request_ids = itertools.count(0x7000)

#: Informs a receiver remembers for de-duplication, the oldest forgotten
#: first.  A sender retransmits one inform for at most ``max_attempts *
#: timeout`` (60 s by default); a duplicate is caught as long as fewer
#: informs than this reached the receiver since its original.
INFORM_MEMORY = 1024

# SNMPv1 generic-trap codes (RFC 1157 §4.1.6).
GENERIC_COLD_START = 0
GENERIC_LINK_DOWN = 2
GENERIC_LINK_UP = 3
GENERIC_ENTERPRISE_SPECIFIC = 6

# RFC 2576 §3.1: v1 generic traps map to these v2 notification identities.
_GENERIC_TO_V2 = {
    GENERIC_COLD_START: TRAP_COLD_START,
    GENERIC_LINK_DOWN: TRAP_LINK_DOWN,
    GENERIC_LINK_UP: TRAP_LINK_UP,
}


def build_trap_pdu(
    uptime: TimeTicks,
    trap_oid: Oid,
    varbinds: Optional[List[VarBind]] = None,
    confirmed: bool = False,
) -> Pdu:
    """An SNMPv2-Trap (or, with ``confirmed``, InformRequest) PDU.

    Both notification forms share the mandated leading varbinds
    (sysUpTime.0, snmpTrapOID.0); an inform additionally expects a
    Response from the receiver, giving delivery the retry semantics a
    plain trap lacks.
    """
    payload: List[VarBind] = [
        VarBind(SYS_UPTIME, uptime),
        VarBind(SNMP_TRAP_OID, ObjectIdentifier(trap_oid)),
    ]
    if varbinds:
        payload.extend(varbinds)
    tag = ber.TAG_INFORM_REQUEST if confirmed else ber.TAG_SNMPV2_TRAP
    return Pdu(tag, next(_trap_request_ids), varbinds=payload)


@dataclass
class TrapV1Pdu:
    """The RFC 1157 Trap-PDU (tag 0xA4) -- a different shape entirely.

    The 2002-era devices of the paper's testbed emitted these rather than
    SNMPv2-Traps: enterprise OID, the agent's own address, generic/
    specific trap codes and a timestamp, then the varbinds.
    """

    enterprise: Oid
    agent_addr: "IpAddress"
    generic_trap: int
    specific_trap: int
    timestamp: TimeTicks
    varbinds: List[VarBind]

    kind = "trap-v1"

    def encode(self) -> bytes:
        body = (
            ber.encode_oid(self.enterprise)
            + self.agent_addr.encode()
            + ber.encode_integer(self.generic_trap)
            + ber.encode_integer(self.specific_trap)
            + self.timestamp.encode()
            + ber.encode_sequence(*[vb.encode() for vb in self.varbinds])
        )
        return ber.encode_tlv(ber.TAG_TRAP_V1, body)

    @staticmethod
    def decode(data: bytes, offset: int = 0) -> tuple:
        from repro.snmp.datatypes import IpAddress, decode_value

        tag, content, new_offset = ber.decode_tlv(data, offset)
        ber.expect_tag(tag, ber.TAG_TRAP_V1, "v1 Trap-PDU")
        pos = 0
        t, c, pos = ber.decode_tlv(content, pos)
        ber.expect_tag(t, ber.TAG_OID, "enterprise")
        enterprise = ber.decode_oid_content(c)
        agent_addr, pos = decode_value(content, pos)
        if not isinstance(agent_addr, IpAddress):
            raise ber.BerError("v1 trap agent-addr must be an IpAddress")
        generic, pos = ber.decode_integer(content, pos, len(content), "generic-trap")
        specific, pos = ber.decode_integer(content, pos, len(content), "specific-trap")
        if generic < 0 or specific < 0:
            # RFC 1157 §4.1.6 declares both non-negative; a negative
            # specific-trap would not even make an enterprise.0.<n> OID.
            raise ber.BerError(f"negative v1 trap code {generic!r}/{specific!r}")
        timestamp, pos = decode_value(content, pos)
        if not isinstance(timestamp, TimeTicks):
            raise ber.BerError("v1 trap time-stamp must be TimeTicks")
        vb_content, pos = ber.decode_sequence(content, pos)
        if pos != len(content):
            raise ber.BerError("trailing bytes inside v1 Trap-PDU")
        varbinds = decode_varbinds(vb_content, 0, len(vb_content))
        return (
            TrapV1Pdu(enterprise, agent_addr, generic, specific, timestamp, varbinds),
            new_offset,
        )

    def v2_identity(self) -> Oid:
        """The equivalent snmpTrapOID (RFC 2576 mapping)."""
        mapped = _GENERIC_TO_V2.get(self.generic_trap)
        if mapped is not None:
            return mapped
        # enterpriseSpecific: enterprise.0.specific
        return self.enterprise.extend(0, self.specific_trap)


@dataclass(frozen=True)
class TrapEvent:
    """A decoded notification as seen by the receiver."""

    source_ip: IPv4Address
    uptime: TimeTicks
    trap_oid: Oid
    varbinds: tuple  # the payload varbinds (after the two mandated ones)
    received_at: float

    @property
    def is_link_down(self) -> bool:
        return self.trap_oid == TRAP_LINK_DOWN

    @property
    def is_link_up(self) -> bool:
        return self.trap_oid == TRAP_LINK_UP

    def if_index(self) -> Optional[int]:
        """The ifIndex payload of a link trap, if present."""
        for vb in self.varbinds:
            if vb.oid.startswith(IF_INDEX) and isinstance(vb.value, Integer):
                return vb.value.value
        return None


class TrapReceiver:
    """Listens on UDP :162 for traps and informs sent under
    :data:`TRAP_COMMUNITY`.

    Informs are acknowledged (a Response PDU echoing the request-id goes
    back to the sender) and de-duplicated by (source, request-id), since
    a lost acknowledgement makes the sender retransmit; the last
    :data:`INFORM_MEMORY` keys are remembered.
    """

    def __init__(
        self, endpoint, callback: Optional[Callable[[TrapEvent], None]] = None
    ) -> None:
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.community = TRAP_COMMUNITY
        self.socket = endpoint.create_socket(TRAP_PORT)
        self.socket.on_receive = self._on_datagram
        self.callback = callback
        self.malformed = 0
        self.bad_community = 0
        self.informs_acked = 0
        self.duplicate_informs = 0
        self._seen_informs: dict = {}  # (source, request-id) -> None, oldest first

    def _on_datagram(self, payload, size, src_ip, src_port) -> None:
        if payload is None:
            self.malformed += 1
            return
        try:
            message = Message.decode(payload)
        except ber.BerError:
            self.malformed += 1
            return
        if message.community != self.community:
            self.bad_community += 1
            return
        pdu = message.pdu
        if isinstance(pdu, TrapV1Pdu):
            # Translate per RFC 2576 and deliver like any notification.
            event = TrapEvent(
                source_ip=src_ip,
                uptime=pdu.timestamp,
                trap_oid=pdu.v2_identity(),
                varbinds=tuple(pdu.varbinds),
                received_at=self.sim.now,
            )
            if self.callback is not None:
                self.callback(event)
            return
        if pdu.kind not in ("trap", "inform") or len(pdu.varbinds) < 2:
            self.malformed += 1
            return
        # Judged before an inform is acknowledged or remembered.
        uptime_vb, trapoid_vb = pdu.varbinds[0], pdu.varbinds[1]
        if not isinstance(uptime_vb.value, TimeTicks) or not isinstance(
            trapoid_vb.value, ObjectIdentifier
        ):
            self.malformed += 1
            return
        if pdu.kind == "inform":
            # Acknowledge first -- even duplicates, whose original ack
            # evidently never made it back.
            response = pdu.response(pdu.varbinds)
            self.socket.sendto(
                Message(message.version, self.community, response).encode(),
                (src_ip, src_port),
            )
            self.informs_acked += 1
            seen = self._seen_informs
            dedup_key = (src_ip, pdu.request_id)
            if dedup_key in seen:
                self.duplicate_informs += 1
                return
            seen[dedup_key] = None
            if len(seen) > INFORM_MEMORY:
                del seen[next(iter(seen))]
        event = TrapEvent(
            source_ip=src_ip,
            uptime=uptime_vb.value,
            trap_oid=trapoid_vb.value.value,
            varbinds=tuple(pdu.varbinds[2:]),
            received_at=self.sim.now,
        )
        if self.callback is not None:
            self.callback(event)


class InformSender:
    """Reliable notification delivery: retransmit until acknowledged.

    The classic trap failure mode -- "the linkDown died with the link" --
    is exactly what informs fix: the sender keeps retrying on a timer, so
    the notification arrives once connectivity returns, preserving the
    event history even for outages the receiver never saw live.
    """

    def __init__(
        self,
        endpoint,
        destination: IPv4Address,
        community: str = "public",
        port: int = TRAP_PORT,
        timeout: float = 2.0,
        max_attempts: int = 30,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.destination = destination
        self.community = community
        self.port = port
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.socket = endpoint.create_socket()
        self.socket.on_receive = self._on_datagram
        self._pending: dict = {}  # request_id -> (payload bytes, attempts, timer)
        self.sent = 0
        self.retransmissions = 0
        self.acked = 0
        self.abandoned = 0

    def send(self, pdu: Pdu) -> int:
        """Queue an inform PDU for reliable delivery; returns request id."""
        if pdu.kind != "inform":
            raise ValueError("InformSender only sends inform PDUs")
        payload = Message(VERSION_2C, self.community, pdu).encode()
        self._pending[pdu.request_id] = [payload, 0, None]
        self._transmit(pdu.request_id)
        return pdu.request_id

    def _transmit(self, request_id: int) -> None:
        entry = self._pending.get(request_id)
        if entry is None:
            return
        payload, attempts, _timer = entry
        if attempts >= self.max_attempts:
            del self._pending[request_id]
            self.abandoned += 1
            return
        entry[1] = attempts + 1
        if attempts > 0:
            self.retransmissions += 1
        self.sent += 1
        self.socket.sendto(payload, (self.destination, self.port))
        entry[2] = self.sim.schedule(self.timeout, self._transmit, request_id)

    def _on_datagram(self, payload, size, src_ip, src_port) -> None:
        if payload is None:
            return
        try:
            message = Message.decode(payload)
        except ber.BerError:
            return
        if message.pdu.kind != "response":
            return
        entry = self._pending.pop(message.pdu.request_id, None)
        if entry is None:
            return
        if entry[2] is not None:
            self.sim.cancel(entry[2])
        self.acked += 1
