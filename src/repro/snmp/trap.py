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
from repro.snmp.datatypes import Integer, ObjectIdentifier, TimeTicks
from repro.snmp.message import Message
from repro.snmp.mib import IF_INDEX, SYS_UPTIME
from repro.snmp.oid import Oid
from repro.snmp.pdu import Pdu, VarBind
from repro.simnet.address import IPv4Address

TRAP_PORT = 162  # standard notification-receiver port
TRAP_COMMUNITY = "public"  # what the receiver accepts

# snmpTrapOID.0 (RFC 3418) and the generic trap identities (RFC 1907).
SNMP_TRAP_OID = Oid("1.3.6.1.6.3.1.1.4.1.0")
TRAP_COLD_START = Oid("1.3.6.1.6.3.1.1.5.1")
TRAP_LINK_DOWN = Oid("1.3.6.1.6.3.1.1.5.3")
TRAP_LINK_UP = Oid("1.3.6.1.6.3.1.1.5.4")

_trap_request_ids = itertools.count(0x7000)


def build_trap_pdu(
    uptime: TimeTicks, trap_oid: Oid, varbinds: Optional[List[VarBind]] = None
) -> Pdu:
    """An SNMPv2-Trap PDU: the mandated leading varbinds (sysUpTime.0,
    snmpTrapOID.0), then the payload."""
    payload: List[VarBind] = [
        VarBind(SYS_UPTIME, uptime),
        VarBind(SNMP_TRAP_OID, ObjectIdentifier(trap_oid)),
    ]
    if varbinds:
        payload.extend(varbinds)
    return Pdu(ber.TAG_SNMPV2_TRAP, next(_trap_request_ids), varbinds=payload)


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
    """Listens on UDP :162 for SNMPv2-Traps sent under
    :data:`TRAP_COMMUNITY`; anything else, an InformRequest or an SNMPv1
    Trap-PDU included, is counted ``malformed`` and answered with nothing.
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
        if pdu.kind != "trap" or len(pdu.varbinds) < 2:
            self.malformed += 1
            return
        uptime_vb, trapoid_vb = pdu.varbinds[0], pdu.varbinds[1]
        if not isinstance(uptime_vb.value, TimeTicks) or not isinstance(
            trapoid_vb.value, ObjectIdentifier
        ):
            self.malformed += 1
            return
        event = TrapEvent(
            source_ip=src_ip,
            uptime=uptime_vb.value,
            trap_oid=trapoid_vb.value.value,
            varbinds=tuple(pdu.varbinds[2:]),
            received_at=self.sim.now,
        )
        if self.callback is not None:
            self.callback(event)
