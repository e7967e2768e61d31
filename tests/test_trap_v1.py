"""Tests for SNMPv1 Trap-PDU support (RFC 1157 format, RFC 2576 mapping)."""

import pytest

from repro.simnet.network import Network
from repro.snmp import ber
from repro.snmp.datatypes import Integer, IpAddress, TimeTicks
from repro.snmp.message import VERSION_1, Message
from repro.snmp.mib import IF_INDEX
from repro.snmp.oid import Oid
from repro.snmp.pdu import VarBind
from repro.snmp.trap import (
    GENERIC_ENTERPRISE_SPECIFIC,
    GENERIC_LINK_DOWN,
    GENERIC_LINK_UP,
    TRAP_LINK_DOWN,
    TRAP_LINK_UP,
    TrapReceiver,
    TrapV1Pdu,
)

ENTERPRISE = Oid("1.3.6.1.4.1.99999.1")


def v1_trap(generic=GENERIC_LINK_DOWN, specific=0, if_index=1):
    return TrapV1Pdu(
        enterprise=ENTERPRISE,
        agent_addr=IpAddress("10.0.0.2"),
        generic_trap=generic,
        specific_trap=specific,
        timestamp=TimeTicks(4242),
        varbinds=[VarBind(IF_INDEX + str(if_index), Integer(if_index))],
    )


class TestWireFormat:
    def test_roundtrip(self):
        pdu = v1_trap()
        decoded, end = TrapV1Pdu.decode(pdu.encode())
        assert end == len(pdu.encode())
        assert decoded.enterprise == ENTERPRISE
        assert decoded.agent_addr == IpAddress("10.0.0.2")
        assert decoded.generic_trap == GENERIC_LINK_DOWN
        assert decoded.timestamp == TimeTicks(4242)
        assert decoded.varbinds == pdu.varbinds

    def test_message_envelope_roundtrip(self):
        raw = Message(VERSION_1, "public", v1_trap()).encode()
        decoded = Message.decode(raw)
        assert isinstance(decoded.pdu, TrapV1Pdu)
        assert decoded.pdu.kind == "trap-v1"
        assert decoded.community == "public"

    def test_malformed_rejected(self):
        raw = Message(VERSION_1, "public", v1_trap()).encode()
        with pytest.raises(ber.BerError):
            Message.decode(raw[:-3])

    @pytest.mark.parametrize("generic, specific", [(6, -1), (-1, 0), (-128, -128)])
    def test_negative_trap_codes_rejected(self, generic, specific):
        """RFC 1157: both are non-negative.  One flipped bit in the
        INTEGER makes ``enterprise.0.<specific>`` no OID at all; at the
        parent commit ``OidError`` left ``TrapReceiver._on_datagram``."""
        raw = Message(VERSION_1, "public", v1_trap(generic, specific)).encode()
        with pytest.raises(ber.BerError):
            Message.decode(raw)
        net = Network()
        receiver = TrapReceiver(net.add_host("L"))
        receiver._on_datagram(raw, len(raw), None, 4000)
        assert receiver.malformed == 1 and receiver.events == []

    def test_v2_identity_mapping(self):
        assert v1_trap(GENERIC_LINK_DOWN).v2_identity() == TRAP_LINK_DOWN
        assert v1_trap(GENERIC_LINK_UP).v2_identity() == TRAP_LINK_UP

    def test_enterprise_specific_identity(self):
        pdu = v1_trap(GENERIC_ENTERPRISE_SPECIFIC, specific=7)
        assert pdu.v2_identity() == ENTERPRISE.extend(0, 7)


class TestReceiverInterop:
    def test_v1_trap_delivered_as_event(self):
        net = Network()
        sender = net.add_host("S")
        receiver_host = net.add_host("R")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(sender, sw)
        net.connect(receiver_host, sw)
        net.announce_hosts()
        events = []
        TrapReceiver(receiver_host, callback=events.append)
        raw = Message(VERSION_1, "public", v1_trap(if_index=3)).encode()
        sender.create_socket().sendto(raw, (receiver_host.primary_ip, 162))
        net.run(1.0)
        assert len(events) == 1
        event = events[0]
        assert event.is_link_down
        assert event.if_index() == 3
        assert event.uptime == TimeTicks(4242)

    def test_v1_and_v2_coexist(self):
        net = Network()
        sender = net.add_host("S")
        receiver_host = net.add_host("R")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(sender, sw)
        net.connect(receiver_host, sw)
        net.announce_hosts()
        events = []
        TrapReceiver(receiver_host, callback=events.append)
        from repro.snmp.message import VERSION_2C
        from repro.snmp.trap import build_trap_pdu

        sock = sender.create_socket()
        sock.sendto(
            Message(VERSION_1, "public", v1_trap()).encode(),
            (receiver_host.primary_ip, 162),
        )
        sock.sendto(
            Message(
                VERSION_2C, "public", build_trap_pdu(TimeTicks(1), TRAP_LINK_UP)
            ).encode(),
            (receiver_host.primary_ip, 162),
        )
        net.run(1.0)
        assert [e.is_link_down for e in events] == [True, False]
