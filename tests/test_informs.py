"""Tests for acknowledged notifications (InformRequest)."""

import pytest

from repro.simnet.faults import LinkFailure
from repro.simnet.network import Network
from repro.snmp.datatypes import Integer, TimeTicks
from repro.snmp.pdu import Pdu, VarBind
from repro.snmp.message import VERSION_2C, Message
from repro.snmp import trap
from repro.snmp.trap import (
    TRAP_LINK_DOWN,
    InformSender,
    TrapReceiver,
    build_trap_pdu,
)
from repro.snmp.mib import IF_INDEX
from tests.test_traps_linkstate import tap


def inform_net():
    net = Network()
    sender_host = net.add_host("S")
    receiver_host = net.add_host("R")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(sender_host, sw)
    net.connect(receiver_host, sw)
    net.announce_hosts()
    events = []
    receiver = TrapReceiver(receiver_host, callback=events.append)
    sender = InformSender(sender_host, receiver_host.primary_ip, timeout=1.0)
    return net, sender_host, receiver_host, sender, receiver, events


def link_down_inform(if_index=2):
    return build_trap_pdu(
        TimeTicks(100),
        TRAP_LINK_DOWN,
        [VarBind(IF_INDEX + str(if_index), Integer(if_index))],
        confirmed=True,
    )


class TestInformDelivery:
    def test_delivered_and_acked(self):
        net, s, r, sender, receiver, events = inform_net()
        sender.send(link_down_inform())
        net.run(2.0)
        assert len(events) == 1
        assert events[0].is_link_down
        assert sender.acked == 1
        assert not sender._pending
        assert sender.retransmissions == 0

    def test_survives_outage_and_delivers_after(self):
        """The paper-era trap failure, fixed: the notification about a
        dead link arrives once the link comes back."""
        net, s, r, sender, receiver, events = inform_net()
        link = s.interfaces[0].link
        LinkFailure(net.sim, link, at=0.5, until=6.0)
        net.run(1.0)  # link is down now
        sender.send(link_down_inform())
        net.run(5.0)
        assert events == []  # nothing could cross the dead link
        assert sender.retransmissions >= 2
        net.run(10.0)  # link restored at t=6; retries get through
        assert len(events) == 1
        assert sender.acked == 1

    def test_duplicates_deduplicated(self):
        """A lost ack causes retransmission; the receiver acks again but
        reports the event once."""
        net, s, r, sender, receiver, events = inform_net()
        # Drop the first ack by breaking the reverse path briefly: down
        # the receiver's NIC just after delivery.
        from repro.simnet.faults import PacketLoss

        loss = PacketLoss(r.interfaces[0].link, loss_rate=1.0, seed=1)
        sender.send(link_down_inform())
        net.run(0.5)
        loss.loss_rate = 0.0  # heal: next retry succeeds fully
        net.run(5.0)
        assert len(events) <= 1
        assert sender.acked <= 1

    def test_abandons_after_max_attempts(self):
        net, s, r, sender, receiver, events = inform_net()
        sender.max_attempts = 3
        LinkFailure(net.sim, s.interfaces[0].link, at=0.1)  # permanent
        net.run(0.5)
        sender.send(link_down_inform())
        net.run(30.0)
        assert sender.abandoned == 1
        assert not sender._pending
        assert events == []

    def test_rejects_non_inform_pdus(self):
        net, s, r, sender, receiver, events = inform_net()
        trap = build_trap_pdu(TimeTicks(1), TRAP_LINK_DOWN, confirmed=False)
        with pytest.raises(ValueError):
            sender.send(trap)

    def test_receiver_counts_acks(self):
        net, s, r, sender, receiver, events = inform_net()
        sender.send(link_down_inform(2))
        sender.send(link_down_inform(3))
        net.run(3.0)
        assert receiver.informs_acked == 2
        assert len(events) == 2

    def test_dedup_memory_is_bounded(self):
        """One agent's 10 000 informs leave at most INFORM_MEMORY keys
        behind, not one per inform for the receiver's life, and a
        retransmission inside that memory is acked, not redelivered."""
        net, s, r, sender, receiver, events = inform_net()

        def arrive(payload):
            receiver._on_datagram(payload, len(payload), s.primary_ip, 4000)

        payloads = [
            Message(VERSION_2C, "public", link_down_inform()).encode()
            for _ in range(10_000)
        ]
        for payload in payloads:
            arrive(payload)
        assert len(events) == receiver.informs_acked == 10_000
        assert len(receiver._seen_informs) <= trap.INFORM_MEMORY
        arrive(payloads[-trap.INFORM_MEMORY])  # the oldest one still remembered
        assert receiver.informs_acked == 10_001
        assert (len(events), receiver.duplicate_informs) == (10_000, 1)

    def test_monitor_confirmed_mode_survives_own_link_death(self):
        """S1's linkDown inform arrives after the restore; the registry
        must record the history yet end in the UP state (stale-event
        ordering by notification uptime)."""
        from repro.core.monitor import NetworkMonitor
        from repro.experiments.testbed import build_testbed

        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        monitor.watch_path("S1", "N1")
        registry = monitor.enable_trap_listener(confirmed=True)
        delivered = tap(monitor.trap_receiver)
        net = build.network
        LinkFailure(net.sim, net.host("S1").interfaces[0].link, at=10.0, until=20.0)
        monitor.start()
        net.run(12.0)
        assert len(registry.down_connections()) == 1  # switch-side inform
        net.run(45.0)
        # All four notifications eventually arrived (2 from the switch
        # live, 2 from S1 delivered after restore)...
        assert len(delivered) == 4
        # ...the out-of-order linkDown retransmissions were discarded...
        assert registry.events_stale >= 1
        # ...and the final state is healthy.
        assert registry.down_connections() == []

    def test_monitor_confirmed_flag_idempotent(self):
        from repro.core.monitor import NetworkMonitor
        from repro.experiments.testbed import build_testbed

        build = build_testbed()
        monitor = NetworkMonitor(build, "L")
        registry = monitor.enable_trap_listener(confirmed=True)
        assert monitor.enable_trap_listener() is registry

    def test_plain_traps_still_work_alongside(self):
        net, s, r, sender, receiver, events = inform_net()
        from repro.snmp.message import VERSION_2C, Message

        trap = build_trap_pdu(TimeTicks(5), TRAP_LINK_DOWN, confirmed=False)
        s.create_socket().sendto(
            Message(VERSION_2C, "public", trap).encode(), (r.primary_ip, 162)
        )
        net.run(2.0)
        assert len(events) == 1
        assert receiver.informs_acked == 0
