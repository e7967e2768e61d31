"""Unit tests for hosts: sockets, UDP stack, fragmentation, loopback."""

import pytest

from repro.simnet.address import IPv4Address
from repro.simnet.host import HostError
from repro.simnet.network import Network, NetworkError
from repro.simnet.sockets import DISCARD_PORT, SocketError
from tests.costs import PER_FRAME_FORBIDDEN, call_counts


def two_hosts():
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(a, sw)
    net.connect(b, sw)
    net.announce_hosts()
    net.run(0.01)  # let announcements complete before the test acts
    return net, a, b


class TestSockets:
    def test_bound_port_delivery(self):
        net, a, b = two_hosts()
        got = []
        sock_b = b.create_socket(5000)
        sock_b.on_receive = lambda payload, size, ip, port: got.append((size, str(ip)))
        sock_a = a.create_socket()
        sock_a.sendto(100, (b.primary_ip, 5000))
        net.run(1.0)
        assert got == [(100, str(a.primary_ip))]

    def test_payload_bytes_arrive_intact(self):
        net, a, b = two_hosts()
        got = []
        sock_b = b.create_socket(5000)
        sock_b.on_receive = lambda payload, size, ip, port: got.append(payload)
        a.create_socket().sendto(b"hello world", (b.primary_ip, 5000))
        net.run(1.0)
        assert got == [b"hello world"]

    def test_source_port_visible_to_receiver(self):
        net, a, b = two_hosts()
        got = []
        sock_b = b.create_socket(5000)
        sock_b.on_receive = lambda payload, size, ip, port: got.append(port)
        sock_a = a.create_socket(6000)
        sock_a.sendto(10, (b.primary_ip, 5000))
        net.run(1.0)
        assert got == [6000]

    def test_unbound_port_counted(self):
        net, a, b = two_hosts()
        before = b.udp_no_port  # announcements also land on an unbound port
        a.create_socket().sendto(10, (b.primary_ip, 4444))
        net.run(1.0)
        assert b.udp_no_port == before + 1

    def test_port_collision_rejected(self):
        _, a, _ = two_hosts()
        a.create_socket(7000)
        with pytest.raises(SocketError):
            a.create_socket(7000)

    def test_close_releases_port(self):
        _, a, _ = two_hosts()
        sock = a.create_socket(7000)
        sock.close()
        a.create_socket(7000)  # no error

    def test_send_on_closed_socket_raises(self):
        _, a, b = two_hosts()
        sock = a.create_socket()
        sock.close()
        with pytest.raises(SocketError):
            sock.sendto(1, (b.primary_ip, 9))

    def test_ephemeral_ports_distinct(self):
        _, a, _ = two_hosts()
        ports = {a.create_socket().port for _ in range(20)}
        assert len(ports) == 20

    def test_socket_statistics(self):
        net, a, b = two_hosts()
        sock = a.create_socket()
        sock.sendto(100, (b.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert sock.datagrams_sent == 1
        assert sock.octets_sent == 100


class TestDiscard:
    def test_discard_service_counts(self):
        net, a, b = two_hosts()
        sock = a.create_socket()
        for _ in range(3):
            sock.sendto(500, (b.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert b.discard.datagrams == 3
        assert b.discard.octets == 1500


class TestFragmentationEndToEnd:
    def test_large_datagram_reassembled(self):
        net, a, b = two_hosts()
        got = []
        sock_b = b.create_socket(5000)
        sock_b.on_receive = lambda payload, size, ip, port: got.append(size)
        a.create_socket().sendto(5000, (b.primary_ip, 5000))
        net.run(1.0)
        assert got == [5000]

    def test_fragments_visible_on_wire(self):
        net, a, b = two_hosts()
        a.create_socket().sendto(5000, (b.primary_ip, DISCARD_PORT))
        net.run(1.0)
        # 5008 transport bytes, 1480 per fragment -> 4 frames on the wire.
        assert a.interfaces[0].counters.out_ucast_pkts == 4


class TestLoopback:
    def test_local_destination_bypasses_wire(self):
        net, a, _ = two_hosts()
        got = []
        sock = a.create_socket(5000)
        sock.on_receive = lambda payload, size, ip, port: got.append(size)
        before = a.interfaces[0].counters.out_octets
        a.create_socket().sendto(77, (a.primary_ip, 5000))
        net.run(1.0)
        assert got == [77]
        assert a.interfaces[0].counters.out_octets == before


class TestRouting:
    def test_multihomed_route_selection(self):
        net = Network()
        a = net.add_host("A", n_interfaces=2)
        b = net.add_host("B")
        c = net.add_host("C")
        sw1 = net.add_switch("sw1", 4, managed=False)
        sw2 = net.add_switch("sw2", 4, managed=False)
        net.connect(a.interfaces[0], sw1)
        net.connect(a.interfaces[1], sw2)
        net.connect(b, sw1)
        net.connect(c, sw2)
        a.add_route(c.primary_ip, 32, a.interfaces[1])
        net.announce_hosts()
        a.create_socket().sendto(100, (c.primary_ip, DISCARD_PORT))
        a.create_socket().sendto(100, (b.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert b.discard.datagrams == 1
        assert c.discard.datagrams == 1

    def two_lans(self):
        """A on sw1; C on sw2, which A does not reach yet."""
        net = Network()
        a, c = net.add_host("A"), net.add_host("C")
        sw1 = net.add_switch("sw1", 4, managed=False)
        sw2 = net.add_switch("sw2", 4, managed=False)
        net.connect(a, sw1)
        net.connect(c, sw2)
        net.announce_hosts()
        net.run(0.01)
        return net, a, c, sw2

    def test_a_route_gained_after_the_first_datagram_moves_the_next_one(self):
        """A destination is resolved once per sender -- until a route is
        added: the memo is cleared, not consulted stale."""
        net, a, c, sw2 = self.two_lans()
        eth1 = net.add_host_interface(a, "eth1")
        net.connect(eth1, sw2)
        sock, target = a.create_socket(), (c.primary_ip, DISCARD_PORT)
        sock.sendto(100, target)  # no route: out of eth0, into the wrong LAN
        net.run(1.0)
        assert (a.interfaces[0].counters.out_ucast_pkts, c.discard.datagrams) == (1, 0)
        a.add_route(c.primary_ip, 32, eth1)
        sock.sendto(100, target)
        net.run(2.0)
        assert (a.interfaces[0].counters.out_ucast_pkts, c.discard.datagrams) == (1, 1)
        assert eth1.counters.out_ucast_pkts == 1

    def test_an_interface_gained_after_the_first_datagram_is_used_and_is_local(self):
        net, a, c, sw2 = self.two_lans()
        sock, target = a.create_socket(), (c.primary_ip, DISCARD_PORT)
        sock.sendto(100, target)
        net.run(1.0)
        assert c.discard.datagrams == 0
        eth1 = net.add_host_interface(a, "eth1")
        net.connect(eth1, sw2)
        a.add_route(c.primary_ip, 32, eth1)
        sock.sendto(100, target)
        sock.sendto(100, (eth1.ip, DISCARD_PORT))  # its address is one of A's own now
        net.run(2.0)
        assert (eth1.counters.out_ucast_pkts, c.discard.datagrams) == (1, 1)
        assert a.discard.datagrams == 1 and eth1.counters.in_ucast_pkts == 0

    def test_route_must_use_own_interface(self):
        net = Network()
        a = net.add_host("A")
        b = net.add_host("B")
        with pytest.raises(HostError):
            a.add_route(b.primary_ip, 32, b.interfaces[0])


class TestSendCost:
    def test_sendto_reaches_the_wire_in_five_calls(self):
        """No wall clock: from ``sendto`` to the frame's arrival being
        scheduled is ``sendto``, ``send_udp``, the one constructor of all
        three layers (``udp_frame``), ``transmit`` and ``schedule_at``.
        It was 16 while each send looked up the route, the destination's
        MAC and its own addresses, and built and validated datagram,
        packet and frame one dataclass at a time."""
        net, a, b = two_hosts()
        sock, target = a.create_socket(), (b.primary_ip, DISCARD_PORT)
        sock.sendto(972, target)  # resolves the destination
        queued = net.sim.pending_count()
        calls = call_counts(lambda: sock.sendto(972, target))
        assert net.sim.pending_count() == queued + 1  # the arrival at the switch
        del calls["<lambda>"]
        assert sum(calls.values()) <= 5, calls
        assert not [name for name in PER_FRAME_FORBIDDEN if calls[name]], calls
        assert not calls["__post_init__"] and calls["udp_frame"] == 1


class TestHostErrors:
    def test_duplicate_interface_name(self):
        net = Network()
        a = net.add_host("A")
        with pytest.raises(HostError):
            net.add_host_interface(a, "eth0")

    def test_unknown_interface_lookup(self):
        net = Network()
        a = net.add_host("A")
        with pytest.raises(HostError):
            a.interface("eth9")

    def test_unknown_destination_ip(self):
        net, a, _ = two_hosts()
        with pytest.raises(NetworkError):
            a.create_socket().sendto(1, (IPv4Address("10.99.99.99"), 9))

    def test_misdelivered_unicast_refused(self):
        net, a, b = two_hosts()
        # Craft a frame to B's MAC but a foreign IP: B must not deliver it.
        from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram

        packet = IPPacket(
            src=a.primary_ip,
            dst=IPv4Address("10.0.0.77"),
            payload=UDPDatagram(1, DISCARD_PORT, payload_size=10),
        )
        frame = EthernetFrame(a.interfaces[0].mac, b.interfaces[0].mac, packet)
        a.interfaces[0].transmit(frame)
        net.run(1.0)
        assert b.ip_forward_refused == 1
        assert b.discard.datagrams == 0
