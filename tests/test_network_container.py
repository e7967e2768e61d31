"""Tests for the Network container and the switch management stack."""

import pytest

from repro.simnet.address import IPv4Address
from repro.simnet.network import BROADCAST_IP, Network, NetworkError
from repro.simnet.sockets import DISCARD_PORT, SocketError
from tests.costs import PER_FRAME_FORBIDDEN, call_counts


class TestDeviceRegistry:
    def test_duplicate_names_rejected_across_kinds(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(NetworkError):
            net.add_switch("x", 4)
        with pytest.raises(NetworkError):
            net.add_hub("x", 4)
        with pytest.raises(NetworkError):
            net.add_host("x")

    def test_device_lookup_by_name(self):
        net = Network()
        host = net.add_host("h")
        switch = net.add_switch("s", 4)
        hub = net.add_hub("b", 4)
        assert net.device("h") is host
        assert net.device("s") is switch
        assert net.device("b") is hub
        with pytest.raises(NetworkError):
            net.device("nope")

    def test_host_lookup_rejects_devices(self):
        net = Network()
        net.add_switch("s", 4)
        with pytest.raises(NetworkError):
            net.host("s")

    def test_endpoint_resolution(self):
        net = Network()
        host = net.add_host("h")
        net.add_switch("managed", 4, managed=True)
        net.add_switch("dumb", 4, managed=False)
        assert net.endpoint("h") is host
        assert net.endpoint("managed") is net.management["managed"]
        with pytest.raises(NetworkError):
            net.endpoint("dumb")

    def test_ip_allocation_unique_and_resolvable(self):
        net = Network()
        hosts = [net.add_host(f"h{i}") for i in range(5)]
        ips = [h.primary_ip for h in hosts]
        assert len(set(ips)) == 5
        for host in hosts:
            assert net.resolve_mac(host.primary_ip) == host.interfaces[0].mac

    def test_broadcast_resolution(self):
        net = Network()
        from repro.simnet.address import BROADCAST_MAC

        assert net.resolve_mac(BROADCAST_IP) == BROADCAST_MAC

    def test_unknown_ip_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.resolve_mac(IPv4Address("1.2.3.4"))


class TestWiring:
    def test_connect_devices_uses_free_ports(self):
        net = Network()
        a = net.add_host("a")
        sw = net.add_switch("sw", 4)
        link = net.connect(a, sw)
        assert link.end_a is a.interfaces[0]
        assert link.end_b is sw.interfaces[0]

    def test_connect_full_host_rejected(self):
        net = Network()
        a = net.add_host("a")
        sw = net.add_switch("sw", 4)
        net.connect(a, sw)
        with pytest.raises(NetworkError):
            net.connect(a, sw)

    def test_all_interfaces_enumerated(self):
        net = Network()
        net.add_host("a", n_interfaces=2)
        net.add_switch("sw", 4)
        net.add_hub("hb", 3)
        assert len(net.all_interfaces()) == 2 + 4 + 3


class TestManagementStack:
    def managed_net(self):
        net = Network()
        host = net.add_host("L")
        sw = net.add_switch("sw", 4, managed=True)
        net.connect(host, sw)
        net.announce_hosts()
        net.run(0.01)
        return net, host, net.management["sw"]

    def test_stack_has_host_like_surface(self):
        net, host, stack = self.managed_net()
        assert stack.name == "sw"
        assert stack.primary_ip == stack.ip

    def test_ephemeral_ports_and_collision(self):
        net, host, stack = self.managed_net()
        sock = stack.create_socket(9000)
        with pytest.raises(SocketError):
            stack.create_socket(9000)
        sock.close()
        stack.create_socket(9000)

    def test_large_datagram_fragmented_and_reassembled(self):
        net, host, stack = self.managed_net()
        got = []
        sock = stack.create_socket(9000)
        sock.on_receive = lambda payload, size, ip, port: got.append(size)
        host.create_socket().sendto(4000, (stack.primary_ip, 9000))
        net.run(1.0)
        assert got == [4000]

    def test_stack_can_send_to_hosts(self):
        net, host, stack = self.managed_net()
        got = []
        host_sock = host.create_socket(9001)
        host_sock.on_receive = lambda payload, size, ip, port: got.append(size)
        stack.create_socket().sendto(128, (host.primary_ip, 9001))
        net.run(1.0)
        assert got == [128]

    def test_unbound_port_counted(self):
        net, host, stack = self.managed_net()
        host.create_socket().sendto(16, (stack.primary_ip, 4321))
        net.run(1.0)
        assert stack.udp_no_port == 1

    def test_management_traffic_counts_on_ports(self):
        """In-band management consumes real port bandwidth."""
        net, host, stack = self.managed_net()
        port = net.switches["sw"].port(1)
        base = port.counters.out_octets
        sock = stack.create_socket(9000)
        sock.on_receive = lambda payload, size, ip, port_: sock.sendto(
            size, (host.primary_ip, port_)
        )
        reply_sock = host.create_socket(9002)
        got = []
        reply_sock.on_receive = lambda payload, size, ip, port_: got.append(size)
        reply_sock.sendto(64, (stack.primary_ip, 9000))
        net.run(1.0)
        assert got == [64]
        assert port.counters.out_octets > base

    def test_ephemeral_ports_run_out_with_an_error(self, monkeypatch):
        """The stack's own copy of the port picker had no exhaustion
        check: with the range bound it span for ever where a host raised."""
        monkeypatch.setattr("repro.simnet.host.EPHEMERAL_PORT_MAX", 49155)
        net, host, stack = self.managed_net()
        ports = [stack.create_socket().port for _ in range(4)]
        assert ports == [49152, 49153, 49154, 49155]
        with pytest.raises(SocketError, match="exhausted"):
            stack.create_socket()
        stack._sockets[49153].close()
        assert stack.create_socket().port == 49153

    def test_a_datagram_in_and_its_reply_out_take_no_detour(self):
        """No wall clock.  The stack is the hosts' endpoint: an
        unfragmented datagram goes round the reassembly buffer, not
        through it, and a reply that fits the MTU is never offered to the
        fragmenter -- ``sendto`` to the arrival being scheduled is
        ``sendto``, ``send_udp``, ``udp_frame``, the fabric
        (``send_management_frame`` + ``_lookup``), ``transmit`` and
        ``schedule_at``."""
        net, host, stack = self.managed_net()
        sock = stack.create_socket(9000)
        replies = []
        sock.on_receive = lambda payload, size, ip, port: replies.append(
            call_counts(lambda: sock.sendto(size, (ip, port)))
        )
        asker = host.create_socket(9002)
        asker.sendto(64, (stack.primary_ip, 9000))  # resolves, learns, warms
        net.run(1.0)

        def ask():
            asker.sendto(64, (stack.primary_ip, 9000))
            net.run(2.0)

        calls = call_counts(ask)
        assert asker.datagrams_received == 2
        assert not calls["add"] and not calls["fragment_ip_packet"], calls
        assert not [name for name in PER_FRAME_FORBIDDEN if name != "_lookup" and calls[name]]
        reply = replies[-1]
        del reply["<lambda>"]
        assert sum(reply.values()) <= 7, reply


class TestAnnouncements:
    def test_announce_teaches_all_switches(self):
        net = Network()
        hosts = [net.add_host(f"h{i}") for i in range(3)]
        sw = net.add_switch("sw", 6, managed=False)
        for h in hosts:
            net.connect(h, sw)
        net.announce_hosts()
        net.run(0.1)
        assert len(sw.fdb_entries()) == 3

    def test_announce_requires_membership(self):
        from repro.simnet.host import Host, HostError
        from repro.simnet.engine import Simulator

        host = Host(Simulator(), "stray")
        with pytest.raises(HostError):
            host.announce()

    def test_announce_skips_disconnected_interfaces(self):
        net = Network()
        host = net.add_host("h", n_interfaces=2)
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(host.interfaces[0], sw)
        net.announce_hosts()
        net.run(0.1)  # the unwired eth1 must not crash the announcement
        assert len(sw.fdb_entries()) == 1
