"""Unit tests for the learning switch: the paper's per-port isolation."""

import pytest

from repro.simnet import switch as switch_module
from repro.simnet.address import BROADCAST_MAC
from repro.simnet.network import BROADCAST_IP, Network
from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram
from repro.simnet.sockets import DISCARD_PORT
from repro.simnet.switch import SwitchError
from tests.costs import PER_FRAME_FORBIDDEN, datagram_cost, switch_chain


def star(n_hosts=3, managed=False):
    net = Network()
    hosts = [net.add_host(f"H{i}") for i in range(n_hosts)]
    sw = net.add_switch("sw", n_hosts + 2, managed=managed)
    for host in hosts:
        net.connect(host, sw)
    net.announce_hosts()
    net.run(0.01)  # let announcements land so the FDB is warm
    return net, hosts, sw


class TestForwarding:
    def test_unicast_goes_to_one_port_only(self):
        net, (h0, h1, h2), sw = star()
        h0.create_socket().sendto(1000, (h1.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert h1.discard.datagrams == 1
        # The port to h2 carried only the original announcements.
        port_h2 = sw.port(3)
        assert port_h2.counters.out_ucast_pkts == 0

    def test_per_port_counters_isolate_traffic(self):
        """The property behind the paper's switch rule u_i = t_i."""
        net, (h0, h1, h2), sw = star()
        base_p2 = sw.port(2).counters.out_octets
        base_p3 = sw.port(3).counters.out_octets
        sock = h0.create_socket()
        for _ in range(10):
            sock.sendto(972, (h1.primary_ip, DISCARD_PORT))
        net.run(1.0)
        # port2 (h1) carries 10 x 1000-byte frames outbound...
        assert sw.port(2).counters.out_octets - base_p2 == 10_000
        # ...while port3 (h2) carries none of it.
        assert sw.port(3).counters.out_octets - base_p3 == 0

    def test_unknown_destination_floods(self):
        net, hosts, sw = star()
        # Age out everything, then send to a never-seen MAC: must flood.
        before = sw.frames_flooded
        from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram
        from repro.simnet.address import MacAddress

        packet = IPPacket(
            src=hosts[0].primary_ip,
            dst=hosts[1].primary_ip,
            payload=UDPDatagram(1, 2, payload_size=10),
        )
        frame = EthernetFrame(hosts[0].interfaces[0].mac, MacAddress(0x123456), packet)
        hosts[0].interfaces[0].transmit(frame)
        net.run(1.0)
        assert sw.frames_flooded == before + 1

    def test_broadcast_reaches_all_hosts(self):
        net, (h0, h1, h2), sw = star()
        from repro.simnet.network import BROADCAST_IP

        before1, before2 = h1.udp_no_port, h2.udp_no_port
        h0.create_socket().sendto(50, (BROADCAST_IP, 520))
        net.run(1.0)
        assert h1.udp_no_port == before1 + 1
        assert h2.udp_no_port == before2 + 1

    def test_learning_stops_flooding(self):
        net, (h0, h1, h2), sw = star()
        sock = h0.create_socket()
        flooded_before = sw.frames_flooded
        sock.sendto(10, (h1.primary_ip, DISCARD_PORT))
        net.run(0.5)
        assert sw.frames_flooded == flooded_before  # h1 already learned

    def test_frame_back_to_ingress_filtered(self):
        """A frame whose destination lives on the ingress port is dropped."""
        net, (h0, h1, h2), sw = star()
        from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram

        # h0 sends a frame addressed (at L2) to its own MAC via the wire.
        packet = IPPacket(
            src=h0.primary_ip,
            dst=h1.primary_ip,
            payload=UDPDatagram(1, 2, payload_size=10),
        )
        frame = EthernetFrame(h0.interfaces[0].mac, h0.interfaces[0].mac, packet)
        delivered_before = h1.ip_received
        h0.interfaces[0].transmit(frame)
        net.run(1.0)
        assert h1.ip_received == delivered_before

    def test_mac_aging(self):
        net, (h0, h1, h2), sw = star()
        assert len(sw.fdb_entries()) == 3
        net.run(400.0)  # beyond the 300 s aging time
        assert sw.fdb_entries() == []


class TestLearning:
    """``fdb_version`` moves exactly when the set of live (mac, port)
    rows does; refreshing a binding that has not changed moves nothing
    and allocates nothing."""

    @staticmethod
    def say_hello(net, host, to):
        host.create_socket().sendto(10, (to.primary_ip, DISCARD_PORT))
        net.run(net.now + 0.01)

    def test_relearning_an_unchanged_binding_updates_it_in_place(self, monkeypatch):
        net, (h0, h1, _h2), sw = star()
        built = []

        class CountedEntry(switch_module.FdbEntry):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(switch_module, "FdbEntry", CountedEntry)
        version, rows = sw.fdb_version, sw.fdb_entries()
        entry = sw._fdb[h0.interfaces[0].mac.value]
        net.run(5.0)
        self.say_hello(net, h0, h1)
        assert built == [] and sw.fdb_version == version
        assert sw._fdb[h0.interfaces[0].mac.value] is entry
        assert entry.learned_at == pytest.approx(5.0, abs=1e-3)  # the refresh did land
        assert [row[:2] for row in sw.fdb_entries()] == [row[:2] for row in rows]

    def test_a_moved_station_bumps_the_version_exactly_once(self):
        net, (h0, h1, h2), sw = star()
        # h2 starts speaking with h0's MAC: the station moved to h2's port.
        h2.interfaces[0].mac = h0.interfaces[0].mac
        version = sw.fdb_version
        self.say_hello(net, h2, h1)
        assert sw.fdb_version == version + 1
        moved = {mac: port for mac, port, _age in sw.fdb_entries()}
        assert moved[h0.interfaces[0].mac] == sw.port(3).if_index  # h2 sits on port 3
        self.say_hello(net, h2, h1)  # and now it is an unchanged binding
        assert sw.fdb_version == version + 1

    def test_an_aged_out_station_bumps_the_version_exactly_once(self):
        net, (h0, h1, _h2), sw = star()
        net.run(400.0)  # beyond the 300 s aging time: nothing is listed
        assert sw.fdb_entries() == []
        version = sw.fdb_version
        # A broadcast, so no lookup ages anything out on the way: only
        # the re-learn of h0 may move the version.
        h0.interfaces[0].transmit(
            EthernetFrame(
                h0.interfaces[0].mac,
                BROADCAST_MAC,
                IPPacket(h0.primary_ip, BROADCAST_IP, UDPDatagram(68, 68, payload_size=18)),
            )
        )
        net.run(net.now + 0.01)
        assert sw.fdb_version == version + 1
        assert [mac for mac, _port, _age in sw.fdb_entries()] == [h0.interfaces[0].mac]


class TestPorts:
    def test_port_lookup_one_based(self):
        net, hosts, sw = star()
        assert sw.port(1).local_name == "port1"
        with pytest.raises(SwitchError):
            sw.port(0)
        with pytest.raises(SwitchError):
            sw.port(99)

    def test_free_port_allocation(self):
        net, hosts, sw = star(n_hosts=2)
        free = sw.free_port()
        assert free.link is None

    def test_no_free_ports_raises(self):
        net = Network()
        sw = net.add_switch("sw", 2, managed=False)
        a = net.add_host("A")
        b = net.add_host("B")
        net.connect(a, sw)
        net.connect(b, sw)
        with pytest.raises(SwitchError):
            sw.free_port()

    def test_minimum_ports(self):
        net = Network()
        with pytest.raises(SwitchError):
            net.add_switch("tiny", 1)


class TestManagement:
    def test_managed_switch_answers_udp(self):
        net = Network()
        a = net.add_host("A")
        sw = net.add_switch("sw", 4, managed=True)
        net.connect(a, sw)
        net.announce_hosts()
        stack = net.management["sw"]
        got = []
        sock = stack.create_socket(5000)
        sock.on_receive = lambda payload, size, ip, port: got.append(size)
        a.create_socket().sendto(64, (stack.primary_ip, 5000))
        net.run(1.0)
        assert got == [64]

    def test_management_reply_reaches_host(self):
        net = Network()
        a = net.add_host("A")
        sw = net.add_switch("sw", 4, managed=True)
        net.connect(a, sw)
        net.announce_hosts()
        stack = net.management["sw"]
        got = []
        a_sock = a.create_socket(6000)
        a_sock.on_receive = lambda payload, size, ip, port: got.append(size)
        sock = stack.create_socket(5000)
        sock.on_receive = lambda payload, size, ip, port: sock.sendto(size * 2, (ip, port))
        a.create_socket(6001)  # unrelated
        net.run(0.1)
        a2 = a.create_socket()
        # send from port 6000 by sending via the bound socket
        a_sock.sendto(32, (stack.primary_ip, 5000))
        net.run(1.0)
        assert got == [64]

    def test_fdb_entries_sorted_by_mac(self):
        net, hosts, sw = star(n_hosts=3)
        entries = sw.fdb_entries()
        macs = [mac for mac, _port, _age in entries]
        assert macs == sorted(macs)


class TestLoopGuard:
    def test_hop_limit_kills_circulating_frames(self):
        """Two switches wired in a loop must not melt down."""
        net = Network()
        a = net.add_host("A")
        sw1 = net.add_switch("sw1", 4, managed=False)
        sw2 = net.add_switch("sw2", 4, managed=False)
        net.connect(a, sw1)
        # Parallel links between sw1 and sw2 form a loop.
        net.connect(sw1, sw2)
        net.connect(sw1, sw2)
        from repro.simnet.network import BROADCAST_IP

        a.create_socket().sendto(10, (BROADCAST_IP, 520))
        net.run(5.0)  # must terminate rather than loop forever
        assert sw1.frames_dropped_hops + sw2.frames_dropped_hops > 0


class TestForwardingCost:
    def test_one_datagram_costs_a_bounded_number_of_python_calls(self):
        """No wall clock: one 1000-byte datagram host -> switch -> host,
        socket to DISCARD service, two links and one FDB lookup.  With
        every ``size`` a property chain, a ``dataclasses.replace`` per hop
        and dataclass heap entries this took 174 Python calls; sizes fixed
        at construction, a direct frame constructor and tuple heap entries
        left 76 and 5 events; integer-keyed tables, a field-for-field hop
        copy and one event per link crossing left 38 and 3; an event that
        is its heap entry, a link stage that is one call, a destination
        resolved once and a datagram built in one constructor leave 20 and
        3 (asserted with 10 % headroom on the calls, none on the events)."""
        net, (h0, h1, _h2), sw = star()
        calls, events = datagram_cost(net, h0, h1)
        assert sum(calls.values()) <= 22, calls
        assert events == 3  # arrive at the switch, leave it, arrive at the host

    @pytest.mark.parametrize("others", [2, 6, 14])
    def test_a_flood_is_one_event(self, others):
        """A broadcast from one host to ``others`` more is ``others + 2``
        events: the arrival at the switch, the flood, one arrival per
        host.  The flood hands the frame to every linked port but the one
        it came in on in one event; it was one event per port, ``2k + 1``
        in all (5, 13 and 29 here)."""
        net, (h0, *rest), _sw = star(others + 1)
        before = [host.interfaces[0].counters.in_nucast_pkts for host in rest]
        fired = net.sim.events_processed
        h0.create_socket().sendto(50, (BROADCAST_IP, 520))
        net.run(net.now + 1.0)
        assert net.sim.events_processed - fired == others + 2
        after = [host.interfaces[0].counters.in_nucast_pkts for host in rest]
        assert [b - a for a, b in zip(before, after)] == [1] * others

    def test_each_further_switch_adds_six_calls_and_two_events(self):
        """The guard is on the slope, not the intercept: one more switch
        on a host -> switch x n -> host chain is one more arrival
        (``deliver``), one decision (``on_frame`` + the hop copy), one
        forwarding-latency event (``schedule``) and one more link crossing
        (``transmit`` + ``schedule_at``).  It was 29 calls and 3 events
        while every hop hashed and compared address objects in Python,
        rebuilt the frame through its constructor and paid an event for
        the last bit leaving the wire; 11 and 2 while each event built a
        handle, each link stage was two calls and the FDB a method."""
        costs = [datagram_cost(*switch_chain(n)) for n in (1, 2, 3)]
        for (calls, events), (more_calls, more_events) in zip(costs, costs[1:]):
            assert sum(more_calls.values()) - sum(calls.values()) <= 6, more_calls - calls
            assert more_events - events == 2
        for calls, _events in costs:
            assert not [name for name in PER_FRAME_FORBIDDEN if calls[name]], calls
            # Validation runs where the datagram is built, all three layers
            # in one call, and never again however long the chain.
            assert calls["udp_frame"] == 1 and not calls["__post_init__"]
