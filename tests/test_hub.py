"""Unit tests for the repeating hub: the paper's shared-medium semantics."""

import pytest

from repro.simnet.network import Network
from repro.simnet.hub import HubError
from repro.simnet.sockets import DISCARD_PORT
from tests.costs import PER_FRAME_FORBIDDEN, datagram_cost


def hub_net(n_hosts=3, speed=10e6):
    net = Network()
    hosts = [net.add_host(f"H{i}", speed_bps=100e6) for i in range(n_hosts)]
    hub = net.add_hub("hub", n_hosts + 1, speed_bps=speed)
    for host in hosts:
        net.connect(host, hub)
    net.announce_hosts()
    net.run(0.01)
    return net, hosts, hub


class TestRepeating:
    def test_frame_repeated_to_all_other_ports(self):
        net, (h0, h1, h2), hub = hub_net()
        h0.create_socket().sendto(972, (h1.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert h1.discard.datagrams == 1
        # h2's NIC saw the frame on the wire but filtered it by MAC.
        assert h2.interfaces[0].counters.in_filtered_pkts >= 1
        assert h2.discard.datagrams == 0

    def test_hosts_count_only_own_traffic(self):
        """The disjoint per-host t_j the paper's hub rule sums."""
        net, (h0, h1, h2), hub = hub_net()
        base1 = h1.interfaces[0].counters.in_octets
        base2 = h2.interfaces[0].counters.in_octets
        sock = h0.create_socket()
        for _ in range(10):
            sock.sendto(972, (h1.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert h1.interfaces[0].counters.in_octets - base1 == 10_000
        assert h2.interfaces[0].counters.in_octets - base2 == 0

    def test_link_speed_clamped_to_hub(self):
        net, hosts, hub = hub_net(speed=10e6)
        # Host NICs are 100 Mb/s but the segment runs at the hub's 10 Mb/s.
        for host in hosts:
            assert host.interfaces[0].link.bandwidth_bps == 10e6

    def test_shared_medium_serialises_streams(self):
        """Aggregate throughput cannot exceed the hub speed.

        Two hosts each offer ~8 Mb/s into a 10 Mb/s hub; the third host
        can receive at most ~10 Mb/s in total.
        """
        net, (h0, h1, h2), hub = hub_net(speed=10e6)
        from repro.simnet.trafficgen import StaircaseLoad, StepSchedule

        rate = 1.0e6  # bytes/s = 8 Mb/s each
        for src in (h0, h1):
            StaircaseLoad(
                src, h2.primary_ip, StepSchedule([(0.0, rate), (10.0, 0.0)])
            ).start()
        net.run(12.0)
        received = h2.discard.octets
        assert received <= 10e6 / 8 * 10 * 1.05  # <= hub capacity x duration
        assert received >= 10e6 / 8 * 10 * 0.80  # but the medium stayed busy
        assert hub.frames_dropped > 0  # overload had to shed frames

    def test_hub_statistics(self):
        net, (h0, h1, h2), hub = hub_net()
        before = hub.frames_repeated
        h0.create_socket().sendto(100, (h1.primary_ip, DISCARD_PORT))
        net.run(1.0)
        assert hub.frames_repeated == before + 1


class TestPorts:
    def test_port_lookup(self):
        net, hosts, hub = hub_net()
        assert hub.port(1).local_name == "port1"
        with pytest.raises(HubError):
            hub.port(9)

    def test_free_port(self):
        net, hosts, hub = hub_net(n_hosts=2)
        assert hub.free_port().link is None

    def test_minimum_ports(self):
        net = Network()
        with pytest.raises(HubError):
            net.add_hub("tiny", 1)

    def test_bad_speed(self):
        net = Network()
        with pytest.raises(HubError):
            net.add_hub("h", 4, speed_bps=0)


class TestLoopGuard:
    def test_hub_loop_storm_terminates(self):
        """Two hubs wired in a ring: the hop guard must kill the storm."""
        net = Network()
        a = net.add_host("A")
        h1 = net.add_hub("h1", 4)
        h2 = net.add_hub("h2", 4)
        net.connect(a, h1)
        net.connect(h1, h2)
        net.connect(h1, h2)  # second cable closes the loop
        from repro.simnet.network import BROADCAST_IP

        a.create_socket().sendto(10, (BROADCAST_IP, 520))
        net.run(10.0)  # must return, not circulate forever
        assert h1.frames_dropped_hops + h2.frames_dropped_hops > 0


class TestRepeatingCost:
    def test_one_datagram_costs_a_bounded_number_of_python_calls(self):
        """No wall clock: one 1000-byte datagram host -> hub -> host.  It
        was 68 Python calls and 5 events (a queue round-trip on an idle
        medium, the frame rebuilt through its constructor, an event for
        the last bit leaving each wire); an idle medium that starts the
        frame at once, a field-for-field hop copy and one event per link
        crossing left 38 and 3; an event that is its heap entry, a link
        stage that is one call, a destination resolved once and a datagram
        built in one constructor leave 21 and 3 (asserted with 10 %
        headroom on the calls, none on the events)."""
        net, (h0, h1), _hub = hub_net(n_hosts=2)
        calls, events = datagram_cost(net, h0, h1)
        assert sum(calls.values()) <= 23, calls
        assert events == 3  # arrive at the hub, end of the repeat, arrive at the host
        assert not [name for name in PER_FRAME_FORBIDDEN if calls[name]], calls
        assert calls["udp_frame"] == 1 and not calls["__post_init__"]  # built once, whole
