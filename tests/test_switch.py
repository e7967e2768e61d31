"""Unit tests for the learning switch: the paper's per-port isolation."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import switch as switch_module
from repro.simnet.address import BROADCAST_MAC, MacAddress
from repro.simnet.faults import PacketLoss
from repro.simnet.network import BROADCAST_IP, Network
from repro.simnet.nic import Interface
from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram
from repro.simnet.sockets import DISCARD_PORT
from repro.simnet.switch import Switch, SwitchError
from tests.costs import PER_FRAME_FORBIDDEN, call_counts, datagram_cost, switch_chain
from tests.link_reference import flood_port_by_port, forward_as_event


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
        resolved once and a datagram built in one constructor left 20 and
        3; a switch that admits the frame to its out-port as it arrives,
        as of its forwarding latency later, leaves 19 and 2 (asserted with
        10 % headroom on the calls, none on the events)."""
        net, (h0, h1, _h2), sw = star()
        calls, events = datagram_cost(net, h0, h1)
        assert sum(calls.values()) <= 21, calls
        assert events == 2  # arrive at the switch (and leave it), arrive at the host

    @staticmethod
    def broadcast_events(net, h0, rest):
        """Events fired by one broadcast from ``h0``; each of ``rest``
        takes it exactly once."""
        before = [host.interfaces[0].counters.in_nucast_pkts for host in rest]
        fired = net.sim.events_processed
        h0.create_socket().sendto(50, (BROADCAST_IP, 520))
        net.run(net.now + 1.0)
        after = [host.interfaces[0].counters.in_nucast_pkts for host in rest]
        assert [b - a for a, b in zip(before, after)] == [1] * len(rest)
        return net.sim.events_processed - fired

    @pytest.mark.parametrize("others", [2, 6, 14])
    def test_a_flood_is_one_event(self, others):
        """A broadcast from one host to ``others`` idle hosts is 2 events:
        the arrival at the switch, which floods it, and one arrival for
        all of them -- their crossings end at one instant.  It was 3 while
        the flood was an event of its own, ``k + 2`` (4, 8 and 16 here)
        while each port's arrival was one too, and before that ``2k + 1``
        (5, 13 and 29) while each port's departure was."""
        net, (h0, *rest), _sw = star(others + 1)
        assert self.broadcast_events(net, h0, rest) == 2

    def test_a_slower_host_is_a_second_arrival(self):
        """One 10 Mb/s host, on the last port, among 100 Mb/s ones: its
        copy of the broadcast lands later, so the flood's arrivals are
        two events and the broadcast three."""
        net = Network()
        hosts = [net.add_host(f"H{i}") for i in range(4)] + [net.add_host("slow", 10e6)]
        sw = net.add_switch("sw", 6, managed=False)
        for host in hosts:
            net.connect(host, sw)
        net.announce_hosts()
        net.run(0.01)
        assert self.broadcast_events(net, hosts[0], hosts[1:]) == 3

    def test_learning_a_station_costs_its_fdb_entry_alone(self):
        """A frame from a station the switch has not learned costs
        ``on_frame`` exactly one Python call more than one from a learned
        station, both to one learned destination: the ``FdbEntry`` it
        writes.  It was three while learning was a method (``_learn``,
        the ``now`` property and the entry)."""
        net, (h0, h1, _h2), sw = star()
        packet = IPPacket(h0.primary_ip, h1.primary_ip, UDPDatagram(1, 2, payload_size=10))
        stranger = MacAddress(0x02AB00000001)
        learned = EthernetFrame(h0.interfaces[0].mac, h1.interfaces[0].mac, packet)
        unlearned = EthernetFrame(stranger, h1.interfaces[0].mac, packet)
        known = call_counts(lambda: sw.on_frame(sw.port(1), learned))
        new = call_counts(lambda: sw.on_frame(sw.port(1), unlearned))
        assert sum(new.values()) - sum(known.values()) == 1, (known, new)
        assert new - known == Counter({"__init__": 1}) and not known - new
        assert sw._fdb[stranger.value].port is sw.port(1)

    def test_each_further_switch_adds_five_calls_and_one_event(self):
        """The guard is on the slope, not the intercept: one more switch
        on a host -> switch x n -> host chain is one more arrival
        (``deliver``), one decision (``on_frame`` + the hop copy) and one
        more link crossing (``transmit`` + ``schedule_at``), admitted as
        the frame arrives.  It was 29 calls and 3 events while every hop
        hashed and compared address objects in Python, rebuilt the frame
        through its constructor and paid an event for the last bit
        leaving the wire; 11 and 2 while each event built a handle, each
        link stage was two calls and the FDB a method; 6 and 2 while the
        forwarding latency was an event (``schedule``) of its own."""
        costs = [datagram_cost(*switch_chain(n)) for n in (1, 2, 3)]
        for (calls, events), (more_calls, more_events) in zip(costs, costs[1:]):
            assert sum(more_calls.values()) - sum(calls.values()) <= 5, more_calls - calls
            assert more_events - events == 1
        for calls, _events in costs:
            assert not [name for name in PER_FRAME_FORBIDDEN if calls[name]], calls
            # Validation runs where the datagram is built, all three layers
            # in one call, and never again however long the chain.
            assert calls["udp_frame"] == 1 and not calls["__post_init__"]


# ----------------------------------------------------------------------
# A flood's arrivals at one instant are one event: the same deliveries
# ----------------------------------------------------------------------
SPEEDS = st.sampled_from([10e6, 100e6, 100e6, 1e9])
GAPS = st.sampled_from([0.0, 0.0, 1e-5, 1e-4, 1e-3])
SIZES = st.sampled_from([64, 576, 1500])


@st.composite
def flood_programs(draw):
    """A star (one switch) or chain (two or three) of switches with
    hosts of mixed speeds, wired in any order, some links lossy; and a
    program of broadcasts, unknown-unicast floods and management floods,
    with switch ports pre-queued, shrunk to tail-drop or taken down."""
    n_switches = draw(st.integers(1, 3))
    hosts = draw(st.lists(st.lists(SPEEDS, min_size=1, max_size=4),
                          min_size=n_switches, max_size=n_switches))
    wiring = [("host", i, j) for i, speeds in enumerate(hosts) for j in range(len(speeds))]
    wiring += [("uplink", i, draw(SPEEDS)) for i in range(n_switches - 1)]
    wiring = draw(st.permutations(wiring))
    lossy = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0]),
                          min_size=len(wiring), max_size=len(wiring)))
    n_hosts = sum(len(speeds) for speeds in hosts)
    ops = st.one_of(
        st.tuples(st.sampled_from(["broadcast", "unknown"]), st.integers(0, n_hosts - 1), SIZES),
        st.tuples(st.just("management"), st.integers(0, n_switches - 1), SIZES),
        st.tuples(st.sampled_from(["queue", "shrink", "down"]),
                  st.integers(0, n_switches - 1), st.integers(0, 5)),
    )
    program = draw(st.lists(st.tuples(GAPS, ops), min_size=1, max_size=10))
    return hosts, wiring, lossy, program


def run_flood_program(hosts, wiring, lossy, program):
    """``(delivery trace, counters)`` of ``program`` run to the end.

    The trace is every ``transmit`` and ``deliver`` as it happens:
    ``(time, callback, interface, frame hops, outcome)``; the counters
    every interface's MIB-II block and channel drops, and every switch's
    forwarding counters."""
    net = Network()
    switches = [net.add_switch(f"sw{i}", 8, managed=False) for i in range(len(hosts))]
    stations = {}
    for (kind, i, arg), rate in zip(wiring, lossy):
        if kind == "host":
            stations[i, arg] = net.add_host(f"h{i}_{arg}", speed_bps=hosts[i][arg])
            link = net.connect(stations[i, arg], switches[i])
        else:
            link = net.connect(switches[i], switches[i + 1], bandwidth_bps=arg)
        if rate:
            PacketLoss(link, rate, seed=len(net.links))
    stations = [stations[key] for key in sorted(stations)]
    sim, trace = net.sim, []
    transmit, deliver = Interface.transmit, Interface.deliver

    def traced_transmit(self, frame, *arrivals):
        ok = transmit(self, frame, *arrivals)
        trace.append((sim.now, "transmit", self.full_name, frame.hops, ok))
        return ok

    def traced_deliver(self, frame):
        trace.append((sim.now, "deliver", self.full_name, frame.hops, None))
        deliver(self, frame)

    def frame_from(station, dst_mac, size):
        iface = station.interfaces[0]
        packet = IPPacket(iface.ip, BROADCAST_IP, UDPDatagram(68, 520, payload_size=size))
        return EthernetFrame(iface.mac, dst_mac, packet)

    def step(op, a, b):
        if op == "broadcast":
            stations[a].interfaces[0].transmit(frame_from(stations[a], BROADCAST_MAC, b))
        elif op == "unknown":
            stations[a].interfaces[0].transmit(frame_from(stations[a], MacAddress(0x02EE00000000 | b), b))
        elif op == "management":
            ok = switches[a].send_management_frame(frame_from(stations[0], MacAddress(0x02EF00000000 | b), b))
            trace.append((sim.now, "management", switches[a].name, 0, ok))
        else:
            port = switches[a].interfaces[b]
            if op == "queue" and port.link is not None:
                port.transmit(frame_from(stations[0], MacAddress(0x02ED00000000), 1500))
            elif op == "shrink" and port.link is not None:
                port._tx.max_queue_bytes = 1600
            elif op == "down":
                port.set_admin_up(False)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Interface, "transmit", traced_transmit)
        patch.setattr(Interface, "deliver", traced_deliver)
        at = 0.0
        for gap, op in program:
            at += gap
            sim.schedule_at(at, step, *op)
        net.run(at + 1.0)
    counters = {
        iface.full_name: (iface.counters.snapshot(), iface.tos_in_octets, iface.tos_out_octets,
                          iface._tx.frames_dropped if iface._tx else None)
        for device in switches + stations
        for iface in device.interfaces
    }
    for sw in switches:
        counters[sw.name] = (sw.frames_flooded, sw.frames_forwarded, sw.frames_dropped_hops)
    return trace, counters


class TestGroupedArrivalsAreThePortByPortFlood:
    @given(flood_programs())
    @settings(max_examples=60, deadline=None)
    def test_same_deliveries_same_counters(self, program):
        """A flood whose arrivals at one instant are one event delivers
        what the flood that scheduled an arrival per port delivered:
        the same calls at the same instants in the same order, and the
        same counters everywhere -- through mixed link speeds, queued,
        shrunk and downed ports, lossy links and management floods."""
        grouped = run_flood_program(*program)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(switch_module, "_flood", flood_port_by_port)
            port_by_port = run_flood_program(*program)
        assert grouped == port_by_port


# ----------------------------------------------------------------------
# A frame admitted as it reaches the switch is the frame forwarded as an
# event: the same arrivals
# ----------------------------------------------------------------------
BURST = 0.1  # seconds between bursts: ample for any burst's frames to land


@st.composite
def tree_programs(draw):
    """A tree of one to four switches, each below an earlier one, with
    hosts of mixed speeds; and bursts of unicast and broadcast frames
    between the hosts (a ``None`` destination is a broadcast)."""
    n_switches = draw(st.integers(1, 4))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n_switches)]
    uplinks = draw(st.lists(SPEEDS, min_size=n_switches - 1, max_size=n_switches - 1))
    hosts = draw(st.lists(st.tuples(st.integers(0, n_switches - 1), SPEEDS),
                          min_size=2, max_size=6))
    station = st.integers(0, len(hosts) - 1)
    frame = st.tuples(GAPS, station, st.one_of(st.none(), station), SIZES)
    bursts = draw(st.lists(st.lists(frame, min_size=1, max_size=8), min_size=1, max_size=4))
    return parents, uplinks, hosts, bursts


def run_tree_program(parents, uplinks, hosts, bursts):
    """``(arrivals, admissions, counters after each burst)``.

    Burst ``k`` starts at ``k * BURST`` and runs with one ``run()`` to
    ``(k + 1) * BURST``, when the network is idle again.  ``arrivals`` is
    every ``deliver`` as it happens, ``(time, interface, frame hops)``;
    ``admissions`` every ``transmit`` as ``(the instant it admits the frame
    as of, interface, frame hops, outcome)``, sorted; the counters every
    interface's MIB-II block and channel drops, and every switch's
    forwarding counters."""
    net = Network()
    switches = [net.add_switch(f"sw{i}", 12, managed=False) for i in range(len(parents) + 1)]
    for child, (parent, speed) in enumerate(zip(parents, uplinks), start=1):
        net.connect(switches[parent], switches[child], bandwidth_bps=speed)
    stations = []
    for j, (at, speed) in enumerate(hosts):
        stations.append(net.add_host(f"h{j}", speed_bps=speed))
        net.connect(stations[-1], switches[at])
    sim, arrivals, admissions, counters = net.sim, [], [], []
    transmit, deliver = Interface.transmit, Interface.deliver

    def traced_transmit(self, frame, _arrivals=None, _offset=0.0):
        ok = transmit(self, frame, _arrivals, _offset)
        admissions.append((sim.now + _offset, self.full_name, frame.hops, ok))
        return ok

    def traced_deliver(self, frame):
        arrivals.append((sim.now, self.full_name, frame.hops))
        deliver(self, frame)

    def send(a, b, size):
        iface = stations[a].interfaces[0]
        dst = (BROADCAST_IP, BROADCAST_MAC) if b is None else (
            stations[b].interfaces[0].ip, stations[b].interfaces[0].mac)
        packet = IPPacket(iface.ip, dst[0], UDPDatagram(68, 520, payload_size=size))
        iface.transmit(EthernetFrame(iface.mac, dst[1], packet))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Interface, "transmit", traced_transmit)
        patch.setattr(Interface, "deliver", traced_deliver)
        for k, burst in enumerate(bursts):
            at = k * BURST
            for gap, a, b, size in burst:
                at += gap
                sim.schedule_at(at, send, a, b, size)
            net.run((k + 1) * BURST)
            counters.append(
                [(iface.full_name, iface.counters.snapshot(), iface._tx.frames_dropped)
                 for device in switches + stations
                 for iface in device.interfaces if iface.link is not None]
                + [(sw.frames_flooded, sw.frames_forwarded) for sw in switches]
            )
    return arrivals, sorted(admissions), counters


class TestAdmittingAtArrivalIsForwardingAsAnEvent:
    @given(tree_programs())
    @settings(max_examples=60, deadline=None)
    def test_same_arrivals_same_counters(self, program):
        """A switch that admits a frame to its out-port (or floods it)
        when it arrives, as of the forwarding latency later, delivers what
        the switch that scheduled that as an event delivered: the same
        arrivals at the same instants in the same order, the same
        admissions, and the same counters everywhere at every ``run()``
        boundary -- through switch trees, mixed link speeds, unicasts to
        learned and unlearned stations and broadcasts.  Between the two,
        an out-port's counters are charged by then already (what an agent
        reading inside the latency would see), so the boundaries fall
        where the network is idle."""
        folded = run_tree_program(*program)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Switch, "on_frame", forward_as_event)
            as_event = run_tree_program(*program)
        assert folded == as_event
