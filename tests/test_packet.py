"""Unit tests for packets, header accounting, fragmentation, reassembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.address import BROADCAST_MAC, IPv4Address, MacAddress
from repro.simnet.network import BROADCAST_IP, Network
from repro.simnet.packet import (
    ETHERNET_OVERHEAD,
    IPV4_HEADER_SIZE,
    UDP_HEADER_SIZE,
    EthernetFrame,
    IPPacket,
    REASSEMBLY_TIMEOUT,
    PacketError,
    ReassemblyBuffer,
    UDPDatagram,
    _packet_ids,
    fragment_ip_packet,
    udp_frame,
)
from repro.simnet.sockets import DISCARD_PORT

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.0.0.2")


def make_packet(payload_size: int) -> IPPacket:
    return IPPacket(src=SRC, dst=DST, payload=UDPDatagram(1000, 9, payload_size=payload_size))


class TestUDPDatagram:
    def test_size_includes_header(self):
        assert UDPDatagram(1, 2, payload_size=100).size == 100 + UDP_HEADER_SIZE

    def test_bytes_payload_sets_size(self):
        d = UDPDatagram(1, 2, payload=b"hello")
        assert d.payload_size == 5
        assert d.size == 5 + UDP_HEADER_SIZE

    def test_conflicting_sizes_rejected(self):
        with pytest.raises(PacketError):
            UDPDatagram(1, 2, payload=b"hello", payload_size=3)

    def test_matching_explicit_size_ok(self):
        assert UDPDatagram(1, 2, payload=b"hi", payload_size=2).payload_size == 2

    def test_missing_payload_rejected(self):
        with pytest.raises(PacketError):
            UDPDatagram(1, 2)

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_bad_ports_rejected(self, port):
        with pytest.raises(PacketError):
            UDPDatagram(port, 9, payload_size=1)


class TestIPPacket:
    def test_size_stacks_headers(self):
        packet = make_packet(100)
        assert packet.size == 100 + UDP_HEADER_SIZE + IPV4_HEADER_SIZE

    def test_paper_header_overhead_is_about_two_percent(self):
        """1472-byte payload + 28 header bytes = the paper's ~2 % figure."""
        packet = make_packet(1472)
        overhead = packet.size / 1472
        assert 1.018 < overhead < 1.020

    def test_fragment_ids_unique(self):
        assert make_packet(10).fragment_id != make_packet(10).fragment_id

    def test_non_positive_ttl_rejected(self):
        with pytest.raises(PacketError):
            IPPacket(src=SRC, dst=DST, payload=UDPDatagram(1, 2, payload_size=1), ttl=0)

    def test_needs_payload_or_fragment_size(self):
        with pytest.raises(PacketError):
            IPPacket(src=SRC, dst=DST)


class TestEthernetFrame:
    def test_default_no_l2_overhead(self):
        packet = make_packet(100)
        frame = EthernetFrame(MacAddress(1), MacAddress(2), packet)
        assert frame.size == packet.size

    def test_optional_l2_overhead(self):
        packet = make_packet(100)
        frame = EthernetFrame(MacAddress(1), MacAddress(2), packet, l2_overhead=18)
        assert frame.size == packet.size + 18

    def test_broadcast_and_unicast_flags(self):
        from repro.simnet.address import BROADCAST_MAC

        packet = make_packet(1)
        bcast = EthernetFrame(MacAddress(1), BROADCAST_MAC, packet)
        ucast = EthernetFrame(MacAddress(1), MacAddress(2), packet)
        assert bcast.is_broadcast and not bcast.is_unicast
        assert ucast.is_unicast and not ucast.is_broadcast


class TestFragmentation:
    def test_small_packet_untouched(self):
        packet = make_packet(100)
        assert fragment_ip_packet(packet, 1500) == [packet]

    def test_fragment_sizes_respect_mtu(self):
        packet = make_packet(4000)
        frags = fragment_ip_packet(packet, 1500)
        assert len(frags) == 3
        assert all(f.size <= 1500 for f in frags)

    def test_fragment_data_conserved(self):
        packet = make_packet(4000)
        frags = fragment_ip_packet(packet, 1500)
        assert sum(f.transport_size for f in frags) == packet.transport_size

    def test_offsets_contiguous(self):
        frags = fragment_ip_packet(make_packet(5000), 1500)
        offset = 0
        for frag in frags:
            assert frag.fragment_offset == offset
            offset += frag.transport_size
        assert frags[-1].more_fragments is False
        assert all(f.more_fragments for f in frags[:-1])

    def test_all_fragments_share_id(self):
        frags = fragment_ip_packet(make_packet(5000), 1500)
        assert len({f.fragment_id for f in frags}) == 1

    def test_intermediate_data_multiple_of_eight(self):
        frags = fragment_ip_packet(make_packet(5000), 1500)
        for frag in frags[:-1]:
            assert frag.transport_size % 8 == 0

    def test_refragmenting_rejected(self):
        frags = fragment_ip_packet(make_packet(5000), 1500)
        with pytest.raises(PacketError):
            fragment_ip_packet(frags[0], 500)

    def test_tiny_mtu_rejected(self):
        with pytest.raises(PacketError):
            fragment_ip_packet(make_packet(100), IPV4_HEADER_SIZE + 8)


class TestReassembly:
    def test_unfragmented_passthrough(self):
        buf = ReassemblyBuffer()
        packet = make_packet(100)
        assert buf.add(packet, now=0.0) is packet

    def test_in_order_reassembly(self):
        buf = ReassemblyBuffer()
        packet = make_packet(4000)
        frags = fragment_ip_packet(packet, 1500)
        results = [buf.add(f, now=0.0) for f in frags]
        assert results[:-1] == [None, None]
        final = results[-1]
        assert final is not None
        assert final.payload is packet.payload
        assert not final.is_fragment

    def test_out_of_order_reassembly(self):
        buf = ReassemblyBuffer()
        packet = make_packet(4000)
        frags = fragment_ip_packet(packet, 1500)
        assert buf.add(frags[2], now=0.0) is None
        assert buf.add(frags[0], now=0.0) is None
        final = buf.add(frags[1], now=0.0)
        assert final is not None and final.payload is packet.payload

    def test_interleaved_packets(self):
        buf = ReassemblyBuffer()
        p1, p2 = make_packet(2000), make_packet(2000)  # 2 fragments each
        f1 = fragment_ip_packet(p1, 1500)
        f2 = fragment_ip_packet(p2, 1500)
        assert len(f1) == len(f2) == 2
        assert buf.add(f1[0], 0.0) is None
        assert buf.add(f2[0], 0.0) is None
        done1 = buf.add(f1[-1], 0.0)
        done2 = buf.add(f2[-1], 0.0)
        assert done1.payload is p1.payload
        assert done2.payload is p2.payload

    def test_expiry_discards_stale_groups(self):
        buf = ReassemblyBuffer()
        frags = fragment_ip_packet(make_packet(4000), 1500)
        assert buf.add(frags[0], now=0.0) is None
        assert buf.pending_groups() == 1
        # A later packet triggers expiry of the stale group.
        later = REASSEMBLY_TIMEOUT + 10.0
        other = make_packet(100)
        buf.add(other, now=later)
        frag2 = fragment_ip_packet(make_packet(200), 150)
        buf.add(frag2[0], now=later)
        assert buf.expired_groups == 1


class TestReassemblyCoversTheDatagram:
    """A fragment group is complete when what arrived covers the datagram
    from its first byte to its last -- not when the sizes add up."""

    @staticmethod
    def shifted(fragment, by):
        """A foreign fragment: ``fragment``'s group and size, ``by`` bytes on."""
        return IPPacket(
            src=fragment.src, dst=fragment.dst, fragment_id=fragment.fragment_id,
            fragment_offset=fragment.fragment_offset + by, more_fragments=True,
            fragment_payload_size=fragment.transport_size,
        )

    def test_a_shifted_copy_does_not_stand_in_for_a_lost_fragment(self):
        """A 3 440-byte datagram: (0, 1480), (1480, 1480), (2960, 480).  The middle
        one lost and a copy of the first at offset 8 in its place: the
        sizes add up, bytes 1 488 to 2 960 never arrived."""
        buf = ReassemblyBuffer()
        packet = make_packet(3440 - UDP_HEADER_SIZE)
        first, middle, last = fragment_ip_packet(packet, 1500)
        assert [(f.fragment_offset, f.transport_size) for f in (first, middle, last)] == [
            (0, 1480), (1480, 1480), (2960, 480)
        ]
        for fragment in (first, self.shifted(first, 8), last):
            assert buf.add(fragment, now=0.0) is None
        assert buf.pending_groups() == 1
        whole = buf.add(middle, now=0.0)
        assert whole is not None and whole.payload is packet.payload
        assert buf.pending_groups() == 0

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(1, 6000), mtu=st.sampled_from([68, 200, 576, 1500]),
        data=st.data(),
    )
    def test_duplicated_and_reordered_fragments_reassemble_once(self, size, mtu, data):
        """Every true fragment at least once, in any order, any of them
        again before the last one new: one datagram, when the last new
        one lands."""
        packet = make_packet(size)
        fragments = fragment_ip_packet(packet, mtu)
        picks = list(range(len(fragments))) + data.draw(
            st.lists(st.integers(0, len(fragments) - 1), max_size=10)
        )
        order = data.draw(st.permutations(picks))
        seen, cut = set(), 0
        while len(seen) < len(fragments):
            seen.add(order[cut])
            cut += 1
        buf = ReassemblyBuffer()
        results = [buf.add(fragments[i], now=0.0) for i in order[:cut]]
        done = [r for r in results if r is not None and not r.is_fragment]
        if len(fragments) == 1:
            assert results == [packet] * cut
        else:
            assert results[:-1] == [None] * (cut - 1) and len(done) == 1
            assert done[0].payload is packet.payload
        assert buf.pending_groups() == 0

    @settings(max_examples=150, deadline=None)
    @given(size=st.integers(100, 6000), mtu=st.sampled_from([68, 200, 576, 1500]),
           data=st.data())
    def test_an_overlapping_foreign_fragment_never_fills_a_gap(self, size, mtu, data):
        """One true fragment lost; the rest in any order and number, with
        copies of them shifted by multiples of 8 that leave the lost one's
        first byte uncovered: never complete."""
        fragments = fragment_ip_packet(make_packet(size), mtu)
        if len(fragments) < 2:
            return
        lost = data.draw(st.integers(0, len(fragments) - 1))
        hole = fragments[lost].fragment_offset
        kept = [f for i, f in enumerate(fragments) if i != lost]
        foreign = []
        for fragment, eighths in data.draw(st.lists(
            st.tuples(st.sampled_from(kept), st.integers(1, 400)), min_size=1, max_size=6
        )):
            copy = self.shifted(fragment, 8 * eighths)
            if copy.fragment_offset > hole or copy.fragment_offset + copy.transport_size <= hole:
                foreign.append(copy)
        arrivals = data.draw(st.permutations(kept + kept[: data.draw(st.integers(0, 3))] + foreign))
        buf = ReassemblyBuffer()
        assert [buf.add(f, now=0.0) for f in arrivals] == [None] * len(arrivals)
        assert buf.pending_groups() == 1


class TestTosOctet:
    def test_default_tos_is_best_effort(self):
        assert make_packet(10).tos == 0

    def test_tos_survives_fragmentation_and_reassembly(self):
        from repro.simnet.packet import ReassemblyBuffer, fragment_ip_packet

        packet = IPPacket(
            src=SRC, dst=DST,
            payload=UDPDatagram(1, 2, payload_size=3000), tos=184,
        )
        frags = fragment_ip_packet(packet, 1500)
        assert len(frags) > 1
        assert all(f.tos == 184 for f in frags)
        buf = ReassemblyBuffer()
        whole = None
        for frag in frags:
            whole = buf.add(frag, now=0.0)
        assert whole is not None and whole.tos == 184

    def test_tos_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            IPPacket(
                src=SRC, dst=DST,
                payload=UDPDatagram(1, 2, payload_size=1), tos=256,
            )


# ----------------------------------------------------------------------
# Sizes are fixed at construction: they must never drift from the fields
# ----------------------------------------------------------------------
def assert_sizes_follow_fields(frame: EthernetFrame) -> None:
    """Every layer's cached size equals header + payload recomputed here."""
    packet = frame.payload
    datagram = packet.payload
    if datagram is not None:
        assert datagram.size == UDP_HEADER_SIZE + datagram.payload_size
    transport = (
        packet.fragment_payload_size
        if packet.fragment_payload_size is not None
        else UDP_HEADER_SIZE + datagram.payload_size
    )
    assert packet.transport_size == transport
    assert packet.size == IPV4_HEADER_SIZE + transport
    assert frame.size == frame.l2_overhead + IPV4_HEADER_SIZE + transport
    assert frame.is_broadcast == frame.dst.is_broadcast
    assert frame.is_unicast == (not (frame.dst.is_broadcast or frame.dst.is_multicast))


class TestOneShotConstructor:
    """``udp_frame`` against the three dataclasses it stands in for."""

    SRC_MAC = MacAddress(0x020000000002)
    PORTS = st.one_of(st.sampled_from([-1, 0, 9, 65535, 65536]), st.integers(-70000, 70000))
    SIZES = st.one_of(st.none(), st.sampled_from([-1, 0, 3, 1472, 1473]), st.integers(-5, 70000))

    @staticmethod
    def outcome(build):
        """What ``build`` raised or every attribute, derived ones included,
        of the three layers it built -- and the packet ids it drew."""
        before = next(_packet_ids)
        try:
            frame = build()
            layers = [dict(vars(layer)) for layer in (frame, frame.payload, frame.payload.payload)]
            layers[0].pop("payload"), layers[1].pop("payload")
            layers[1]["fragment_id"] -= before
            result = layers
        except PacketError as error:
            result = str(error)
        return result, next(_packet_ids) - before

    @given(
        dst_mac=st.sampled_from(
            [MacAddress(0x020000000001), MacAddress(0x01005E000001), BROADCAST_MAC]
        ),
        src_port=PORTS,
        dst_port=PORTS,
        payload=st.one_of(st.none(), st.binary(max_size=3)),
        payload_size=SIZES,
        tos=st.one_of(st.sampled_from([-1, 0, 184, 255, 256]), st.integers(-300, 300)),
    )
    @settings(max_examples=500, deadline=None)
    def test_raises_when_they_raise_and_builds_what_they_build(
        self, dst_mac, src_port, dst_port, payload, payload_size, tos
    ):
        """Port range, payload bytes against the stated size, negative
        size, ToS range: the same refusals with the same words, else the
        same three objects field for field (sizes and address flags too),
        drawing the same number of fragment ids either way."""
        one_shot = self.outcome(
            lambda: udp_frame(
                self.SRC_MAC, dst_mac, SRC, DST, src_port, dst_port, payload, payload_size, tos
            )
        )
        layer_by_layer = self.outcome(
            lambda: EthernetFrame(
                self.SRC_MAC,
                dst_mac,
                IPPacket(SRC, DST, UDPDatagram(src_port, dst_port, payload, payload_size), tos=tos),
            )
        )
        assert one_shot == layer_by_layer


class TestSizesFollowFields:
    MACS = st.sampled_from(
        [MacAddress(0x020000000001), MacAddress(0x01005E000001), BROADCAST_MAC]
    )

    @given(
        payload_size=st.integers(0, 9000),
        mtu=st.integers(IPV4_HEADER_SIZE + 9, 1500),
        l2_overhead=st.sampled_from([0, ETHERNET_OVERHEAD]),
        dst=MACS,
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_through_fragmentation_and_reassembly(
        self, payload_size, mtu, l2_overhead, dst, order
    ):
        whole = make_packet(payload_size)
        fragments = fragment_ip_packet(whole, mtu)
        for fragment in fragments:
            assert fragment.size <= mtu
            assert_sizes_follow_fields(
                EthernetFrame(MacAddress(0x020000000002), dst, fragment, l2_overhead)
            )
        assert sum(f.transport_size for f in fragments) == whole.transport_size
        order.shuffle(fragments)
        buf = ReassemblyBuffer()
        done = [p for p in (buf.add(f, 0.0) for f in fragments) if p is not None]
        assert len(done) == 1 and buf.pending_groups() == 0
        assert_sizes_follow_fields(
            EthernetFrame(MacAddress(0x020000000002), dst, done[0], l2_overhead)
        )
        assert done[0].size == whole.size

    @given(
        payload_size=st.integers(0, 4000),
        to_broadcast=st.booleans(),
        l2_overhead=st.sampled_from([0, ETHERNET_OVERHEAD]),
    )
    @settings(max_examples=40, deadline=None)
    def test_through_switch_and_hub_forwarding(
        self, payload_size, to_broadcast, l2_overhead
    ):
        """A frame rebuilt by a switch or a hub (hop count + 1) carries the
        size of the frame it was built from, and every port charges it."""
        net = Network()
        a, b = net.add_host("A"), net.add_host("B")
        sw = net.add_switch("sw", 4, managed=False)
        hub = net.add_hub("hub", 4)
        net.connect(a, sw)
        net.connect(sw, hub)
        net.connect(hub, b)
        net.announce_hosts()
        net.run(0.1)
        seen = []
        for iface in net.all_interfaces():
            iface.rx_tap = lambda frame, iface=iface: seen.append((iface, frame))
        src = a.interfaces[0]
        packet = IPPacket(
            src=src.ip,
            dst=BROADCAST_IP if to_broadcast else b.primary_ip,
            payload=UDPDatagram(4000, DISCARD_PORT, payload_size=payload_size),
        )
        dst_mac = BROADCAST_MAC if to_broadcast else b.interfaces[0].mac
        before = b.interfaces[0].counters.in_octets
        sent = [
            EthernetFrame(src.mac, dst_mac, fragment, l2_overhead)
            for fragment in fragment_ip_packet(packet, src.mtu)
        ]
        for frame in sent:
            assert src.transmit(frame)
        net.run(1.0)
        hops = {0: 0, 1: 0, 2: 0}
        for iface, frame in seen:
            assert_sizes_follow_fields(frame)
            hops[frame.hops] += 1
        # A -> switch port (0 hops) -> hub port (1) -> B (2), per fragment.
        assert hops == {0: len(sent), 1: len(sent), 2: len(sent)}
        assert b.interfaces[0].counters.in_octets - before == sum(f.size for f in sent)

    @given(
        payload_size=st.integers(0, 4000),
        l2_overhead=st.sampled_from([0, ETHERNET_OVERHEAD]),
        dst=MACS,
        hops=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_hop_copy_is_the_frame_the_constructor_would_build(
        self, payload_size, l2_overhead, dst, hops
    ):
        """Switch and hub copy a frame field for field instead of
        validating and sizing it again: every field and every derived
        attribute equals a frame built through the constructor with
        ``hops + 1``, and the original is left as it was."""
        frame = EthernetFrame(
            MacAddress(0x020000000002), dst, make_packet(payload_size), l2_overhead, hops
        )
        before = dict(vars(frame))
        copy = frame.hop_copy()
        built = EthernetFrame(frame.src, frame.dst, frame.payload, l2_overhead, hops + 1)
        assert copy is not frame and type(copy) is EthernetFrame
        assert vars(copy) == vars(built)  # derived attributes included
        assert copy == built  # and the dataclass's own field comparison
        assert copy.payload is frame.payload
        assert vars(frame) == before
        assert_sizes_follow_fields(copy)
