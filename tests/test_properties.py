"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.packet import (
    IPV4_HEADER_SIZE,
    IPPacket,
    ReassemblyBuffer,
    UDPDatagram,
    fragment_ip_packet,
)
from repro.simnet.trafficgen import StepSchedule
from repro.snmp import ber
from repro.snmp.datatypes import Counter32, TimeTicks, decode_value
from repro.snmp.message import VERSION_2C, Message
from repro.snmp.oid import Oid
from repro.snmp.pdu import Pdu, VarBind
from repro.spec.parser import parse_spec
from repro.spec.writer import write_spec
from repro.topology.model import (
    ConnectionSpec,
    DeviceKind,
    InterfaceRef,
    InterfaceSpec,
    NodeSpec,
    TopologySpec,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
oids = st.lists(
    st.integers(min_value=0, max_value=2**21), min_size=2, max_size=12
).map(lambda arcs: Oid([1, min(arcs[0], 39)] + arcs[1:]))

signed_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
counters = st.integers(min_value=0, max_value=2**32 - 1)


class TestBerProperties:
    @given(signed_ints)
    def test_integer_roundtrip(self, value):
        assert ber.decode_integer_content(ber.encode_integer_content(value)) == value

    @given(counters)
    def test_unsigned_roundtrip(self, value):
        content = ber.encode_unsigned_content(value, 32)
        assert ber.decode_unsigned_content(content, 32) == value

    @given(oids)
    def test_oid_roundtrip(self, oid):
        assert ber.decode_oid_content(ber.encode_oid_content(oid)) == oid

    @given(st.binary(max_size=300))
    def test_octet_string_roundtrip(self, data):
        encoded = ber.encode_octet_string(data)
        tag, content, end = ber.decode_tlv(encoded)
        assert content == data and end == len(encoded)

    @given(st.integers(min_value=0, max_value=2**24))
    def test_length_roundtrip(self, length):
        encoded = ber.encode_length(length)
        decoded, offset = ber.decode_length(encoded, 0)
        assert decoded == length and offset == len(encoded)

    @given(st.binary(max_size=64))
    def test_decoder_never_crashes_on_garbage(self, data):
        """Malformed input raises BerError, never anything else."""
        try:
            Message.decode(data)
        except ber.BerError:
            pass


class TestOidProperties:
    @given(oids, oids)
    def test_ordering_consistent_with_ber_bytes_for_prefix(self, a, b):
        """OID ordering is total and antisymmetric."""
        assert (a < b) or (b < a) or (a == b)
        if a < b:
            assert not b < a

    @given(oids, st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4))
    def test_extension_sorts_after_prefix(self, oid, extra):
        extended = oid.extend(*extra)
        assert oid < extended
        assert extended.startswith(oid)

    @given(oids)
    def test_str_roundtrip(self, oid):
        assert Oid(str(oid)) == oid


class TestCounterProperties:
    @given(counters, st.integers(min_value=0, max_value=2**31))
    def test_delta_recovers_increment(self, start, increment):
        """new.delta(old) == increment regardless of wrapping."""
        old = Counter32(start)
        new = Counter32((start + increment) % (1 << 32))
        assert new.delta(old) == increment

    @given(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0, max_value=1e5, allow_nan=False),
    )
    def test_timeticks_delta_seconds(self, start, gap):
        t1 = TimeTicks.from_seconds(start)
        t2 = TimeTicks.from_seconds(start + gap)
        # TimeTicks quantise to 1/100 s.
        assert abs(t2.delta_seconds(t1) - gap) <= 0.011


class TestPduProperties:
    @given(
        st.integers(min_value=0, max_value=2**30),
        st.lists(oids, min_size=1, max_size=8),
    )
    def test_get_request_roundtrip(self, request_id, oid_list):
        pdu = Pdu.get_request(request_id, oid_list)
        message = Message(VERSION_2C, "public", pdu)
        decoded = Message.decode(message.encode())
        assert decoded.pdu.request_id == request_id
        assert [vb.oid for vb in decoded.pdu.varbinds] == oid_list

    @given(st.lists(st.tuples(oids, counters), min_size=1, max_size=6))
    def test_response_roundtrip(self, pairs):
        varbinds = [VarBind(oid, Counter32(v)) for oid, v in pairs]
        pdu = Pdu(ber.TAG_GET_RESPONSE, 1, varbinds=varbinds)
        decoded, _ = Pdu.decode(pdu.encode())
        assert decoded.varbinds == varbinds


class TestFragmentationProperties:
    @given(
        st.integers(min_value=0, max_value=20000),
        st.integers(min_value=IPV4_HEADER_SIZE + 16, max_value=1500),
    )
    def test_fragments_conserve_bytes_and_fit_mtu(self, payload, mtu):
        packet = IPPacket(
            src=IPv4Address("10.0.0.1"),
            dst=IPv4Address("10.0.0.2"),
            payload=UDPDatagram(1, 2, payload_size=payload),
        )
        frags = fragment_ip_packet(packet, mtu)
        assert all(f.size <= mtu for f in frags)
        assert sum(f.transport_size for f in frags) == packet.transport_size

    @given(
        st.integers(min_value=0, max_value=20000),
        st.integers(min_value=IPV4_HEADER_SIZE + 16, max_value=1500),
        st.randoms(use_true_random=False),
    )
    def test_reassembly_in_any_order(self, payload, mtu, rng):
        packet = IPPacket(
            src=IPv4Address("10.0.0.1"),
            dst=IPv4Address("10.0.0.2"),
            payload=UDPDatagram(1, 2, payload_size=payload),
        )
        frags = fragment_ip_packet(packet, mtu)
        rng.shuffle(frags)
        buf = ReassemblyBuffer()
        results = [buf.add(f, now=0.0) for f in frags]
        final = [r for r in results if r is not None]
        assert len(final) == 1
        assert final[0].payload is packet.payload


class TestScheduleProperties:
    schedules = st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda p: p[0],
    ).map(lambda pairs: StepSchedule(sorted(pairs)))

    @given(schedules, st.floats(min_value=-10, max_value=1100, allow_nan=False))
    def test_rate_matches_defining_step(self, schedule, t):
        rate = schedule.rate_at(t)
        active = [s for s in schedule.steps if s.time <= t]
        if not active:
            assert rate == 0.0
        else:
            assert rate == active[-1].rate_bps

    @given(schedules)
    def test_rate_nonnegative_everywhere(self, schedule):
        for t in [0.0, 1.0, 500.0, 999.0, 1500.0]:
            assert schedule.rate_at(t) >= 0.0


names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


class TestSpecWriterProperties:
    @settings(max_examples=40)
    @given(
        st.lists(names, min_size=2, max_size=6, unique=True),
        st.integers(min_value=2, max_value=8),
    )
    def test_star_topology_roundtrip(self, host_names, n_ports):
        """write_spec(parse(s)) re-parses to an equivalent topology."""
        hosts = [
            NodeSpec(name, interfaces=[InterfaceSpec("eth0")], snmp_enabled=True)
            for name in host_names
        ]
        n_ports = max(n_ports, len(host_names))
        switch = NodeSpec(
            "zwitch",
            kind=DeviceKind.SWITCH,
            interfaces=[InterfaceSpec(f"port{i+1}") for i in range(n_ports)],
            snmp_enabled=True,
        )
        connections = [
            ConnectionSpec(
                InterfaceRef(h.name, "eth0"), InterfaceRef("zwitch", f"port{i+1}")
            )
            for i, h in enumerate(hosts)
        ]
        spec = TopologySpec("prop", hosts + [switch], connections)
        again = parse_spec(write_spec(spec))
        assert [n.name for n in again.nodes] == [n.name for n in spec.nodes]
        assert len(again.connections) == len(spec.connections)
        for conn_a, conn_b in zip(again.connections, spec.connections):
            assert conn_a.end_a == conn_b.end_a
            assert conn_a.end_b == conn_b.end_b


class TestLexerProperties:
    identifiers = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_-]{0,15}", fullmatch=True)
    safe_strings = st.text(
        alphabet=st.characters(
            codec="ascii", exclude_characters='"\\\n\r', exclude_categories=("Cc",)
        ),
        max_size=30,
    )

    @given(st.lists(identifiers, min_size=1, max_size=10))
    def test_identifier_stream_roundtrip(self, names):
        from repro.spec.lexer import TokenType, tokenize

        tokens = tokenize(" ".join(names))
        values = [t.value for t in tokens if t.type is TokenType.IDENT]
        assert values == names

    @given(safe_strings)
    def test_string_literal_roundtrip(self, text):
        from repro.spec.lexer import TokenType, tokenize

        tokens = tokenize(f'"{text}"')
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == text

    @given(st.text(max_size=60))
    def test_lexer_never_crashes_unexpectedly(self, text):
        from repro.spec.lexer import LexError, tokenize

        try:
            tokenize(text)
        except LexError:
            pass  # the only sanctioned failure mode

    @given(st.integers(min_value=0, max_value=10**12))
    def test_integer_literal_roundtrip(self, value):
        from repro.spec.lexer import tokenize

        assert tokenize(str(value))[0].value == value


class TestAddressProperties:
    @given(st.integers(min_value=0, max_value=2**48 - 1))
    def test_mac_str_roundtrip(self, value):
        mac = MacAddress(value)
        assert MacAddress(str(mac)) == mac

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_ip_str_roundtrip(self, value):
        ip = IPv4Address(value)
        assert IPv4Address(str(ip)) == ip

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_address_in_own_subnet(self, value, prefix):
        ip = IPv4Address(value)
        assert ip.in_subnet(ip, prefix)
