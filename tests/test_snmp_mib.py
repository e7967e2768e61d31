"""Unit tests for the MIB tree, MIB-II bindings and the caching view."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet.address import MacAddress
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram
from repro.simnet.sockets import DISCARD_PORT
from repro.simnet.stp import ROLE_DISABLED
from repro.snmp.datatypes import (
    Counter32,
    EndOfMibView,
    Gauge32,
    Integer,
    OctetString,
    TimeTicks,
)
from repro.snmp.agent import SnmpAgent
from repro.snmp.mib import (
    CachingMibTree,
    DOT1D_STP_PORT,
    DOT1D_STP_PORT_ENTRY,
    DOT1D_STP_PORT_STATE,
    DOT1D_TP_FDB_ADDRESS,
    DOT1D_TP_FDB_ENTRY,
    DOT1D_TP_FDB_STATUS,
    FDB_STATUS_LEARNED,
    IF_ENTRY,
    IF_IN_OCTETS,
    IF_IN_UCAST_PKTS,
    IF_ADMIN_STATUS,
    IF_NUMBER,
    IF_OPER_STATUS,
    IF_OUT_DISCARDS,
    IF_OUT_OCTETS,
    IF_PHYS_ADDRESS,
    IF_SPEED,
    MibError,
    MibTree,
    SNMP_GROUP,
    SNMP_IN_ASN_PARSE_ERRS,
    SNMP_IN_BAD_COMMUNITY_NAMES,
    SNMP_OUT_PKTS,
    SYS_NAME,
    SYS_UPTIME,
    build_mib2,
    DOT1D_TP_FDB_PORT,
)
from tests.costs import call_counts
from tests.snmp_reference import agent_reply, counted, old_outcome, old_reply
from repro.simnet.faults import AgentReboot, CounterCorruption, _TamperedMib
from repro.snmp import ber
from repro.snmp.message import VERSION_1, VERSION_2C, Message
from repro.snmp.oid import Oid
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu, VarBind


class TestMibTree:
    def test_get_registered_scalar(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.0"), Integer(5))
        assert tree.get(Oid("1.3.1.0")) == Integer(5)

    def test_get_missing_returns_none(self):
        assert MibTree().get(Oid("1.3")) is None

    def test_callable_accessor_reads_live(self):
        tree = MibTree()
        box = {"v": 1}
        tree.register(Oid("1.3.1.0"), lambda: Integer(box["v"]))
        assert tree.get(Oid("1.3.1.0")) == Integer(1)
        box["v"] = 2
        assert tree.get(Oid("1.3.1.0")) == Integer(2)

    def test_double_registration_rejected(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.0"), Integer(1))
        with pytest.raises(MibError):
            tree.register(Oid("1.3.1.0"), Integer(2))

    def test_get_next_lexicographic(self):
        tree = MibTree()
        for text in ("1.3.1.0", "1.3.2.0", "1.3.10.0"):
            tree.register(Oid(text), Integer(0))
        hit = tree.get_next(Oid("1.3.1.0"))
        assert hit[0] == Oid("1.3.2.0")
        # 2 < 10 numerically, not as strings
        assert tree.get_next(Oid("1.3.2.0"))[0] == Oid("1.3.10.0")

    def test_get_next_from_prefix(self):
        tree = MibTree()
        tree.register(Oid("1.3.6.1.2.1.1.3.0"), TimeTicks(0))
        assert tree.get_next(Oid("1.3.6.1.2.1.1.3"))[0] == Oid("1.3.6.1.2.1.1.3.0")

    def test_get_next_end_of_mib(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.0"), Integer(0))
        assert tree.get_next(Oid("1.3.1.0")) is None

    def test_successors_sorted(self):
        tree = MibTree()
        for text in ("1.3.2.0", "1.3.1.0", "1.4.0"):
            tree.register(Oid(text), Integer(0))
        oids = tree.successors(Oid("0"), 10)
        assert oids == sorted(oids)
        assert len(oids) == 3

    def test_has_subtree(self):
        tree = MibTree()
        tree.register(Oid("1.3.1.5"), Integer(0))
        assert tree.has_subtree(Oid("1.3.1"))
        assert tree.has_subtree(Oid("1.3"))
        assert not tree.has_subtree(Oid("1.4"))


def make_host_net():
    net = Network()
    host = net.add_host("S1", os_label="Solaris 7")
    peer = net.add_host("peer")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(host, sw)
    net.connect(peer, sw)
    net.announce_hosts()
    return net, host, peer


class TestMib2:
    def test_table1_objects_present(self):
        """Every MIB-II object in the paper's Table 1 must resolve."""
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        table1 = [
            "1.3.6.1.2.1.1.3.0",  # sysUpTime
            "1.3.6.1.2.1.2.2.1.5.1",  # ifSpeed
            "1.3.6.1.2.1.2.2.1.10.1",  # ifInOctets
            "1.3.6.1.2.1.2.2.1.11.1",  # ifInUcastPkts
            "1.3.6.1.2.1.2.2.1.16.1",  # ifOutOctets
            "1.3.6.1.2.1.2.2.1.18.1",  # ifOutNUcastPkts
        ]
        for text in table1:
            assert tree.get(Oid(text)) is not None, text

    def test_sysuptime_tracks_clock(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        net.run(12.34)
        uptime = tree.get(SYS_UPTIME)
        assert uptime == TimeTicks(1234)

    def test_sysname(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(SYS_NAME) == OctetString(b"S1")

    def test_ifspeed_static(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_SPEED + "1") == Gauge32(100_000_000)

    def test_ifnumber(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_NUMBER) == Integer(1)

    def test_ifphysaddress_is_mac(self):
        net, host, _ = make_host_net()
        tree = build_mib2(host, net.sim)
        got = tree.get(IF_PHYS_ADDRESS + "1")
        assert got == OctetString(host.interfaces[0].mac.to_bytes())

    def test_counters_read_live_and_wrap(self):
        net, host, peer = make_host_net()
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_IN_OCTETS + "1") == Counter32(0)
        peer.create_socket().sendto(972, (host.primary_ip, DISCARD_PORT))
        net.run(1.0)
        after = tree.get(IF_IN_OCTETS + "1")
        assert after.value >= 1000
        # Force a wrap: the MIB must truncate the raw 64-bit counter.
        host.interfaces[0].counters.in_octets = (1 << 32) + 42
        assert tree.get(IF_IN_OCTETS + "1") == Counter32(42)

    def test_ifspeed_clamped_to_gauge32(self):
        net = Network()
        host = net.add_host("fast", speed_bps=10e9)  # 10 Gb/s > 2^32
        tree = build_mib2(host, net.sim)
        assert tree.get(IF_SPEED + "1") == Gauge32((1 << 32) - 1)


class TestBridgeFdb:
    def test_fdb_rows_appear_after_learning(self):
        net = Network()
        a = net.add_host("A")
        b = net.add_host("B")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(a, sw)
        net.connect(b, sw)
        net.announce_hosts()
        net.run(0.1)
        tree = build_mib2(sw, net.sim)
        # Walk the FDB port column: one row per learned MAC.
        rows = []
        cursor = DOT1D_TP_FDB_PORT
        while True:
            hit = tree.get_next(cursor)
            if hit is None or not hit[0].startswith(DOT1D_TP_FDB_PORT):
                break
            rows.append(hit)
            cursor = hit[0]
        assert len(rows) == 2
        ports = sorted(v.value for _oid, v in rows)
        assert ports == [1, 2]  # A on port1, B on port2

    def test_fdb_get_exact(self):
        net = Network()
        a = net.add_host("A")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(a, sw)
        net.announce_hosts()
        net.run(0.1)
        tree = build_mib2(sw, net.sim)
        index = ".".join(str(x) for x in a.interfaces[0].mac.to_bytes())
        assert tree.get(DOT1D_TP_FDB_PORT + index) == Integer(1)
        assert tree.get(DOT1D_TP_FDB_PORT + "9.9.9.9.9.9") is None


class TestCachingMibTree:
    def test_counters_stale_between_refreshes(self):
        net, host, peer = make_host_net()
        inner = build_mib2(host, net.sim)
        cached = CachingMibTree(inner, net.sim, refresh_interval=1.0)
        net.run(0.5)  # first snapshot happened at t=0
        host.interfaces[0].counters.in_octets = 5000
        # Still serving the t=0 snapshot:
        assert cached.get(IF_IN_OCTETS + "1") == Counter32(0)
        net.run(1.5)  # snapshot at t=1.0 picked up the new value
        assert cached.get(IF_IN_OCTETS + "1") == Counter32(5000)

    def test_system_group_always_fresh(self):
        net, host, _ = make_host_net()
        cached = CachingMibTree(build_mib2(host, net.sim), net.sim, 10.0)
        net.run(5.0)
        assert cached.get(SYS_UPTIME) == TimeTicks(500)

    def test_non_positive_interval_rejected(self):
        net, host, _ = make_host_net()
        with pytest.raises(MibError):
            CachingMibTree(build_mib2(host, net.sim), net.sim, 0.0)

    def test_get_next_uses_cached_values(self):
        net, host, _ = make_host_net()
        inner = build_mib2(host, net.sim)
        cached = CachingMibTree(inner, net.sim, 1.0)
        net.run(0.2)
        host.interfaces[0].counters.in_octets = 999
        hit = cached.get_next(IF_IN_OCTETS)
        assert hit[0] == IF_IN_OCTETS + "1"
        assert hit[1] == Counter32(0)  # snapshot value, not live


# ----------------------------------------------------------------------
# The indexed lookups against a naive reference
# ----------------------------------------------------------------------
class NaiveMib:
    """Reference view: every row materialised from ground truth (the
    tree's scalars, ``fdb_entries()``, the spanning tree), sorted, and
    scanned linearly."""

    def __init__(self, tree, switch):
        self.tree = tree
        self.switch = switch

    def rows(self):
        rows = {oid: accessor() for oid, accessor in self.tree._static.items()}
        rows.update(self.tree._constants)
        for mac, port, _age in self.switch.fdb_entries():
            index = tuple(mac.to_bytes())
            rows[DOT1D_TP_FDB_ADDRESS.extend(*index)] = OctetString(mac.to_bytes())
            rows[DOT1D_TP_FDB_PORT.extend(*index)] = Integer(port)
            rows[DOT1D_TP_FDB_STATUS.extend(*index)] = Integer(FDB_STATUS_LEARNED)
        stp = self.switch.stp
        for iface in self.switch.interfaces:
            i = iface.if_index
            rows[DOT1D_STP_PORT.extend(i)] = Integer(i)
            rows[DOT1D_STP_PORT_STATE.extend(i)] = Integer(stp.port_state_value(i))
        return sorted(rows.items())

    def get(self, oid):
        for row_oid, value in self.rows():
            if row_oid == oid:
                return value
        return None

    def get_next(self, oid):
        for row_oid, value in self.rows():
            if row_oid > oid:
                return (row_oid, value)
        return None


def full_walk(tree):
    """Every row a live tree serves at this instant, in OID order: each
    scalar's accessor called (or its value), each provider's rows chained
    by ``next`` from its prefix.  The reference a snapshot is held to."""
    rows = [(oid, accessor()) for oid, accessor in tree._static.items()]
    rows.extend(tree._constants.items())
    for provider in tree._providers:
        index = provider.rows()
        cursor = index.next(provider.prefix)
        while cursor is not None:
            rows.append((cursor, index.get(cursor)))
            cursor = index.next(cursor)
    return sorted(rows, key=lambda row: row[0])


def bridge_rig(ports=6, hosts=3):
    """A spanning-tree switch with a learned FDB, its tree and the reference."""
    net = Network()
    sw = net.add_switch("sw", ports, managed=True, stp=True)
    for i in range(hosts):
        net.connect(net.add_host(f"h{i}"), sw)
    net.announce_hosts()
    net.run(0.1)
    tree = build_mib2(sw, net.sim)
    return net, sw, tree, NaiveMib(tree, sw)


def learn(sw, mac, port):
    """Teach ``sw`` the station ``mac`` on ``port`` the way traffic does:
    hand it a frame from the station, addressed to the station itself so
    that it is filtered, not forwarded.  The port forwards for that one
    frame whatever its spanning-tree state: the rig's may still listen."""
    packet = IPPacket(sw.management_ip, sw.management_ip, UDPDatagram(1, 2, payload_size=10))
    forwarding, port.forwarding = port.forwarding, True
    sw.on_frame(port, EthernetFrame(mac, mac, packet))
    port.forwarding = forwarding


PREFIXES = (IF_ENTRY, DOT1D_STP_PORT_ENTRY, DOT1D_TP_FDB_ENTRY)


def cursor_for(kind, a, b, rows):
    """Cursors before, at, inside, just past and shorter than each subtree
    prefix, plus existing rows and their neighbours."""
    if kind == "row" and rows:
        oid = rows[a % len(rows)][0]
        return (oid, oid.parent, oid.extend(0), oid[:-1].extend(oid[-1] + 1))[b % 4]
    prefix = PREFIXES[a % len(PREFIXES)]
    return (
        prefix.parent.extend(prefix[-1] - 1, 999),  # before
        prefix,  # equal
        prefix.extend(1 + b % 3),  # a column inside
        prefix.extend(1 + b % 3, b % 7),  # a (possibly partial) index inside
        prefix.parent.extend(prefix[-1] + 1),  # just past
        prefix[: 1 + b % (len(prefix) - 1)],  # shorter
        Oid("0"),
        Oid("2.999"),
    )[b % 8]


OPS = st.one_of(
    st.tuples(st.just("learn"), st.integers(1, 12), st.integers(0, 5)),
    st.tuples(st.just("age"), st.sampled_from([10.0, 40.0, 160.0, 310.0]), st.just(0)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
    st.tuples(st.just("admin"), st.integers(0, 5), st.booleans()),
    st.tuples(st.sampled_from(["row", "prefix"]), st.integers(0, 500), st.integers(0, 500)),
)


class TestIndexedLookupsMatchNaiveReference:
    @given(st.lists(OPS, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_get_and_get_next(self, ops):
        net, sw, tree, naive = bridge_rig()
        cached = CachingMibTree(tree, net.sim, refresh_interval=5.0)
        for op, a, b in ops + [("row", 0, 0), ("prefix", 2, 2)]:
            if op == "learn":
                learn(sw, MacAddress(0x020000000000 | a), sw.interfaces[b])
            elif op == "age":
                # Whole ageing-granularity steps: a row that aged out is
                # gone from the provider's next answer.
                net.run(net.sim.now + a)
            elif op == "flush":
                sw.flush_fdb()
            elif op == "admin":
                sw.interfaces[a].set_admin_up(b)
            else:
                rows = naive.rows()
                cursor = cursor_for(op, a, b, rows)
                assert tree.get(cursor) == naive.get(cursor), cursor
                assert tree.get_next(cursor) == naive.get_next(cursor), cursor
                hit, want = cached.get_next(cursor), naive.get_next(cursor)
                assert (hit and hit[0]) == (want and want[0]), cursor
        assert full_walk(tree) == naive.rows()
        cached.stop()

    def test_relearning_an_aged_out_binding_shows_at_once(self):
        """An expired binding learned again on its old port is a new row:
        the provider must not keep serving the index it cached while the
        row was gone until the next ageing-granularity boundary."""
        net, sw, tree, _naive = bridge_rig()
        mac = MacAddress(0x020000000042)
        row = DOT1D_TP_FDB_PORT.extend(*mac.to_bytes())
        learn(sw, mac, sw.interfaces[0])
        assert tree.get(row) == Integer(1)
        net.run(net.sim.now + 310.0)  # past the 300 s MAC ageing
        assert tree.get(row) is None
        version = sw.fdb_version
        learn(sw, mac, sw.interfaces[0])
        assert sw.fdb_version == version + 1
        assert tree.get(row) == Integer(1)

    def test_get_bulk_equals_a_chain_of_get_next(self):
        """50-port switch: the agent's GetBulk answer is byte-identical to
        successor queries chained over the naive reference -- through the
        ifTable, across the provider subtrees and off the end of the MIB."""
        net, sw, tree, naive = bridge_rig(ports=50, hosts=12)
        agent = SnmpAgent(net.endpoint("sw"), tree)
        cursors = [IF_IN_OCTETS, IF_ENTRY + "20.40", DOT1D_STP_PORT_STATE, DOT1D_TP_FDB_PORT]
        request = Pdu.get_bulk_request(
            7, [SYS_UPTIME.parent] + cursors, non_repeaters=1, max_repetitions=50
        )
        rows = naive.rows()  # nothing moves: no sim time passes below

        def successor(oid):
            return next(((o, v) for o, v in rows if o > oid), None)

        want = [VarBind(*successor(SYS_UPTIME.parent))]
        for cursor in cursors:
            for _ in range(50):
                hit = successor(cursor)
                if hit is None:
                    want.append(VarBind(cursor, EndOfMibView()))
                    break
                want.append(VarBind(*hit))
                cursor = hit[0]
        answer = request.response([VarBind(*p) for p in agent._handle_get_bulk(request)])
        assert answer.encode() == request.response(want).encode()
        seen = [vb.oid for vb in answer.varbinds]
        assert any(oid.startswith(DOT1D_TP_FDB_ENTRY) for oid in seen)
        assert any(oid.startswith(DOT1D_STP_PORT_ENTRY) for oid in seen)
        assert isinstance(answer.varbinds[-1].value, EndOfMibView)


# Static instances between the two provider subtrees and after both, and
# OCTET STRINGs whose varbinds straddle the 127-octet short-form limit.
BETWEEN_PROVIDERS = Oid("1.3.6.1.2.1.17.3.0")
PAST_PROVIDERS = Oid("1.3.6.1.4.1.99999.5")


def widened_rig(**kwargs):
    net, sw, tree, naive = bridge_rig(**kwargs)
    for i in range(4):  # the rig's ports are still listening: learn by hand
        learn(sw, MacAddress(0x020000000100 | i), sw.interfaces[i])
    tree.register(BETWEEN_PROVIDERS, Integer(3))
    for n in range(104, 124, 3):
        tree.register(PAST_PROVIDERS.extend(n, 0), OctetString(b"x" * n))
    return net, sw, tree, naive


class TestSuccessorRuns:
    """``get_next_run`` is ``get_next`` chained, whoever serves it."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["row", "prefix"]), st.integers(0, 500),
                st.integers(0, 500), st.integers(0, 70),
            ),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_run_equals_the_chain_on_every_view(self, queries):
        net, sw, tree, naive = widened_rig()
        cached = CachingMibTree(tree, net.sim, refresh_interval=5.0)
        net.run(net.sim.now + 1.0)  # past the first snapshot
        sw.interfaces[1].counters.in_octets += 4242  # live value != snapshot
        lie = lambda oid, value: (  # noqa: E731
            Integer(value.value + 1000) if isinstance(value, Integer) else value
        )
        rows = naive.rows()
        for kind, a, b, count in queries + [("prefix", 0, 2, 64), ("row", 0, 0, 0)]:
            cursor = cursor_for(kind, a, b, rows)
            chain = [(o, v) for o, v in rows if o > cursor][:count]
            assert tree.get_next_run(cursor, count) == chain, cursor
            assert cached.get_next_run(cursor, count) == [
                (o, cached.get(o)) for o, _live in chain
            ], cursor
            for view in (tree, cached):
                assert _TamperedMib(view, lie).get_next_run(cursor, count) == [
                    (o, lie(o, v)) for o, v in view.get_next_run(cursor, count)
                ], cursor
        cached.stop()

    def test_a_run_inside_the_iftable_is_one_bisect(self, monkeypatch):
        """No wall clock: 48 repetitions down one ifTable column cost one
        ``bisect`` (two where the slice reaches a provider's prefix), not
        one per row, and no provider is asked anything."""
        import repro.snmp.mib as mib_module

        net, sw, tree, naive = bridge_rig(ports=50, hosts=2)
        bisects = []
        for name in ("bisect_left", "bisect_right"):
            real = getattr(mib_module, name)
            monkeypatch.setattr(
                mib_module, name,
                lambda *args, real=real, name=name: bisects.append(name) or real(*args),
            )
        calls = call_counts(lambda: tree.get_next_run(IF_IN_OCTETS, 48))
        assert len(bisects) <= 2, bisects
        assert "get_next" not in calls and "next" not in calls, calls
        run = tree.get_next_run(IF_IN_OCTETS, 48)
        assert [oid for oid, _v in run] == [IF_IN_OCTETS.extend(i) for i in range(1, 49)]


class TestReplyWriterEqualsTheOldHandlers:
    """The agent's reply bytes are those of the parent's three handlers
    answered through ``Message(...).encode()``."""

    def requests(self):
        bulk = Pdu.get_bulk_request
        last = PAST_PROVIDERS.extend(122, 0)
        in_table = [IF_IN_OCTETS, IF_SPEED.extend(3), IF_ENTRY + "20.49"]
        crossing = [IF_ENTRY + "20.40", DOT1D_STP_PORT_STATE, DOT1D_TP_FDB_PORT, BETWEEN_PROVIDERS]
        gets = [SYS_UPTIME, IF_SPEED.extend(2), IF_ENTRY + "99.1", IF_ENTRY, Oid("2.999"),
                DOT1D_STP_PORT.extend(2), PAST_PROVIDERS.extend(107, 0), last]
        return [
            (VERSION_2C, Pdu.get_request(1, gets)),
            (VERSION_1, Pdu.get_request(2, gets)),  # noSuchName at index 3
            (VERSION_1, Pdu.get_request(3, gets[:2])),
            (VERSION_2C, Pdu.get_request(4, [])),
            (VERSION_2C, Pdu.get_next_request(5, gets)),
            (VERSION_1, Pdu.get_next_request(6, gets)),  # noSuchName at the last
            (VERSION_2C, Pdu(ber.TAG_SET_REQUEST, 7, 0, 0, [VarBind(SYS_NAME, OctetString("x"))])),
            (VERSION_1, Pdu(ber.TAG_SET_REQUEST, 8, 0, 0, [])),
            (VERSION_2C, bulk(9, [SYS_UPTIME.parent] + in_table, 1, 48)),
            (VERSION_2C, bulk(10, in_table, 0, 10_000)),  # clamped to 64
            (VERSION_2C, bulk(11, in_table, 2, 5)),
            (VERSION_2C, bulk(12, in_table, 0, 0)),
            (VERSION_2C, bulk(13, in_table, 7, 3)),  # more non-repeaters than varbinds
            (VERSION_2C, bulk(14, [SYS_UPTIME.parent] + crossing, 1, 50)),
            (VERSION_2C, bulk(15, [PAST_PROVIDERS, last, Oid("2.999")], 0, 20)),  # end of MIB
        ]

    @pytest.mark.parametrize("view", ["tree", "caching", "lying"])
    def test_byte_for_byte(self, view):
        net, sw, tree, naive = widened_rig(ports=50, hosts=12)
        mib = tree
        if view == "caching":
            mib = CachingMibTree(tree, net.sim, refresh_interval=5.0)
            net.run(net.sim.now + 1.0)
            sw.interfaces[1].counters.in_octets += 4242
        elif view == "lying":
            mib = _TamperedMib(
                tree, lambda oid, v: Counter32(7) if isinstance(v, Counter32) else v
            )
        agent = SnmpAgent(net.endpoint("sw"), mib)
        for version, pdu in self.requests():
            payload = Message(version, "public", pdu).encode()
            reply = agent_reply(agent, payload, None)
            assert reply == old_reply(mib, "public", payload), (view, pdu.request_id)
        # What the list above is meant to reach.
        crossed = Message.decode(
            agent_reply(agent, Message(VERSION_2C, "public", self.requests()[13][1]).encode(), None)
        ).pdu.varbinds
        for prefix in (DOT1D_STP_PORT_ENTRY, DOT1D_TP_FDB_ENTRY, PAST_PROVIDERS):
            assert any(vb.oid.startswith(prefix) for vb in crossed), prefix
        sizes = {len(vb.encode()) for vb in crossed if vb.oid.startswith(PAST_PROVIDERS)}
        assert min(sizes) <= 129 < max(sizes)  # both sides of the short-form limit
        clamped = Message.decode(
            agent_reply(agent, Message(VERSION_2C, "public", self.requests()[9][1]).encode(), None)
        ).pdu.varbinds
        assert len(clamped) == 3 * MAX_BULK_REPETITIONS
        ended = Message.decode(
            agent_reply(agent, Message(VERSION_2C, "public", self.requests()[14][1]).encode(), None)
        ).pdu.varbinds
        assert [type(vb.value) for vb in ended[-2:]] == [EndOfMibView, EndOfMibView]


# ----------------------------------------------------------------------
# A warm agent over a sequence: what it remembers is never what it serves
# ----------------------------------------------------------------------
SEQUENCE_PORTS = 6
COUNTER_NAMES = ("in_octets", "out_octets", "in_ucast_pkts", "out_discards")
# By nothing, by one, half way round (twice: across the wrap), to the last
# value before it, and by exactly 2**32 -- the same Counter32, a new read.
MOVES = (0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1)
ASKED = (
    IF_IN_OCTETS, IF_OUT_OCTETS, IF_IN_UCAST_PKTS, IF_OUT_DISCARDS, IF_SPEED, IF_OPER_STATUS,
    SNMP_GROUP, SYS_UPTIME.parent, IF_ENTRY + "15", PAST_PROVIDERS, DOT1D_STP_PORT_STATE,
)

NAMES = st.lists(
    st.tuples(st.sampled_from(ASKED), st.integers(0, SEQUENCE_PORTS + 1)), min_size=0, max_size=7
)
STEPS = st.one_of(
    st.tuples(
        st.just("move"), st.integers(0, SEQUENCE_PORTS - 1), st.sampled_from(COUNTER_NAMES),
        st.sampled_from(MOVES),
    ),
    st.tuples(
        st.just("poll"), st.sampled_from(["bulk", "bulk", "get", "get-next", "set"]), NAMES,
        st.sampled_from([VERSION_2C, VERSION_2C, VERSION_1]),
        st.sampled_from(["public", "public", "public", "private"]),
    ),
    st.tuples(
        st.just("lie"), st.sampled_from(["stuck", "scaled"]),
        st.sampled_from([None, 1, 2]),
    ),
    st.tuples(st.just("truth"), st.integers(0, 3)),
    st.tuples(st.just("reboot")),
    st.tuples(st.just("tick"), st.sampled_from([0.01, 1.0, 6.0])),
    st.tuples(st.just("register"), st.sampled_from([IF_IN_OCTETS, IF_ENTRY + "15", PAST_PROVIDERS])),
)
WHOLE_TABLE = ("poll", "bulk", [(column, 0) for column in ASKED[:6]], VERSION_2C, "public")


class TestWarmAgentEqualsTheOldHandlers:
    """One agent, many requests: after any sequence of counters moving (or
    not), lying faults coming and going, reboots, snapshot ticks and new
    instances, every reply is byte for byte what the parent's handlers
    build from ``agent.mib`` as it stands, and the same counter moved."""

    def request(self, form, names, version, request_id):
        if form == "get":
            oids = [column.extend(row) for column, row in names]
            return Pdu.get_request(request_id, oids)
        cursors = [column.extend(row) if row else column for column, row in names]
        if form == "get-next":
            return Pdu.get_next_request(request_id, cursors)
        if form == "set":
            return Pdu(
                ber.TAG_SET_REQUEST, request_id, 0, 0,
                [VarBind(oid, Integer(1)) for oid in cursors],
            )
        return Pdu.get_bulk_request(request_id, cursors, min(1, len(cursors)), SEQUENCE_PORTS)

    @pytest.mark.parametrize("view", ["tree", "caching"])
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(STEPS, min_size=3, max_size=40), lying=st.booleans())
    def test_after_every_poll_of_a_sequence(self, view, steps, lying):
        net, sw, tree, naive = widened_rig(ports=SEQUENCE_PORTS, hosts=3)
        sim, peer = net.sim, net.device("h0").primary_ip
        if view == "caching":
            tree = CachingMibTree(tree, sim, refresh_interval=5.0)
        agent = SnmpAgent(net.endpoint("sw"), tree)
        lies, registered, polls = [], 0, 0
        if lying:
            steps = [("lie", "stuck", None)] + steps
        for step in [WHOLE_TABLE, WHOLE_TABLE] + steps + [WHOLE_TABLE]:
            if step[0] == "move":
                _, port, name, by = step
                counters = sw.interfaces[port].counters
                setattr(counters, name, getattr(counters, name) + by)
            elif step[0] == "lie":
                lies.append(CounterCorruption(sim, agent, None, mode=step[1], if_index=step[2]))
                lies[-1]._begin()
            elif step[0] == "truth":
                if lies:
                    lies.pop(step[1] % len(lies))._end()  # in any order: they overlap
            elif step[0] == "reboot":
                AgentReboot(sim, agent, at=sim.now, outage=0.01)
                net.run(sim.now + 0.02)
            elif step[0] == "tick":
                net.run(sim.now + step[1])  # replies leave, uptime moves, a snapshot may fall
            elif step[0] == "register":
                registered += 1
                inner = agent.mib
                while not isinstance(inner, MibTree):
                    inner = inner.inner
                inner.register(step[1].extend(200 + registered, 0), Counter32(registered))
            else:
                _, form, names, version, community = step
                polls += 1
                payload = Message(
                    version, community, self.request(form, names, version, polls)
                ).encode()
                before = counted(agent)
                reply = agent_reply(agent, payload, peer)
                outcome = old_outcome(agent.community, payload)
                if outcome is not None:
                    before[outcome] += 1
                assert counted(agent) == before, (step, outcome)
                if outcome in (None, "get_requests"):
                    assert reply == old_reply(agent.mib, agent.community, payload), step
                else:
                    assert reply is None, step
        for lie in lies:
            lie._end()
        assert not isinstance(agent.mib, _TamperedMib)
        if view == "caching":
            agent.mib.stop()


# The steps of a program a reply plan is served over, again and again:
# moves of any size (exactly 2**32 among them), a counter that moves and
# comes back between two serves of one plan -- read live in between by a
# GET of its row -- lies, reboots and snapshot ticks, and the whole table
# asked in bulk and in GET form, interleaved.
PLAN_STEPS = st.one_of(
    st.tuples(
        st.just("move"), st.integers(0, SEQUENCE_PORTS - 1), st.sampled_from(COUNTER_NAMES),
        st.sampled_from(MOVES),
    ),
    st.tuples(
        st.just("bounce"), st.integers(0, SEQUENCE_PORTS - 1), st.sampled_from(COUNTER_NAMES),
        st.sampled_from(MOVES[1:]),
    ),
    st.tuples(st.just("whole"), st.sampled_from(["bulk", "bulk", "get"])),
    st.tuples(st.just("row"), st.integers(0, SEQUENCE_PORTS - 1)),
    st.tuples(st.just("lie"), st.sampled_from(["stuck", "scaled"]), st.sampled_from([None, 1])),
    st.tuples(st.just("truth")),
    st.tuples(st.just("reboot")),
    st.tuples(st.just("tick"), st.sampled_from([0.01, 6.0])),
)


class TestAPlanServedAgainIsTheParentsReply:
    """One agent asked the same few requests over and over while its
    counters move, come back, lie and reboot: every reply -- most of them
    from a reply plan that reads a row group at once and a counter only
    when its raw reading moved -- is byte for byte what the parent's
    handlers build from ``agent.mib`` as it stands."""

    @staticmethod
    def payload(form, rows, request_id):
        if form == "bulk":
            names = [SYS_UPTIME.parent] + [column.extend(0) for column in ASKED[:4]]
            pdu = Pdu.get_bulk_request(request_id, names, 1, SEQUENCE_PORTS)
        else:
            pdu = Pdu.get_request(
                request_id, [SYS_UPTIME] + [column.extend(row) for row in rows
                                             for column in ASKED[:4]],
            )
        return Message(VERSION_2C, "public", pdu).encode()

    @pytest.mark.parametrize("view", ["tree", "caching"])
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(PLAN_STEPS, min_size=3, max_size=40))
    @example(steps=[  # back to its raw value between two serves; 2**32
        ("whole", "bulk"), ("bounce", 2, "in_octets", 1500), ("whole", "bulk"),
        ("move", 3, "out_octets", 2**32), ("whole", "get"), ("whole", "bulk"),
    ])
    def test_over_any_program_of_moves(self, view, steps):
        net, sw, tree, _naive = widened_rig(ports=SEQUENCE_PORTS, hosts=3)
        sim, peer = net.sim, net.device("h0").primary_ip
        if view == "caching":
            tree = CachingMibTree(tree, sim, refresh_interval=5.0)
        agent = SnmpAgent(net.endpoint("sw"), tree)
        every_row = range(1, SEQUENCE_PORTS + 1)
        lies, asked = [], 0

        def ask(form, rows=every_row):
            nonlocal asked
            asked += 1
            payload = self.payload(form, rows, asked % 3)  # request-ids recur too
            assert agent_reply(agent, payload, peer) == old_reply(agent.mib, "public", payload)

        for step in [("whole", "bulk"), ("whole", "get")] + steps + [("whole", "bulk")]:
            kind = step[0]
            if kind in ("move", "bounce"):
                _, port, name, by = step
                counters = sw.interfaces[port].counters
                setattr(counters, name, getattr(counters, name) + by)
                if kind == "bounce":
                    ask("get", [port + 1])  # read live at the moved value
                    setattr(counters, name, getattr(counters, name) - by)
            elif kind == "whole":
                ask(step[1])
            elif kind == "row":
                ask("get", [step[1] + 1])
            elif kind == "lie":
                lies.append(CounterCorruption(sim, agent, None, mode=step[1], if_index=step[2]))
                lies[-1]._begin()
            elif kind == "truth":
                if lies:
                    lies.pop()._end()
            elif kind == "reboot":
                AgentReboot(sim, agent, at=sim.now, outage=0.01)
                net.run(sim.now + 0.02)
            else:
                net.run(sim.now + step[1])
        while lies:
            lies.pop()._end()
        if view == "caching":
            agent.mib.stop()


class TestLiveCounter:
    """The MIB hands out the same Counter32 for as long as the raw
    simulator counter stands still, and never otherwise."""

    @settings(max_examples=60, deadline=None)
    @given(moves=st.lists(st.sampled_from(MOVES), min_size=1, max_size=12))
    def test_one_object_per_raw_value(self, moves):
        net, host, _peer = make_host_net()
        tree = build_mib2(host, net.sim)
        counters, oid = host.interfaces[0].counters, IF_IN_OCTETS.extend(1)
        raw, last = counters.in_octets, tree.get(oid)
        for by in moves:
            counters.in_octets += by
            value = tree.get(oid)
            assert value == Counter32((raw + by) % 2**32) == tree.get_next(IF_IN_OCTETS)[1]
            assert (value is last) == (by == 0)
            assert tree.get(oid) is value is tree.get_next_run(IF_IN_OCTETS, 1)[0][1]
            raw, last = raw + by, value

    def test_values_stay_plain_values(self):
        """The memo sits beside the writer, not on the value: two reads of
        one number are equal and hash alike, whoever encoded what."""
        net, mgr_host, peer = make_host_net()
        tree = build_mib2(mgr_host, net.sim)
        agent = SnmpAgent(mgr_host, tree)
        payload = Message(
            VERSION_2C, "public", Pdu.get_request(1, [IF_IN_OCTETS.extend(1)])
        ).encode()
        agent_reply(agent, payload, peer.primary_ip)
        served = tree.get(IF_IN_OCTETS.extend(1))
        assert served == Counter32(served.value) and hash(served) == hash(Counter32(served.value))
        assert vars(served) == {"value": served.value}


# ----------------------------------------------------------------------
# A snapshot is a full walk of its tree at the tick, whatever moved
# ----------------------------------------------------------------------
SNAPSHOT_PORTS = 6
PROGRAM = st.lists(
    st.one_of(
        st.tuples(
            st.just("traffic"), st.integers(0, SNAPSHOT_PORTS - 1),
            st.sampled_from(COUNTER_NAMES), st.sampled_from(MOVES),
        ),
        st.tuples(st.just("admin"), st.integers(0, SNAPSHOT_PORTS - 1), st.booleans()),
        st.tuples(st.just("unlink"), st.integers(0, SNAPSHOT_PORTS - 1)),
        st.tuples(st.just("learn"), st.integers(1, 12), st.integers(0, SNAPSHOT_PORTS - 1)),
        st.tuples(st.just("age"), st.sampled_from([10.0, 40.0, 310.0])),
        st.tuples(st.just("flush")),
        st.tuples(
            st.just("stp"), st.integers(0, SNAPSHOT_PORTS - 1),
            st.sampled_from(["forwarding", "blocking", "disabled"]),
        ),
        st.tuples(st.just("request"), st.sampled_from(["get", "bad-community", "garbage"])),
        st.tuples(st.just("reboot")),
        st.tuples(st.just("register"), st.booleans()),
        st.tuples(st.just("tick"), st.sampled_from([0.3, 1.0, 2.5])),
        st.tuples(st.just("serve"), st.integers(0, 500), st.integers(1, 64)),
    ),
    min_size=1, max_size=40,
)


class TestSnapshotEqualsAFullWalk:
    """After every refresh tick, a caching agent's snapshot equals
    :func:`full_walk` of its inner tree at that instant -- the system
    group included -- and between ticks the view serves that snapshot
    (a row registered since, live): over any program of traffic, admin
    and link changes, FDB learning, ageing and flushes, spanning-tree
    state changes, requests that move the snmp group, reboots and rows
    registered after the first tick."""

    @settings(max_examples=100, deadline=None)
    @given(program=PROGRAM)
    @example(program=[("traffic", 0, "in_octets", 1), ("admin", 1, False), ("stp", 2, "disabled")])
    @example(program=[("learn", 1, 0), ("tick", 1.0), ("flush",), ("learn", 2, 1)])
    @example(program=[("register", False), ("tick", 1.0), ("register", True)])
    def test_after_every_tick(self, program):
        net, sw, tree, _naive = bridge_rig(ports=SNAPSHOT_PORTS, hosts=3)
        sim, peer = net.sim, net.device("h0").primary_ip
        ticked, links, registered = {}, {}, 0
        take_snapshot = CachingMibTree._take_snapshot

        def checked_tick(view):
            take_snapshot(view)
            walk = dict(full_walk(view.inner))
            assert view._snapshot == walk, sim.now
            assert SYS_UPTIME in walk
            ticked[view] = walk

        def check_served(cursor, count):
            view = agent.mib
            walk = ticked.get(view)
            for oid, value in view.get_next_run(cursor, count):
                if oid.startswith(SYS_UPTIME.parent) or walk is None or oid not in walk:
                    assert value == view.inner.get(oid), oid  # fresh, or not yet ticked
                else:
                    assert value == walk[oid] == view.get(oid), oid  # what the tick read

        with mock.patch.object(CachingMibTree, "_take_snapshot", checked_tick):
            agent = SnmpAgent(net.endpoint("sw"), CachingMibTree(tree, sim, refresh_interval=1.0))
            check_served(Oid("0"), 10_000)  # before the first tick: live
            net.run(sim.now)
            for step in program + [("serve", 0, 0), ("tick", 1.0), ("serve", 0, 0)]:
                op = step[0]
                if op == "traffic":
                    _, port, name, by = step
                    counters = sw.interfaces[port].counters
                    setattr(counters, name, getattr(counters, name) + by)
                elif op == "admin":
                    sw.interfaces[step[1]].set_admin_up(step[2])
                elif op == "unlink":
                    iface = sw.interfaces[step[1]]
                    if iface.link is not None:
                        links[iface], iface.link = iface.link, None
                    else:
                        iface.link = links.pop(iface, None)
                elif op == "learn":
                    learn(sw, MacAddress(0x020000000000 | step[1]), sw.interfaces[step[2]])
                elif op == "age":
                    net.run(sim.now + step[1])
                elif op == "flush":
                    sw.flush_fdb()
                elif op == "stp":
                    iface = sw.interfaces[step[1]]
                    info = sw.stp._ports[iface]
                    if step[2] == "disabled":
                        info.role = ROLE_DISABLED
                    else:
                        sw.stp._set_state(iface, info, step[2])
                elif op == "request":
                    community = "private" if step[1] == "bad-community" else "public"
                    payload = Message(
                        VERSION_2C, community, Pdu.get_request(1, [SNMP_GROUP.extend(1, 0)])
                    ).encode()
                    if step[1] == "garbage":
                        payload = b"\x30\x03junk"
                    agent._on_datagram(payload, len(payload), peer, 4000)
                elif op == "reboot":
                    old = agent.mib
                    AgentReboot(sim, agent, at=sim.now, outage=0.01)
                    net.run(sim.now + 0.02)
                    assert agent.mib is not old and isinstance(agent.mib, CachingMibTree)
                elif op == "register":
                    registered += 1
                    oid = PAST_PROVIDERS.extend(300 + registered, 0)
                    counters = sw.interfaces[0].counters
                    agent.mib.inner.register(
                        oid, (lambda: Counter32.wrap(counters.in_octets)) if step[1]
                        else Counter32(registered),
                    )
                elif op == "tick":
                    net.run(sim.now + step[1])
                elif step[2]:
                    rows = full_walk(agent.mib.inner)
                    check_served(cursor_for("row", step[1], step[1], rows), step[2])
                else:
                    check_served(Oid("0"), 10_000)  # the whole MIB
        agent.mib.stop()


class TestSnapshotCost:
    """No wall clock: Python calls, on a 50-port spanning-tree switch
    (958 ifTable and system rows, 100 spanning-tree and 36 FDB rows)."""

    def warm_switch(self):
        net, sw, tree, naive = bridge_rig(ports=50, hosts=12)
        for i in range(12):
            learn(sw, MacAddress(0x020000000100 | i), sw.interfaces[i])
        cached = CachingMibTree(tree, net.sim, refresh_interval=5.0)
        cached._take_snapshot()  # lays the snapshot out, builds the FDB row index
        return net, sw, tree, cached

    def test_an_idle_refresh_reads_no_row(self):
        """Re-walking the whole tree took 1 321 Python calls here, two a
        row: the accessor and the value it built.  Now the constants sit
        in the snapshot once, each interface's counters and status are
        one C call each, the spanning-tree states one pass, and the FDB
        index is the one copied last time: at most a tenth of a call a
        row, and every value but sysUpTime the object it was."""
        net, sw, tree, cached = self.warm_switch()
        before = dict(cached._snapshot)
        calls = call_counts(cached._take_snapshot)
        cached.stop()
        rows = full_walk(tree)
        assert len(rows) == 958 + 100 + 36
        assert cached._snapshot == dict(rows)
        assert SYS_UPTIME in cached._snapshot  # the system group is in it too
        assert "get_next" not in calls and "successors" not in calls, calls
        assert sum(calls.values()) <= 0.1 * len(rows), calls
        moved = [oid for oid, value in before.items() if cached._snapshot[oid] is not value]
        assert moved == [SYS_UPTIME], moved

    def test_a_moved_counter_costs_two_calls(self):
        """Wrapping a moved counter is ``Counter32.wrap`` and its
        ``__init__``; an interface that moved re-wraps only what did."""
        net, sw, tree, cached = self.warm_switch()
        idle = sum(call_counts(cached._take_snapshot).values())
        for iface in sw.interfaces[:20]:
            iface.counters.in_octets += 1500
            iface.counters.in_ucast_pkts += 1
        calls = call_counts(cached._take_snapshot)
        cached.stop()
        assert sum(calls.values()) - idle <= 2 * 40, calls
        assert calls["wrap"] == 40, calls
        assert cached._snapshot == dict(full_walk(tree))

    def test_a_live_status_or_snmp_row_builds_no_value(self):
        """A GET of every ifAdminStatus and ifOperStatus and of the snmp
        group's unmoved counters, asked again of a warm live agent: no
        value object is built, every status value is the one the
        request's reply plan served last time, and the counters are read
        as their group's raw tuple, the one it served."""
        net, sw, tree, _naive = bridge_rig(ports=50, hosts=12)
        agent = SnmpAgent(net.endpoint("sw"), tree)
        oids = [column.extend(i) for column in (IF_ADMIN_STATUS, IF_OPER_STATUS)
                for i in range(1, 51)]
        oids += [SNMP_OUT_PKTS, SNMP_IN_BAD_COMMUNITY_NAMES, SNMP_IN_ASN_PARSE_ERRS]
        payload = Message(VERSION_2C, "public", Pdu.get_request(1, oids)).encode()
        peer = net.device("h0").primary_ip
        first = agent_reply(agent, payload, peer)
        reply = []
        calls = call_counts(lambda: reply.append(agent_reply(agent, payload, peer)), by_file=True)
        assert reply == [first]
        built = {key: n for key, n in calls.items() if key[0].endswith("datatypes.py")}
        assert not built, built
        (plan,) = agent._plans.values()
        served = dict(zip([oids[plan.slots[k]] for k in plan.single], plan.values))
        for oid in oids[:100]:
            assert served[oid] is tree.get(oid), oid
        assert not set(served) & set(oids[100:])
        assert plan.raws == [getter(source) for getter, source in zip(plan.getters, plan.sources)]
