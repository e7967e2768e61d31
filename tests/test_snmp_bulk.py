"""GetBulk agent semantics and the bulk interface-poll primitive."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet.network import Network
from repro.simnet.address import IPv4Address
from repro.snmp import agent as agent_module
from repro.snmp import manager as manager_module
from repro.snmp import message as message_module
from repro.snmp.agent import MAX_MESSAGE_BYTES, SnmpAgent
from repro.snmp.ber import BerError
from repro.snmp.datatypes import Counter32, EndOfMibView, Integer, OctetString, TimeTicks
from repro.snmp.errors import ErrorStatus, SnmpError
from repro.snmp.manager import DEFAULT_COMMUNITY, SnmpManager, _BulkWalk
from repro.snmp.message import VERSION_1, VERSION_2C, Message
from repro.snmp.mib import (
    IF_DESCR,
    IF_ENTRY,
    IF_IN_OCTETS,
    IF_INDEX,
    IF_OPER_STATUS,
    IF_OUT_OCTETS,
    IF_SPEED,
    SYS_DESCR,
    SYS_NAME,
    SYS_UPTIME,
    build_mib2,
)
from repro.snmp.oid import Oid
from repro.core.poller import _COLUMNS as POLLED
from repro.core.poller import PollTarget, SnmpPoller
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu
from tests.costs import call_counts
from tests.snmp_reference import (
    agent_reply,
    old_bulk_poll,
    old_decode,
    old_encode,
    old_get_poll,
    old_reply,
)


def snmp_net():
    net = Network()
    mgr_host = net.add_host("L")
    agent_host = net.add_host("S1")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(mgr_host, sw)
    net.connect(agent_host, sw)
    net.announce_hosts()
    SnmpAgent(agent_host, build_mib2(agent_host, net.sim))
    manager = SnmpManager(mgr_host, retries=1)
    return net, manager, agent_host


def switch_rig(ports=24):
    """A managed many-port switch: the realistic bulk-walk target."""
    net = Network()
    mgr_host = net.add_host("L")
    sw = net.add_switch("sw", ports, managed=True)
    net.connect(mgr_host, sw)
    net.announce_hosts()
    agent = SnmpAgent(net.endpoint("sw"), build_mib2(net.device("sw"), net.sim))
    manager = SnmpManager(mgr_host, retries=1)
    return net, manager, net.endpoint("sw").primary_ip, agent


def switch_net(ports=24):
    return switch_rig(ports)[:3]


class Collect:
    def __init__(self):
        self.results = None
        self.error = None

    def ok(self, varbinds):
        self.results = varbinds

    def fail(self, exc):
        self.error = exc


class TestBulkPdu:
    def test_bulk_accessors(self):
        pdu = Pdu.get_bulk_request(7, [SYS_UPTIME], 1, 20)
        assert pdu.non_repeaters == 1
        assert pdu.max_repetitions == 20

    def test_non_bulk_pdu_has_no_bulk_fields(self):
        pdu = Pdu.get_request(7, [SYS_UPTIME])
        with pytest.raises(AttributeError):
            pdu.non_repeaters
        with pytest.raises(AttributeError):
            pdu.max_repetitions

    def test_negative_bulk_fields_rejected(self):
        with pytest.raises(BerError):
            Pdu.get_bulk_request(7, [SYS_UPTIME], -1, 20)
        with pytest.raises(BerError):
            Pdu.get_bulk_request(7, [SYS_UPTIME], 0, -5)

    @settings(max_examples=50, deadline=None)
    @given(
        request_id=st.integers(min_value=0, max_value=2**31 - 1),
        non_repeaters=st.integers(min_value=0, max_value=10),
        max_repetitions=st.integers(min_value=0, max_value=200),
        n_oids=st.integers(min_value=1, max_value=8),
    )
    def test_bulk_codec_round_trip(
        self, request_id, non_repeaters, max_repetitions, n_oids
    ):
        oids = [Oid(f"1.3.6.1.2.1.2.2.1.{10 + i}") for i in range(n_oids)]
        pdu = Pdu.get_bulk_request(request_id, oids, non_repeaters, max_repetitions)
        payload = Message(VERSION_2C, "public", pdu).encode()
        decoded = Message.decode(payload).pdu
        assert decoded.request_id == request_id
        assert decoded.non_repeaters == non_repeaters
        assert decoded.max_repetitions == max_repetitions
        assert [vb.oid for vb in decoded.varbinds] == oids


class TestAgentGetBulk:
    def test_non_repeater_ordering(self):
        """Varbind 0 is one GETNEXT of the first OID; repetitions follow."""
        net, mgr, sw_ip = switch_net(ports=4)
        got = Collect()
        mgr.get_bulk(
            sw_ip,
            [SYS_UPTIME[: len(SYS_UPTIME) - 1], IF_IN_OCTETS],
            got.ok,
            got.fail,
            non_repeaters=1,
            max_repetitions=4,
        )
        net.run(1.0)
        assert got.error is None
        assert got.results[0].oid == SYS_UPTIME
        assert isinstance(got.results[0].value, TimeTicks)
        rest = got.results[1:]
        assert [vb.oid for vb in rest] == [IF_IN_OCTETS + str(i) for i in (1, 2, 3, 4)]
        assert all(isinstance(vb.value, Counter32) for vb in rest)

    def test_truncation_at_end_of_mib(self):
        """A column that runs out yields exactly one EndOfMibView."""
        net, mgr, sw_ip = switch_net(ports=3)
        got = Collect()
        mgr.get_bulk(sw_ip, [IF_OUT_OCTETS], got.ok, got.fail, max_repetitions=10)
        net.run(1.0)
        assert got.error is None
        in_column = [vb for vb in got.results if vb.oid.startswith(IF_OUT_OCTETS)]
        assert [vb.oid for vb in in_column] == [
            IF_OUT_OCTETS + str(i) for i in (1, 2, 3)
        ]
        # Past the column the walk spills into the next subtree; once the
        # whole MIB is exhausted the agent marks the column terminated
        # with a single endOfMibView, not max_repetitions of them.
        eom = [vb for vb in got.results if isinstance(vb.value, EndOfMibView)]
        assert len(eom) <= 1

    def test_max_repetitions_clamped(self):
        """An abusive max-repetitions is clamped agent-side."""
        net, mgr, sw_ip = switch_net(ports=4)
        got = Collect()
        mgr.get_bulk(sw_ip, [IF_DESCR], got.ok, got.fail, max_repetitions=10_000)
        net.run(1.0)
        assert got.error is None
        assert len(got.results) <= MAX_BULK_REPETITIONS

    def test_v1_manager_refuses_bulk(self):
        net = Network()
        mgr_host = net.add_host("L")
        peer = net.add_host("S1")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(mgr_host, sw)
        net.connect(peer, sw)
        net.announce_hosts()
        mgr = SnmpManager(mgr_host, version=VERSION_1)
        with pytest.raises(SnmpError):
            mgr.get_bulk(peer.primary_ip, [SYS_UPTIME], lambda vbs: None)
        with pytest.raises(SnmpError):
            mgr.poll_interfaces(peer.primary_ip, [1], [IF_IN_OCTETS], lambda vbs: None)


class TestPollInterfaces:
    COLUMNS = [IF_IN_OCTETS, IF_OUT_OCTETS]

    def test_small_table_single_exchange(self):
        net, mgr, sw_ip = switch_net(ports=8)
        got = Collect()
        mgr.poll_interfaces(sw_ip, range(1, 9), self.COLUMNS, got.ok, got.fail)
        net.run(1.0)
        assert got.error is None
        assert mgr.requests_sent == 1
        uptime, tables = got.results
        assert isinstance(uptime, int)  # uptime rides first
        for col in self.COLUMNS:
            for i in range(1, 9):
                assert tables[col][i][0] == Counter32.tag

    def test_large_table_chains_exchanges(self):
        """> MAX_BULK_REPETITIONS rows cannot fit one exchange."""
        net, mgr, sw_ip = switch_net(ports=70)
        got = Collect()
        mgr.poll_interfaces(sw_ip, range(1, 71), self.COLUMNS, got.ok, got.fail)
        net.run(2.0)
        assert got.error is None
        assert mgr.requests_sent == 2
        _uptime, tables = got.results
        for col in self.COLUMNS:
            for i in range(1, 71):
                assert tables[col][i][0] == Counter32.tag

    def test_bulk_matches_get(self):
        """The bulk walk returns a superset of the equivalent GET."""
        net, mgr, sw_ip = switch_net(ports=6)
        want = [SYS_UPTIME] + [
            col + str(i) for i in range(1, 7) for col in self.COLUMNS
        ]
        got_get, got_bulk = Collect(), Collect()
        mgr.get(sw_ip, want, got_get.ok, got_get.fail)
        net.run(1.0)
        mgr.poll_interfaces(sw_ip, range(1, 7), self.COLUMNS, got_bulk.ok, got_bulk.fail)
        net.run(2.0)
        assert got_get.error is None and got_bulk.error is None
        get_map = {vb.oid: vb.value for vb in got_get.results}
        uptime, tables = got_bulk.results
        bulk_map = {col.extend(i): cell for col, rows in tables.items() for i, cell in rows.items()}
        bulk_map[SYS_UPTIME] = uptime
        # Counters may have advanced between the two polls (the polls
        # themselves are traffic on the switch's port 1), so compare
        # coverage, not instantaneous values.
        assert set(get_map) <= set(bulk_map)

    def test_empty_request_completes_immediately(self):
        net, mgr, sw_ip = switch_net(ports=4)
        got = Collect()
        mgr.poll_interfaces(sw_ip, [], self.COLUMNS, got.ok, got.fail)
        net.run(0.1)
        assert got.results == (None, {col: {} for col in self.COLUMNS})
        assert mgr.requests_sent == 0

    def test_no_uptime_slot_unless_requested(self):
        """An out-of-table varbind is never filed as the sysUpTime result.

        Column 15 does not exist, so the agent's walk answers with the
        first row of column 16 -- a column nobody asked for.
        """
        net, mgr, sw_ip = switch_net(ports=8)
        got = Collect()
        mgr.poll_interfaces(
            sw_ip, range(1, 9), [IF_ENTRY + "15"], got.ok, got.fail,
            include_uptime=False,
        )
        net.run(1.0)
        assert got.error is None
        assert got.results == (None, {IF_ENTRY + "15": {}})

    def test_iftable_walk_never_materialises_the_fdb(self):
        """Cost guard: a counter poll must not pay for the bridge table."""
        net = Network()
        mgr_host = net.add_host("L")
        sw = net.add_switch("sw", 12, managed=True)
        net.connect(mgr_host, sw)
        for i in range(8):
            net.connect(net.add_host(f"h{i}"), sw)
        net.announce_hosts()
        net.run(0.5)
        assert len(sw.fdb_entries()) >= 9
        SnmpAgent(net.endpoint("sw"), build_mib2(sw, net.sim))
        mgr = SnmpManager(mgr_host, retries=1)
        calls = []
        live_entries = sw.fdb_entries
        sw.fdb_entries = lambda: calls.append(net.sim.now) or live_entries()
        got = Collect()
        mgr.poll_interfaces(
            net.endpoint("sw").primary_ip, range(1, 13), self.COLUMNS, got.ok, got.fail
        )
        net.run(2.0)
        assert got.error is None
        uptime, tables = got.results
        assert uptime is not None
        assert [len(tables[col]) for col in self.COLUMNS] == [12, 12]
        assert calls == []


# ----------------------------------------------------------------------
# Cost guards without a wall clock (tests/costs.py)
# ----------------------------------------------------------------------
class TestCostPerVarbind:
    def second_poll(self, ports, consumer):
        """The calls one whole-table bulk poll of a ``ports``-port switch
        costs, agent receive to ``consumer``, split (agent, manager).  It
        is the second poll: baselines exist, every row yields a sample."""
        net, mgr, sw_ip, agent = switch_rig(ports)
        if consumer == "poller":
            poller = SnmpPoller(
                mgr, [PollTarget("sw", sw_ip, list(range(1, ports + 1)))],
                jitter=0.0, poll_mode="bulk",
            )
            poll, done = poller._poll_cycle, lambda: poller.samples_produced
            poll()
            net.run(2.0)
        else:
            got = Collect()
            poll = lambda: mgr.poll_interfaces(sw_ip, range(1, ports + 1), POLLED, got.ok)  # noqa: E731
            done = lambda: len(got.results[1][IF_IN_OCTETS])  # noqa: E731
        poll()
        (request,) = [pending.payload for pending in mgr._pending.values()]
        reply = []
        agent_side = call_counts(lambda: reply.append(agent_reply(agent, request, sw_ip)))
        manager_side = call_counts(lambda: mgr._on_datagram(reply[0], len(reply[0]), sw_ip, 161))
        assert not mgr._pending and mgr.requests_sent == 2 - (consumer != "poller")
        assert done() == ports
        return agent_side, manager_side

    def test_marginal_cost_of_a_varbind_agent_receive_to_poller_ingest(self):
        """(calls for a 48-port poll - calls for a 16-port one) / the 192
        extra varbinds.  Once about 25: get_next, accessor, wrap, VarBind(),
        encode and three encode_tlv on the agent; ten frames of
        VarBind.decode, a dict entry and an isinstance on the manager.
        Then 5: accessor, wrap, Counter32() and encode on the agent and
        the poller's per-interface work spread over six columns.  Then 2:
        the counters the first poll read have not moved, so the agent pays
        the accessor alone.  Now 1.33: nor does the manager read them again
        or the poller derive their zero rates -- an interface's sample and
        its landing, over six columns."""
        small, big = (self.second_poll(ports, "poller") for ports in (16, 48))
        total = lambda sides: sum(sum(side.values()) for side in sides)  # noqa: E731
        marginal = (total(big) - total(small)) / ((48 - 16) * len(POLLED))
        assert marginal <= 2, (marginal, big[0] - small[0], big[1] - small[1])

    def test_an_in_column_row_costs_the_manager_no_call_at_all(self):
        """Three times the rows, the same Python calls from datagram to
        callback: no decode_tlv, no VarBind.decode, no Oid, no value object
        per row -- nothing per row but the reader's own loop."""
        (_, small), (_, big) = (self.second_poll(ports, "callback") for ports in (16, 48))
        assert big == small, big - small
        for name in ("decode_tlv", "decode_value", "decode_unsigned_content", "__new__"):
            assert big[name] <= 3, (name, big[name])  # sysUpTime's varbind only
        assert big["_read_columns"] == 1

    def third_reply_read(self, ports):
        """Python and C calls, by name, from datagram to callback, for the
        third whole-table bulk poll of a ``ports``-port switch: a reply to
        the request the manager read twice already.  Port 1's ifInOctets
        moves (in place) between polls; nothing else does."""
        net, mgr, sw_ip, agent = switch_rig(ports)
        counters, got = net.device("sw").interfaces[0].counters, Collect()
        for poll in range(3):
            mgr.poll_interfaces(sw_ip, range(1, ports + 1), POLLED, got.ok, got.fail)
            (request,) = [pending.payload for pending in mgr._pending.values()]
            counters.in_octets = 0x01000000 + poll  # four octets every time
            reply = agent_reply(agent, request, sw_ip)
            read = lambda: mgr._on_datagram(reply, len(reply), sw_ip, 161)  # noqa: E731
            calls = call_counts(read, c_calls=True)
        assert got.error is None and got.results[1][IF_IN_OCTETS][1][1] == 0x01000002
        return calls

    def test_an_unchanged_varbind_costs_the_reader_nothing(self):
        """The parent read every varbind of every reply: no Python call but
        about 3 C calls each (``dict.get``, ``int.from_bytes``,
        ``list.append``).  Now a reply is compared with the last one to the
        same request as two integers, and a varbind whose bytes did not
        change is read again by nothing, filed again by nothing."""
        small, big = (self.third_reply_read(ports) for ports in (16, 48))
        extra = (48 - 16) * len(POLLED)
        is_c = lambda name: isinstance(name, tuple) and name[0] == "<C>"  # noqa: E731
        python = sum(n for name, n in big.items() if not is_c(name)) - sum(
            n for name, n in small.items() if not is_c(name)
        )
        c = sum(n for name, n in big.items() if is_c(name)) - sum(
            n for name, n in small.items() if is_c(name)
        )
        assert python == 0, big - small
        assert c / extra <= 0.1, (c / extra, big - small)
        assert big["_read_columns"] == 1  # port 1's varbind, alone

    def moved_reply_read(self, ports, moved, grow):
        """C and Python calls, by name, reading the third reply to one
        whole-table bulk poll of a ``ports``-port switch in which the
        ifInOctets of the first ``moved`` ports moved -- each across an
        octet boundary when ``grow``, so the reply is longer by as many
        bytes -- and then the fourth, whose same counters moved again
        within their octets: ``(third, fourth)``."""
        net, mgr, sw_ip, agent = switch_rig(ports)
        interfaces, got, calls = net.device("sw").interfaces, Collect(), []
        for poll in range(4):
            mgr.poll_interfaces(sw_ip, range(1, ports + 1), POLLED, got.ok, got.fail)
            (request,) = [pending.payload for pending in mgr._pending.values()]
            for iface in interfaces[:moved]:  # 7F FF 80, then 00 80 00 00: one octet more
                iface.counters.in_octets = (0x7FFF00 if grow else 0x01000000) + poll * 0x80
            reply = agent_reply(agent, request, sw_ip)
            read = lambda: mgr._on_datagram(reply, len(reply), sw_ip, 161)  # noqa: E731
            calls.append(call_counts(read, c_calls=True))
        assert got.error is None and got.results[1][IF_IN_OCTETS][1][1] == (
            0x800080 if grow else 0x01000180
        )
        return calls[2], calls[3]

    def test_k_moved_varbinds_cost_the_reader_k_times_a_few_c_calls(self):
        """The varbinds that moved are found by arithmetic on the two
        replies as integers -- no regex -- at a few C calls each, whatever
        the reply's size; a reply that grew because a counter gained an
        octet is read against the last one too, re-aligned after it, not
        read whole (the parent read 3.3 replies a campus cycle whole so),
        and so is the next reply, against the grown one."""
        is_c = lambda name: isinstance(name, tuple) and name[0] == "<C>"  # noqa: E731
        for grow in (False, True):
            cost = {
                (ports, moved): self.moved_reply_read(ports, moved, grow)
                for ports in (16, 48) for moved in (2, 6)
            }
            for third, fourth in cost.values():
                for calls in (third, fourth):
                    assert not any("search" in str(name) for name in calls), calls
                    assert calls["_read_columns"] == 1 and calls["__init__"] == 0  # none whole
            c = {key: sum(n for name, n in calls[0].items() if is_c(name))
                 for key, calls in cost.items()}
            python = {key: sum(n for name, n in calls[0].items() if not is_c(name))
                      for key, calls in cost.items()}
            # 144 more varbinds, none of them moved: no call more.
            assert c[48, 2] == c[16, 2] and c[48, 6] == c[16, 6], (grow, c)
            assert python[48, 6] == python[16, 6], (grow, python)
            # Four more moved: a bounded number of C calls each.
            assert 0 < (c[16, 6] - c[16, 2]) / 4 <= (18 if grow else 12), (grow, c)

    # -- cost proportional to change: the third poll of an idle switch ----
    MOVED = ("in_octets", "out_octets", "in_ucast_pkts", "out_ucast_pkts",
             "in_nucast_pkts", "out_nucast_pkts")  # what POLLED reads

    def third_poll(self, ports, bulk=True, move=False):
        """``(manager, agent)``: the calls ``poll_interfaces`` makes up to
        ``sendto`` and the calls the agent makes to answer it, for the
        third whole-table poll of a ``ports``-port switch.  Datagrams are
        handed over, not sent: no frame crosses a port, so no counter
        moves unless ``move`` says so (then every polled one does)."""
        net, mgr, sw_ip, agent = switch_rig(ports)
        got = Collect()
        poll = lambda: mgr.poll_interfaces(  # noqa: E731
            sw_ip, range(1, ports + 1), POLLED, got.ok, got.fail, bulk=bulk
        )
        request = lambda: [pending.payload for pending in mgr._pending.values()][0]  # noqa: E731
        for _ in range(2):
            poll()
            reply = agent_reply(agent, request(), sw_ip)
            mgr._on_datagram(reply, len(reply), sw_ip, 161)
        assert got.error is None and len(got.results[1][IF_IN_OCTETS]) == ports
        if move:
            for iface in net.device("sw").interfaces:
                for name in self.MOVED:
                    setattr(iface.counters, name, getattr(iface.counters, name) + 1)
        sendto, mgr.socket.sendto = mgr.socket.sendto, lambda *datagram: None
        manager_side = call_counts(poll)
        mgr.socket.sendto = sendto
        payload = request()
        agent_side = call_counts(lambda: agent._on_datagram(payload, len(payload), sw_ip, 4000))
        return manager_side, agent_side

    @staticmethod
    def per_value_and_beside(small, big):
        """Slope and intercept of the agent's calls over the values served:
        what one more value costs, and what the request costs beside them."""
        values = lambda ports: ports * len(POLLED)  # noqa: E731
        per_value = (sum(big.values()) - sum(small.values())) / (values(48) - values(16))
        return per_value, sum(small.values()) - per_value * values(16)

    def test_an_unmoved_counter_costs_the_agent_its_accessor_alone(self):
        """Parent 4.0 (accessor lambda, wrap, Counter32(), encode); now 1.0:
        the accessor, then a dict probe and an ``is``.  In GET form the
        parent 18.0 (its name decoded, ``MibTree.get``, then the same
        four), now 2.0.  And nothing of the request is decoded twice: the
        parent answered it in 177 calls beside its values, now 85."""
        for bulk, per_value_bound in ((True, 1), (False, 2)):
            (_, small), (_, big) = (self.third_poll(ports, bulk) for ports in (16, 48))
            per_value, beside = self.per_value_and_beside(small, big)
            assert per_value <= per_value_bound, (bulk, per_value, big - small)
            assert beside <= 95, (bulk, beside, small)
            for name in ("wrap", "decode_varbinds", "decode_value", "decode_tlv", "extend"):
                assert big[name] == 0, (bulk, name, big[name])

    def test_a_moved_counter_costs_what_it_did(self):
        """accessor, wrap, Counter32() and encode: the parent's 4.0."""
        (_, small), (_, big) = (self.third_poll(ports, move=True) for ports in (16, 48))
        per_value, _beside = self.per_value_and_beside(small, big)
        assert 1 < per_value <= 4, (per_value, big - small)

    def test_a_repeated_poll_request_is_sent_as_the_bytes_it_was(self):
        """``poll_interfaces`` to ``sendto``: the parent 149 calls in bulk
        form and 629 for 16 ports, 1 781 for 48 in GET form (an Oid, a
        VarBind and three TLVs per name); now 41 and 37, whatever the
        table's size."""
        for bulk in (True, False):
            (small, _), (big, _) = (self.third_poll(ports, bulk) for ports in (16, 48))
            assert sum(big.values()) == sum(small.values()) <= 50, (bulk, big - small)
            for name in ("get_bulk_request", "get_request", "encode_oid_content", "extend"):
                assert big[name] == 0, (bulk, name, big[name])


# ----------------------------------------------------------------------
# The poll request on the wire is the parent's, byte for byte
# ----------------------------------------------------------------------
EVERY_POLLED = list(POLLED) + [IF_OPER_STATUS, IF_SPEED]


class TestThePollRequestIsTheParents:
    PORTS = 70  # more rows than one GetBulk carries: the walk has a second exchange

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(st.integers(1, PORTS), min_size=1, max_size=PORTS),
        columns=st.lists(st.sampled_from(EVERY_POLLED), min_size=1, max_size=8, unique=True),
        include_uptime=st.booleans(),
        community=st.sampled_from([None, "public", "campus"]),
        bulk=st.booleans(),
    )
    @example(
        rows=list(range(1, 71)), columns=EVERY_POLLED, include_uptime=True,
        community=None, bulk=True,
    )
    def test_every_datagram_of_a_poll(self, rows, columns, include_uptime, community, bulk):
        net, mgr, sw_ip, agent = switch_rig(self.PORTS)
        agent.community = community or DEFAULT_COMMUNITY
        sent, expected, got = [], [], Collect()
        sendto, issue = mgr.socket.sendto, _BulkWalk.issue
        mgr.socket.sendto = lambda payload, to: sent.append(payload) or sendto(payload, to)

        def old_issue(walk):  # what the parent would send from this state, then send
            expected.append(old_bulk_poll(len(expected) + 1, walk))
            issue(walk)

        _BulkWalk.issue = old_issue
        try:
            mgr.poll_interfaces(
                sw_ip, rows, columns, got.ok, got.fail,
                bulk=bulk, include_uptime=include_uptime, community=community,
            )
            net.run(net.now + 5.0)
        finally:
            _BulkWalk.issue = issue
        if not bulk:
            expected.append(old_get_poll(1, rows, columns, include_uptime))
        assert got.error is None and got.results is not None
        assert len(sent) == len(expected) == mgr.requests_sent
        if bulk and max(rows) - min(rows) >= MAX_BULK_REPETITIONS:
            assert len(sent) >= 2
        for payload, pdu in zip(sent, expected):
            message = Message(mgr.version, agent.community, pdu)
            assert payload == old_encode(message) == message.encode()


# ----------------------------------------------------------------------
# No reply is longer than a UDP datagram can be
# ----------------------------------------------------------------------
class TestReplySizeBound:
    def ask(self, agent, sw_ip, pdu, version=VERSION_2C):
        payload = Message(version, "public", pdu).encode()
        assert len(payload) <= MAX_MESSAGE_BYTES
        unbounded = old_decode(old_reply(agent.mib, "public", payload)).pdu
        reply = agent_reply(agent, payload, sw_ip)
        assert len(reply) <= MAX_MESSAGE_BYTES < len(old_encode(Message(version, "public", unbounded)))
        return reply, old_decode(reply).pdu, unbounded

    @pytest.mark.parametrize("repeaters", [400, 100])
    def test_a_getbulk_response_stops_where_the_datagram_ends(self, repeaters):
        """RFC 3416 4.2.3.  The parent answered 400 repeaters x 64 (a 6 KB
        request) with 458 955 bytes, once per manager attempt, and 100
        with 114 765 -- which the simulator delivered as one datagram."""
        net, mgr, sw_ip, agent = switch_rig(48)
        request = Pdu.get_bulk_request(9, [IF_INDEX] * repeaters, 0, MAX_BULK_REPETITIONS)
        reply, answer, unbounded = self.ask(agent, sw_ip, request)
        assert len(unbounded.varbinds) == repeaters * MAX_BULK_REPETITIONS
        assert (answer.request_id, answer.error_status, answer.error_index) == (9, 0, 0)
        kept = len(answer.varbinds)
        assert 0 < kept < len(unbounded.varbinds)
        assert answer.varbinds == unbounded.varbinds[:kept]
        # "approximately equal to but no greater than": the next varbind
        # would not have fitted, the few length octets the cut saved aside.
        assert len(reply) + len(unbounded.varbinds[kept].encode()) > MAX_MESSAGE_BYTES - 9

    @pytest.mark.parametrize("version", [VERSION_1, VERSION_2C])
    @pytest.mark.parametrize("build", [Pdu.get_request, Pdu.get_next_request])
    def test_any_other_response_that_cannot_fit_is_too_big(self, build, version):
        """RFC 3416 4.2.1: tooBig, error-index 0, an empty list."""
        net, mgr, sw_ip, agent = switch_rig(4)
        request = build(11, [SYS_DESCR] * 4000)  # 13 bytes asked, 22 answered, each
        _reply, answer, unbounded = self.ask(agent, sw_ip, request, version)
        assert unbounded.error_status == 0 and len(unbounded.varbinds) == 4000
        assert (answer.request_id, answer.error_status, answer.error_index, answer.varbinds) == (
            11, ErrorStatus.TOO_BIG, 0, []
        )

    def test_a_poll_reply_is_nowhere_near_the_bound(self):
        """Eight columns of 64 rows and sysUpTime: 9 KB.  Nothing a poller
        asks for is cut, so no byte on the wire moves."""
        net, mgr, sw_ip, agent = switch_rig(64)
        request = Pdu.get_bulk_request(
            3, [SYS_UPTIME.parent] + [col.extend(0) for col in EVERY_POLLED], 1, 64
        )
        payload = Message(VERSION_2C, "public", request).encode()
        reply = agent_reply(agent, payload, sw_ip)
        assert reply == old_reply(agent.mib, "public", payload)
        assert len(old_decode(reply).pdu.varbinds) == 1 + 8 * 64 and len(reply) < 10_000


# ----------------------------------------------------------------------
# Both memos are bounded, in entries and in bytes per entry
# ----------------------------------------------------------------------
class TestMemosAreBounded:
    def test_a_walker_and_a_hostile_peer(self):
        """20 000 distinct instances walked and 1 000 distinct 8 KB
        requests sent at one agent: neither memo outgrows its bound, no
        entry its size, and the polled rows are remembered again after."""
        net, mgr, sw_ip, agent = switch_rig(8)
        # Below the bridge FDB's prefix: a walk there is answered from
        # static instances alone, so every reply of it is kept as a plan.
        base = Oid("1.3.6.1.2.1.16.7")
        for i in range(20_000):
            agent.mib.register(base.extend(i), Integer(i))
        agent.mib.register(base.extend(20_000), OctetString(b"x" * 100))  # an outsize varbind
        entries, entry_bytes = agent_module._MEMO_PLANS, agent_module._MEMO_PLAN_BYTES
        seen, kept = 0, 0
        for first in range(0, 20_001, MAX_BULK_REPETITIONS):
            cursor = base.extend(first - 1) if first else base
            request = Pdu.get_bulk_request(first, [cursor], 0, 10_000)
            payload = Message(VERSION_2C, "public", request).encode()
            reply = agent_reply(agent, payload, sw_ip)
            assert reply == old_reply(agent.mib, "public", payload)
            seen += len(old_decode(reply).pdu.varbinds)
            kept = max(kept, len(agent._plans))
            assert len(agent._plans) <= entries
        assert seen >= 20_001 and kept == entries
        # 20 repeaters of 64 rows: 18 KB of varbinds, answered and not kept.
        request = Pdu.get_bulk_request(1, [base] * 20, 0, MAX_BULK_REPETITIONS)
        payload = Message(VERSION_2C, "public", request).encode()
        plans = dict(agent._plans)
        reply = agent_reply(agent, payload, sw_ip)
        assert reply == old_reply(agent.mib, "public", payload) and len(reply) > entry_bytes
        assert agent._plans == plans
        assert all(sum(map(len, plan.varbinds)) <= entry_bytes for plan in plans.values())

        lists, list_bytes = message_module._MEMO_LISTS, message_module._MEMO_LIST_BYTES
        decoded = message_module._decoded
        decoded.cache_clear()
        long_name = base.extend(*[7] * 110)  # 8 KB in few varbinds: the test is about bytes
        template = Message(
            VERSION_2C, "private", Pdu.get_request(1, [long_name.extend(0, j) for j in range(64)])
        ).encode()
        at = template.index(b"\x00\x00\x05\x00")  # the first name's last two arcs
        for i in range(1000):
            payload = template[:at] + bytes((i >> 7, i & 0x7F)) + template[at + 2:]
            assert 8000 < len(payload) < list_bytes
            agent._on_datagram(payload, len(payload), sw_ip, 4000)
            assert decoded.cache_info().currsize <= lists
        assert agent.bad_community == 1000 and decoded.cache_info().misses == 1000
        outsize = Message(
            VERSION_2C, "private", Pdu.get_request(1, [long_name.extend(j) for j in range(140)])
        ).encode()
        assert len(outsize) > list_bytes
        for _ in range(2):
            agent._on_datagram(outsize, len(outsize), sw_ip, 4000)
        assert agent.bad_community == 1002 and agent.malformed == 0
        assert decoded.cache_info().misses == 1000  # decoded, never remembered

        # The memo a walk swept is refilled by the next poll and hit by the
        # one after: an idle counter costs no reader call again.
        poll = Message(
            VERSION_2C, "public",
            Pdu.get_bulk_request(1, [col.extend(0) for col in POLLED], 0, 8),
        ).encode()
        agent_reply(agent, poll, sw_ip)
        calls = call_counts(lambda: agent._on_datagram(poll, len(poll), sw_ip, 4000))
        assert calls["read"] == calls["encode"] == calls["wrap"] == 0
        assert calls["_serve"] == 1

    def test_the_managers_replies(self):
        """The manager's memo of poll replies read: 1 000 distinct requests
        (one per agent address), then a target moved from one worker's
        manager to another's, and a reply too long to keep -- no memo
        outgrows its bound, and every reply reads as it would whole."""
        net, mgr, sw_ip, agent = switch_rig(8)
        other = SnmpManager(net.add_host("W2"), retries=1)
        bound = manager_module._MEMO_REPLIES

        def poll(manager, dst, ports=8, bulk=True):
            got = Collect()
            manager.socket.sendto = lambda *datagram: None  # handed over below
            manager.poll_interfaces(
                dst, range(1, ports + 1), EVERY_POLLED, got.ok, got.fail, bulk=bulk
            )
            (request,) = [p.payload for p in manager._pending.values()]
            reply = agent_reply(agent, request, sw_ip)
            manager._on_datagram(reply, len(reply), dst, 161)
            assert got.error is None and len(got.results[1][IF_IN_OCTETS]) == ports
            return len(reply)

        for i in range(1000):
            poll(mgr, IPv4Address(0x0A090000 + i))
            assert len(mgr._replies) <= bound
        for manager in (mgr, mgr, other, other):  # reassigned after two polls
            poll(manager, sw_ip)
            assert len(manager._replies) <= bound
        assert {key[0] for key in other._replies} == {sw_ip}

        net, mgr, sw_ip, agent = switch_rig(150)
        assert poll(mgr, sw_ip, ports=150, bulk=False) > manager_module._MEMO_REPLY_BYTES
        assert mgr._replies == {}  # read, never remembered
