"""GetBulk agent semantics and the bulk interface-poll primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.network import Network
from repro.snmp.agent import SnmpAgent
from repro.snmp.ber import BerError
from repro.snmp.datatypes import Counter32, EndOfMibView, TimeTicks
from repro.snmp.errors import SnmpError
from repro.snmp.manager import SnmpManager
from repro.snmp.message import VERSION_1, VERSION_2C, Message
from repro.snmp.mib import (
    IF_DESCR,
    IF_ENTRY,
    IF_IN_OCTETS,
    IF_OUT_OCTETS,
    SYS_NAME,
    SYS_UPTIME,
    build_mib2,
)
from repro.snmp.oid import Oid
from repro.core.poller import _COLUMNS as POLLED
from repro.core.poller import PollTarget, SnmpPoller
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu
from tests.costs import call_counts
from tests.snmp_reference import agent_reply


def snmp_net():
    net = Network()
    mgr_host = net.add_host("L")
    agent_host = net.add_host("S1")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(mgr_host, sw)
    net.connect(agent_host, sw)
    net.announce_hosts()
    SnmpAgent(agent_host, build_mib2(agent_host, net.sim))
    manager = SnmpManager(mgr_host, timeout=0.5, retries=1)
    return net, manager, agent_host


def switch_rig(ports=24):
    """A managed many-port switch: the realistic bulk-walk target."""
    net = Network()
    mgr_host = net.add_host("L")
    sw = net.add_switch("sw", ports, managed=True)
    net.connect(mgr_host, sw)
    net.announce_hosts()
    agent = SnmpAgent(net.endpoint("sw"), build_mib2(net.device("sw"), net.sim))
    manager = SnmpManager(mgr_host, timeout=0.5, retries=1)
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
        mgr = SnmpManager(mgr_host, timeout=0.5, retries=1)
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
        assert mgr.outstanding == 0 and mgr.requests_sent == 2 - (consumer != "poller")
        assert done() == ports
        return agent_side, manager_side

    def test_marginal_cost_of_a_varbind_agent_receive_to_poller_ingest(self):
        """(calls for a 48-port poll - calls for a 16-port one) / the 192
        extra varbinds.  The parent paid about 25: get_next, accessor,
        wrap, VarBind(), encode and three encode_tlv on the agent; ten
        frames of VarBind.decode, a dict entry and an isinstance on the
        manager.  Now 4 on the agent (accessor, wrap, Counter32(), encode)
        and the poller's per-interface work spread over six columns."""
        small, big = (self.second_poll(ports, "poller") for ports in (16, 48))
        total = lambda sides: sum(sum(side.values()) for side in sides)  # noqa: E731
        marginal = (total(big) - total(small)) / ((48 - 16) * len(POLLED))
        assert marginal <= 6, (marginal, big[0] - small[0], big[1] - small[1])

    def test_an_in_column_row_costs_the_manager_no_call_at_all(self):
        """Three times the rows, the same Python calls from datagram to
        callback: no decode_tlv, no VarBind.decode, no Oid, no value object
        per row -- nothing per row but the reader's own loop."""
        (_, small), (_, big) = (self.second_poll(ports, "callback") for ports in (16, 48))
        assert big == small, big - small
        for name in ("decode_tlv", "decode_value", "decode_unsigned_content", "__new__"):
            assert big[name] <= 3, (name, big[name])  # sysUpTime's varbind only
        assert big["_read_columns"] == 1

