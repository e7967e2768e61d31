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
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu


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


def switch_net(ports=24):
    """A managed many-port switch: the realistic bulk-walk target."""
    net = Network()
    mgr_host = net.add_host("L")
    sw = net.add_switch("sw", ports, managed=True)
    net.connect(mgr_host, sw)
    net.announce_hosts()
    SnmpAgent(net.endpoint("sw"), build_mib2(net.device("sw"), net.sim))
    manager = SnmpManager(mgr_host, timeout=0.5, retries=1)
    return net, manager, net.endpoint("sw").primary_ip


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
        assert got.results[0].oid == SYS_UPTIME  # uptime rides first
        by_oid = {vb.oid: vb.value for vb in got.results}
        for col in self.COLUMNS:
            for i in range(1, 9):
                assert isinstance(by_oid[col + str(i)], Counter32)

    def test_large_table_chains_exchanges(self):
        """> MAX_BULK_REPETITIONS rows cannot fit one exchange."""
        net, mgr, sw_ip = switch_net(ports=70)
        got = Collect()
        mgr.poll_interfaces(sw_ip, range(1, 71), self.COLUMNS, got.ok, got.fail)
        net.run(2.0)
        assert got.error is None
        assert mgr.requests_sent == 2
        by_oid = {vb.oid: vb.value for vb in got.results}
        for col in self.COLUMNS:
            for i in range(1, 71):
                assert isinstance(by_oid[col + str(i)], Counter32)

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
        bulk_map = {vb.oid: vb.value for vb in got_bulk.results}
        # Counters may have advanced between the two polls (the polls
        # themselves are traffic on the switch's port 1), so compare
        # coverage, not instantaneous values.
        assert set(get_map) <= set(bulk_map)

    def test_empty_request_completes_immediately(self):
        net, mgr, sw_ip = switch_net(ports=4)
        got = Collect()
        mgr.poll_interfaces(sw_ip, [], self.COLUMNS, got.ok, got.fail)
        net.run(0.1)
        assert got.results == []
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
        assert got.results == []

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
        assert len(got.results) == 1 + len(self.COLUMNS) * 12
        assert calls == []
