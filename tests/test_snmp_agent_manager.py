"""Integration tests: SNMP agent + manager over the simulated network."""

import pytest

from repro.simnet.network import Network
from repro.snmp.agent import SnmpAgent
from repro.snmp.datatypes import (
    Counter32,
    EndOfMibView,
    Integer,
    NoSuchObject,
    OctetString,
    TimeTicks,
)
from repro.snmp.errors import ErrorStatus, SnmpError, SnmpErrorResponse, SnmpTimeout
from repro.snmp.manager import SnmpManager
from repro.snmp.message import VERSION_1, VERSION_2C
from repro.snmp.mib import IF_IN_OCTETS, SYS_NAME, SYS_UPTIME, build_mib2
from repro.snmp.oid import Oid
from repro.snmp.pdu import Pdu


def snmp_net(agent_community="public", mgr_version=VERSION_2C):
    net = Network()
    mgr_host = net.add_host("L")
    agent_host = net.add_host("S1")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(mgr_host, sw)
    net.connect(agent_host, sw)
    net.announce_hosts()
    agent = SnmpAgent(agent_host, build_mib2(agent_host, net.sim), community=agent_community)
    manager = SnmpManager(mgr_host, version=mgr_version, retries=1)
    return net, manager, agent, agent_host


class Collect:
    def __init__(self):
        self.results = None
        self.error = None

    def ok(self, varbinds):
        self.results = varbinds

    def fail(self, exc):
        self.error = exc


class TestGet:
    def test_basic_get(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.get(host.primary_ip, [SYS_NAME, SYS_UPTIME], got.ok, got.fail)
        net.run(1.0)
        assert got.error is None
        assert got.results[0].value == OctetString(b"S1")
        assert isinstance(got.results[1].value, TimeTicks)

    def test_get_miss_v2c_exception_value(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.get(host.primary_ip, [Oid("1.3.9.9.9.0")], got.ok, got.fail)
        net.run(1.0)
        assert got.error is None
        assert isinstance(got.results[0].value, NoSuchObject)

    def test_get_miss_v1_error_status(self):
        net, mgr, agent, host = snmp_net(mgr_version=VERSION_1)
        got = Collect()
        mgr.get(host.primary_ip, [Oid("1.3.9.9.9.0")], got.ok, got.fail)
        net.run(1.0)
        assert got.results is None
        assert isinstance(got.error, SnmpErrorResponse)
        assert got.error.status == ErrorStatus.NO_SUCH_NAME
        assert got.error.index == 1

    def test_wrong_community_times_out(self):
        net, mgr, agent, host = snmp_net(agent_community="secret")
        got = Collect()
        mgr.get(host.primary_ip, [SYS_NAME], got.ok, got.fail)
        net.run(5.0)
        assert isinstance(got.error, SnmpTimeout)
        assert agent.bad_community == 2  # original + one retry
        assert mgr.timeouts == 1

    def test_per_request_community_override(self):
        net, mgr, agent, host = snmp_net(agent_community="secret")
        got = Collect()
        mgr.get(host.primary_ip, [SYS_NAME], got.ok, got.fail, community="secret")
        net.run(1.0)
        assert got.error is None
        assert got.results[0].value == OctetString(b"S1")

    def test_unreachable_agent_times_out_after_retries(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        # No agent listens on the manager's own host port 161.
        mgr.get(mgr.endpoint.primary_ip, [SYS_NAME], got.ok, got.fail)
        net.run(5.0)
        assert isinstance(got.error, SnmpTimeout)
        assert got.error.attempts == 2
        assert mgr.retransmissions == 1

    def test_counters_via_snmp_match_nic(self):
        net, mgr, agent, host = snmp_net()
        from repro.simnet.sockets import DISCARD_PORT

        peer = net.host("L")
        peer.create_socket().sendto(972, (host.primary_ip, DISCARD_PORT))
        net.run(0.5)
        got = Collect()
        mgr.get(host.primary_ip, [IF_IN_OCTETS + "1"], got.ok, got.fail)
        net.run(1.5)
        wire = got.results[0].value
        assert isinstance(wire, Counter32)
        assert wire.value == host.interfaces[0].counters.in_octets % (1 << 32)


class TestGetNext:
    def test_get_next_advances(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.get_next(host.primary_ip, [Oid("1.3.6.1.2.1.1")], got.ok, got.fail)
        net.run(1.0)
        assert got.results[0].oid == Oid("1.3.6.1.2.1.1.1.0")  # sysDescr.0

    def test_get_next_past_end_v2c(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.get_next(host.primary_ip, [Oid("2.999")], got.ok, got.fail)
        net.run(1.0)
        assert isinstance(got.results[0].value, EndOfMibView)


class TestWalk:
    def test_walk_interfaces_column(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.walk(host.primary_ip, IF_IN_OCTETS, got.ok, got.fail)
        net.run(2.0)
        assert [vb.oid for vb in got.results] == [IF_IN_OCTETS + "1"]

    def test_walk_system_group(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.walk(host.primary_ip, Oid("1.3.6.1.2.1.1"), got.ok, got.fail)
        net.run(3.0)
        assert len(got.results) == 7  # sysDescr..sysServices

    def test_walk_with_bulk(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.walk(host.primary_ip, Oid("1.3.6.1.2.1.2"), got.ok, got.fail, use_bulk=True)
        net.run(3.0)
        # ifNumber + 20ish columns x 1 interface; exact count checked loosely
        assert len(got.results) >= 15
        oids = [vb.oid for vb in got.results]
        assert oids == sorted(oids)


class TestGetBulk:
    def test_bulk_repetitions(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.get_bulk(
            host.primary_ip, [Oid("1.3.6.1.2.1.1")], got.ok, got.fail, max_repetitions=3
        )
        net.run(1.0)
        assert len(got.results) == 3

    def test_bulk_requires_v2c(self):
        net, mgr, agent, host = snmp_net(mgr_version=VERSION_1)
        with pytest.raises(SnmpError):
            mgr.get_bulk(host.primary_ip, [SYS_NAME], lambda v: None)

    def test_bulk_end_of_mib(self):
        net, mgr, agent, host = snmp_net()
        got = Collect()
        mgr.get_bulk(host.primary_ip, [Oid("2.998")], got.ok, got.fail, max_repetitions=5)
        net.run(1.0)
        assert isinstance(got.results[0].value, EndOfMibView)
        assert len(got.results) == 1


class TestSet:
    def test_set_rejected_read_only(self):
        net, mgr, agent, host = snmp_net()
        # Hand-roll a SET through the manager's plumbing.
        from repro.snmp.pdu import VarBind
        from repro.snmp import ber

        got = Collect()
        pdu = Pdu(ber.TAG_SET_REQUEST, 77, varbinds=[VarBind(SYS_NAME, OctetString(b"X"))])
        mgr._send(77, pdu, host.primary_ip, got.ok, got.fail)
        net.run(1.0)
        assert isinstance(got.error, SnmpErrorResponse)
        assert got.error.status in (ErrorStatus.READ_ONLY, ErrorStatus.NOT_WRITABLE)


class TestAgentRobustness:
    def test_malformed_datagram_counted_and_ignored(self):
        net, mgr, agent, host = snmp_net()
        sock = net.host("L").create_socket()
        sock.sendto(b"\xff\x00garbage", (host.primary_ip, 161))
        net.run(1.0)
        assert agent.malformed == 1
        assert agent.out_packets == 0

    def test_sizeless_datagram_counted(self):
        net, mgr, agent, host = snmp_net()
        sock = net.host("L").create_socket()
        sock.sendto(64, (host.primary_ip, 161))  # synthetic, payload=None
        net.run(1.0)
        assert agent.malformed == 1

    def test_cancel_all_suppresses_errbacks(self):
        net, mgr, agent, host = snmp_net(agent_community="secret")
        got = Collect()
        mgr.get(host.primary_ip, [SYS_NAME], got.ok, got.fail)
        mgr.cancel_all()
        net.run(5.0)
        assert got.error is None
        assert not mgr._pending

    def test_response_traffic_loads_network(self):
        """SNMP polling itself consumes bandwidth (paper's ~2% overhead)."""
        net, mgr, agent, host = snmp_net()
        iface = host.interfaces[0]
        base_out = iface.counters.out_octets
        got = Collect()
        mgr.get(host.primary_ip, [SYS_UPTIME, IF_IN_OCTETS + "1"], got.ok, got.fail)
        net.run(1.0)
        assert iface.counters.out_octets > base_out  # the response was real bytes


class TestErrorStatusOffTheWire:
    """RFC 3416 defines error-status 0-18 and a corrupt datagram can carry
    anything; at the parent commit an unlisted one raised ``ValueError``
    out of the socket callback *after* the request had been popped, so
    neither callback nor errback ever fired."""

    @pytest.mark.parametrize(
        "status, reads_as",
        [(16, ErrorStatus.AUTHORIZATION_ERROR), (18, ErrorStatus.INCONSISTENT_NAME),
         (65, ErrorStatus.GEN_ERR), (-3, ErrorStatus.GEN_ERR)],
    )
    def test_any_status_fails_the_request_exactly_once(self, status, reads_as):
        from repro.snmp import ber
        from repro.snmp.message import Message

        net, mgr, agent, host = snmp_net()
        errors, results = [], []
        request_id = mgr.get(host.primary_ip, [SYS_NAME], results.append, errors.append)
        reply = Message(
            VERSION_2C, "public", Pdu(ber.TAG_GET_RESPONSE, request_id, status, 1)
        ).encode()
        mgr._on_datagram(reply, len(reply), host.primary_ip, 161)
        assert not mgr._pending and results == []
        (exc,) = errors
        assert isinstance(exc, SnmpErrorResponse)
        assert (exc.status, exc.raw_status, exc.index) == (reads_as, status, 1)
        net.run(2.0)  # the timer went with the request: no timeout, no second errback
        assert len(errors) == 1 and mgr.timeouts == 0

    def test_the_poller_counts_it_as_an_error_response(self):
        from repro.core.poller import PollTarget, SnmpPoller
        from repro.snmp import ber
        from repro.snmp.message import Message

        net, mgr, agent, host = snmp_net()
        poller = SnmpPoller(mgr, [PollTarget("S1", host.primary_ip, [1])], jitter=0.0)
        poller._poll_cycle()
        (request_id,) = mgr._pending
        reply = Message(VERSION_2C, "public", Pdu(ber.TAG_GET_RESPONSE, request_id, 65, 0)).encode()
        mgr._on_datagram(reply, len(reply), host.primary_ip, 161)
        error_responses = poller.telemetry.registry.value("poll_error_responses_total")
        assert (error_responses, poller.poll_errors, poller._in_flight) == (1, 1, 0)

