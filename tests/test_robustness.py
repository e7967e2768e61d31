"""Robustness: fuzzing the wire-facing surfaces and API-surface checks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.network import Network
from repro.snmp.agent import SnmpAgent
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import SYS_NAME, build_mib2
from repro.snmp.trap import TrapReceiver


def wire_pair():
    net = Network()
    attacker = net.add_host("X")
    victim = net.add_host("V")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(attacker, sw)
    net.connect(victim, sw)
    net.announce_hosts()
    return net, attacker, victim


class TestAgentFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_agent_never_crashes_on_garbage(self, blob):
        """Arbitrary bytes to port 161: counted, never raised, never answered
        unless they happen to decode to a valid request."""
        net, attacker, victim = wire_pair()
        agent = SnmpAgent(victim, build_mib2(victim, net.sim))
        attacker.create_socket().sendto(blob, (victim.primary_ip, 161))
        net.run(2.0)
        assert agent.in_packets <= 1 or blob == b""
        # Either ignored as malformed/bad-community, or answered exactly once.
        assert agent.out_packets <= 1

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_trap_receiver_never_crashes(self, blob):
        net, attacker, victim = wire_pair()
        events = []
        TrapReceiver(victim, callback=events.append)
        attacker.create_socket().sendto(blob, (victim.primary_ip, 162))
        net.run(2.0)
        assert events == [] or blob  # no events from nothing

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_manager_never_crashes_on_unsolicited(self, blob):
        """Arbitrary bytes to the manager's ephemeral port are swallowed."""
        net, attacker, victim = wire_pair()
        manager = SnmpManager(victim)
        attacker.create_socket().sendto(blob, (victim.primary_ip, manager.socket.port))
        net.run(2.0)
        assert manager.telemetry.registry.value("snmp_responses_total") == 0

    def test_truncated_valid_message_rejected(self):
        """Every prefix of a valid message must be rejected cleanly."""
        from repro.snmp.message import VERSION_2C, Message
        from repro.snmp.pdu import Pdu
        from repro.snmp import ber

        raw = Message(VERSION_2C, "public", Pdu.get_request(9, [SYS_NAME])).encode()
        for cut in range(len(raw)):
            try:
                Message.decode(raw[:cut])
            except ber.BerError:
                continue
            raise AssertionError(f"prefix of length {cut} decoded successfully")


class TestQuickstartContract:
    def test_readme_quickstart_runs(self):
        """The README's quickstart snippet must keep working verbatim."""
        from repro import NetworkMonitor, StepSchedule, build_network, parse_spec
        from repro.simnet.trafficgen import KBPS, StaircaseLoad

        build = build_network(parse_spec("""
        network topology demo {
            host alice { snmp community "public"; }
            host bob   { snmp community "public"; }
            switch sw1 { snmp community "public"; ports 4 speed 100 Mbps; }
            connect alice.eth0 <-> sw1.port1;
            connect bob.eth0   <-> sw1.port2;
        }
        """))
        monitor = NetworkMonitor(build, "alice", poll_interval=2.0)
        label = monitor.watch_path("alice", "bob")
        reports = []
        monitor.subscribe(reports.append)
        load = StaircaseLoad(
            build.network.host("alice"),
            build.network.ip_of("bob"),
            StepSchedule.pulse(5.0, 25.0, 300 * KBPS),
        )
        load.start()
        monitor.start()
        build.network.run(35.0)
        assert reports
        assert monitor.history.series(label).used().max() > 250_000

    def test_top_level_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_importable(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None
