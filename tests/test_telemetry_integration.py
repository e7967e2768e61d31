"""Integration tests: the monitor stack feeding the telemetry subsystem."""

import pytest

from repro.cli import main
from repro.core.health import HealthState
from repro.core.monitor import NetworkMonitor
from repro.experiments.scale import scale_spec
from repro.experiments.testbed import MONITOR_HOST, build_testbed
from repro.rm.middleware import RmMiddleware
from repro.rm.qos import QosRequirement
from repro.simnet.faults import AgentOutage, LinkFailure
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.telemetry import Telemetry, prometheus_text
from repro.telemetry.events import (
    FAULT_CLEARED,
    FAULT_INJECTED,
    HEALTH_TRANSITION,
    QOS_RECOVERY,
    QOS_VIOLATION,
    REPORT_STATUS,
)


@pytest.fixture
def monitored():
    build = build_testbed()
    monitor = NetworkMonitor(build, MONITOR_HOST)
    monitor.watch_path("S1", "N1")
    return build, monitor


class TestMonitorTelemetry:
    def test_rtt_histogram_labelled_per_agent(self, monitored):
        build, monitor = monitored
        monitor.start()
        build.network.run(20.0)
        family = monitor.telemetry.registry.get("snmp_rtt_seconds")
        agents = [lv[0] for lv, _ in family.children()]
        assert set(agents) == {"L", "N1", "N2", "S1", "S2", "switch"}
        for _, child in family.children():
            assert child.count > 0
            assert 0.0 < child.quantile(0.5) < 1.0
            assert child.quantile(0.5) <= child.max

    def test_poll_cycle_spans_and_histogram(self, monitored):
        build, monitor = monitored
        monitor.start()
        build.network.run(20.0)
        tracer = monitor.telemetry.tracer
        cycles = tracer.spans("poll_cycle")
        assert len(cycles) >= 9
        # Each cycle span has one snmp_exchange child per polled agent.
        exchanges = tracer.children_of(cycles[-1])
        assert {s.name for s in exchanges} == {"snmp_exchange"}
        assert len(exchanges) == 6
        assert {s.attrs["outcome"] for s in exchanges} == {"ok"}
        hist = monitor.telemetry.registry.value("poll_cycle_seconds")
        assert hist["count"] >= 9
        assert 0.0 < hist["quantiles"][0.5] < monitor.poll_interval

    def test_stats_keys_unchanged_and_registry_backed(self, monitored):
        build, monitor = monitored
        monitor.start()
        build.network.run(10.0)
        stats = monitor.stats()
        assert set(stats) == {
            "poll_cycles", "poll_errors", "poll_timeout_errors",
            "poll_error_responses", "poll_parse_errors", "polls_suppressed",
            "agent_restarts", "agents_healthy", "agents_dead", "samples",
            "reports", "history_samples", "history_dropped",
            "snmp_requests", "snmp_responses", "snmp_timeouts",
            "snmp_retransmissions", "integrity_violations",
            "integrity_rejected", "integrity_quarantined",
            "cross_check_mismatches", "cache_hits", "recomputes",
            "dirty_pairs", "stream_subscribers", "stream_events_delivered",
            "stream_events_suppressed", "stream_events_dropped",
            "probe_trains", "probe_packets_sent", "probe_packets_lost",
            "probe_bytes_sent", "probe_disagreements", "probe_recoveries",
            "probe_active_disagreements", "topology_rounds",
            "topology_full_rounds", "topology_changes", "path_reroutes",
            "blocked_connections",
        }
        registry = monitor.telemetry.registry
        assert stats["poll_cycles"] == registry.value("poll_cycles_total")
        assert stats["snmp_requests"] == registry.value("snmp_requests_total")
        assert stats["reports"] == monitor.reports_emitted > 0
        assert stats["agents_healthy"] == 6

    def test_health_transitions_become_events(self, monitored):
        build, monitor = monitored
        AgentOutage(build.network.sim, build.agents["N1"], at=4.0, until=40.0)
        monitor.start()
        build.network.run(40.0)
        events = monitor.telemetry.events.events(HEALTH_TRANSITION)
        assert events, "outage should produce health transitions"
        assert events[0].attrs["node"] == "N1"
        dead = [e for e in events if e.attrs["new"] == "dead"]
        assert dead and dead[0].attrs["old"] == "suspect"
        assert monitor.telemetry.registry.value("agents_dead") == 1.0
        assert monitor.health.state("N1") is HealthState.DEAD

    def test_fault_events_on_shared_bus(self, monitored):
        build, monitor = monitored
        link = build.network.links[0]
        LinkFailure(
            build.network.sim, link, at=5.0, until=10.0,
            events=monitor.telemetry.events,
        )
        monitor.start()
        build.network.run(15.0)
        bus = monitor.telemetry.events
        assert bus.count(FAULT_INJECTED) == 1
        assert bus.count(FAULT_CLEARED) == 1
        assert bus.last(FAULT_INJECTED).attrs["fault"] == "LinkFailure"
        assert bus.last(FAULT_INJECTED).time == 5.0

    def test_qos_violation_and_recovery_events(self, monitored):
        build, monitor = monitored
        # Demand more than the 10 Mbps hub leg can ever leave available.
        RmMiddleware(
            monitor,
            [QosRequirement(
                name="tight", src="S1", dst="N1",
                min_available_bps=1_000_000.0,
            )],
        )
        StaircaseLoad(
            build.network.host("L"),
            build.network.ip_of("N1"),
            StepSchedule.pulse(6.0, 30.0, 600 * KBPS),
        ).start()
        monitor.start()
        build.network.run(60.0)
        bus = monitor.telemetry.events
        assert bus.count(QOS_VIOLATION) >= 1
        violation = bus.last(QOS_VIOLATION)
        assert violation.attrs["requirement"] == "tight"
        assert violation.attrs["path"] == "S1<->N1"
        assert "below required" in violation.attrs["reason"]
        assert bus.count(QOS_RECOVERY) >= 1

    def test_disabled_telemetry_still_counts(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, MONITOR_HOST, telemetry=False)
        monitor.watch_path("S1", "N1")
        monitor.start()
        build.network.run(10.0)
        stats = monitor.stats()
        assert stats["poll_cycles"] > 0
        assert stats["snmp_requests"] > 0
        # The optional costs stayed off: no spans, no RTT observations.
        assert monitor.telemetry.tracer.spans_finished == 0
        assert monitor.telemetry.registry.get("snmp_rtt_seconds").children() == []

    def test_shared_hub_instance_accepted(self):
        build = build_testbed()
        hub = Telemetry()
        monitor = NetworkMonitor(build, MONITOR_HOST, telemetry=hub)
        assert monitor.telemetry is hub

    def test_prometheus_export_from_live_run(self, monitored):
        build, monitor = monitored
        monitor.start()
        build.network.run(10.0)
        text = prometheus_text(monitor.telemetry.registry)
        assert "# TYPE snmp_rtt_seconds summary" in text
        assert 'snmp_rtt_seconds{agent="S1",quantile="0.99"}' in text
        assert "poll_cycles_total" in text


def _streamed_testbed():
    build = build_testbed()
    monitor = NetworkMonitor(build, MONITOR_HOST, poll_jitter=0.0)
    monitor.watch_path("S1", "N1")
    return build, monitor


def _streamed_mesh():
    # 24 hosts on 4 chained switches: 276 pairs a snapshot, 28 agents.
    build = build_network(scale_spec(switches=4, hosts_per_switch=6, arity=1))
    monitor = NetworkMonitor(build, "h0_0", poll_jitter=0.0)
    monitor.watch_path("h0_1", "h3_0")
    return build, monitor


class TestMatrixTelemetry:
    """A matrix cell is not a report somebody received: the all-pairs
    snapshot must neither flood the span ring nor pose as reports in the
    staleness histogram, the trust counters and the event bus."""

    @pytest.mark.parametrize("rig", [_streamed_testbed, _streamed_mesh])
    def test_snapshot_leaves_the_poll_spans_in_the_ring(self, rig):
        build, monitor = rig()
        monitor.enable_streaming()
        monitor.start()
        build.network.run(19.5)  # ten poll cycles, nine of them publishing
        tracer = monitor.telemetry.tracer
        assert len(tracer.finished) < tracer.finished.maxlen
        cycles = tracer.spans("poll_cycle")
        assert [s.attrs["cycle"] for s in cycles] == list(range(1, 11))
        exchanges = tracer.children_of(cycles[-1])
        assert {s.name for s in exchanges} == {"snmp_exchange"}
        assert len(exchanges) == len(monitor.poller.targets)
        snapshots = tracer.spans("matrix_snapshot")
        assert len(snapshots) == monitor.stream.cycles == 9
        pairs = len(monitor.stream.matrix.hosts) * (len(monitor.stream.matrix.hosts) - 1) // 2
        for span in snapshots:
            assert span.attrs["pairs"] == pairs
            assert 0 <= span.attrs["dirty_pairs"] <= pairs
        assert snapshots[0].attrs["dirty_pairs"] == pairs

    def test_staleness_and_trust_counters_describe_delivered_reports(self):
        build, monitor = _streamed_testbed()
        monitor.watch_path("S1", "S2")
        monitor.enable_streaming()
        # S2's samples age through degraded into unavailable (agent DEAD).
        AgentOutage(build.network.sim, build.agents["S2"], at=4.0, until=60.0)
        delivered = []
        monitor.subscribe(delivered.append)
        monitor.start()
        build.network.run(30.0)
        delivered += [monitor.current_report("S1<->S2") for _ in range(3)]
        assert monitor.health.state("S2") is HealthState.DEAD
        assert len(delivered) == monitor.reports_emitted + 3
        value = monitor.telemetry.registry.value
        assert value("report_staleness_seconds")["count"] == sum(
            r.freshness is not None for r in delivered
        )
        unavailable = sum(r.unavailable for r in delivered)
        degraded = sum(r.degraded and not r.unavailable for r in delivered)
        assert unavailable > 0 and degraded > 0
        assert value("reports_unavailable_total") == unavailable
        assert value("reports_degraded_total") == degraded
        # The dead agent's pairs went degraded in the matrix too; that is
        # the publisher's PathDegraded to tell, not a report-status event.
        changes = monitor.telemetry.events.events(REPORT_STATUS)
        assert {e.attrs["path"] for e in changes} == {"S1<->S2"}


class TestTelemetryCli:
    def test_default_testbed_text_output(self, capsys):
        assert main(["telemetry", "--until", "20"]) == 0
        out = capsys.readouterr().out
        assert "SNMP round-trip time per agent" in out
        assert "Poll cycle duration" in out
        assert "Event counts:" in out
        assert "qos_violation" in out
        assert "health_transition" in out
        assert "--- Prometheus export ---" in out
        assert "# TYPE poll_cycle_seconds summary" in out

    def test_prometheus_format(self, capsys):
        assert main(["telemetry", "--until", "10", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP")
        assert "snmp_rtt_seconds_count" in out

    def test_json_format(self, capsys):
        import json

        assert main(["telemetry", "--until", "10", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "metrics" in data and "events" in data and "spans" in data

    def test_qos_flag_wires_middleware(self, capsys):
        code = main([
            "telemetry", "--until", "30",
            "--load", "L:N1:600:5:25",
            "--qos", "S1:N1:1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "qos_violation: " in out
        violations = [
            line for line in out.splitlines() if "qos_violation:" in line
        ]
        assert violations and not violations[0].strip().endswith(": 0")

    def test_spec_file_requires_host(self, tmp_path, capsys):
        spec = tmp_path / "x.net"
        spec.write_text(
            'network topology t { host A { snmp community "public"; }\n'
            'host B { snmp community "public"; }\n'
            "switch s { ports 4; }\n"
            "connect A.eth0 <-> s.port1; connect B.eth0 <-> s.port2; }"
        )
        assert main(["telemetry", str(spec)]) == 2
        assert main([
            "telemetry", str(spec), "--host", "A", "--watch", "A:B",
            "--until", "10",
        ]) == 0

    def test_malformed_qos(self, capsys):
        assert main(["telemetry", "--qos", "S1:N1"]) == 2
