"""The resilience acceptance scenario: combined faults on the paper testbed.

Under ``AgentOutage`` + ``AgentReboot`` + ``PacketLoss`` the monitor must
keep emitting a report every cycle, mark the affected paths degraded or
unavailable while the faults are active (never serving stale rates as
fresh), and return every agent to HEALTHY with fresh reports within a
bounded number of cycles after the faults clear.
"""

import math
import os

import pytest

from repro.core.distributed import DistributedMonitor
from repro.core.health import HealthState
from repro.core.monitor import NetworkMonitor
from repro.core.report import PathReport
from repro.experiments.testbed import build_testbed
from repro.rm.detector import QosState, ViolationDetector
from repro.rm.qos import QosRequirement
from repro.simnet.faults import (
    AgentOutage,
    AgentReboot,
    CounterCorruption,
    LinkFailure,
    PacketLoss,
)
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.spec.parser import parse_spec
from repro.telemetry.events import QUARANTINE_ENTER

POLL = 2.0
FAULTS_CLEAR = 30.0  # all three faults are over by here
END = 70.0


def uplink(build):
    """The switch<->hub link (the only path to the NT machines)."""
    hub = build.network.device("hub")
    switch_ifaces = set(build.network.device("switch").interfaces)
    for iface in hub.interfaces:
        if iface.link is not None:
            others = [ep for ep in iface.link.endpoints if ep is not iface]
            if any(ep in switch_ifaces for ep in others):
                return iface.link
    raise AssertionError("testbed has no switch<->hub link")


@pytest.fixture(scope="module")
def chaos_run():
    build = build_testbed()
    net = build.network
    monitor = NetworkMonitor(build, "L", poll_interval=POLL, poll_jitter=0.0)
    s1_label = monitor.watch_path("S1", "S2")
    n1_label = monitor.watch_path("N1", "L")

    reports = {s1_label: [], n1_label: []}
    monitor.subscribe(lambda r: reports[r.label].append(r))

    # S1's daemon crashes for 20 s; N1's host reboots (counters + sysUpTime
    # reset); the hub uplink sheds 30% of frames until t=30.
    AgentOutage(net.sim, build.agents["S1"], at=6.0, until=28.0)
    AgentReboot(net.sim, build.agents["N1"], at=10.0, outage=3.0)
    loss = PacketLoss(uplink(build), loss_rate=0.3, seed=7)
    net.sim.schedule_at(FAULTS_CLEAR, lambda: setattr(loss, "loss_rate", 0.0))

    monitor.start()
    net.run(END)
    return build, monitor, reports, s1_label, n1_label


class TestChaosScenario:
    def test_reports_every_cycle(self, chaos_run):
        build, monitor, reports, s1_label, n1_label = chaos_run
        for label, series in reports.items():
            # One report per poll cycle from start to END, no gaps.
            assert len(series) >= int(END / POLL) - 2, label
            gaps = [b.time - a.time for a, b in zip(series, series[1:])]
            assert all(g == pytest.approx(POLL) for g in gaps), label

    def test_stale_is_never_served_as_fresh(self, chaos_run):
        build, monitor, reports, *_ = chaos_run
        for series in reports.values():
            for report in series:
                if report.freshness is not None and report.freshness > monitor.stale_after:
                    assert report.degraded or report.unavailable, report.summary()
                if report.unavailable:
                    assert math.isnan(report.available_bps)

    def test_dead_agent_path_goes_unavailable_then_recovers(self, chaos_run):
        build, monitor, reports, s1_label, _ = chaos_run
        outage = [r for r in reports[s1_label] if 6.0 < r.time < 28.0]
        assert any(r.degraded for r in outage)
        assert any(r.unavailable for r in outage)
        # Bounded recovery: within 5 cycles of the fault clearing the path
        # must be fully trusted again, and stay that way.
        settled = [r for r in reports[s1_label] if r.time >= FAULTS_CLEAR + 5 * POLL]
        assert settled
        assert all(r.status == "fresh" and r.confidence == 1.0 for r in settled)

    def test_reboot_detected_not_reported_as_spike(self, chaos_run):
        build, monitor, reports, _, n1_label = chaos_run
        assert monitor.stats()["agent_restarts"] >= 1
        # A counter reset re-baselines; it must never produce an absurd
        # rate (the raw delta would look like a 4 GB wrap).
        for report in reports[n1_label]:
            if report.unavailable:
                continue
            for m in report.connections:
                if m.used_bps is not None:
                    assert m.used_bps < 10e6  # 10 MB/s >> anything offered

    def test_all_agents_healthy_after_faults_clear(self, chaos_run):
        build, monitor, *_ = chaos_run
        assert all(
            state is HealthState.HEALTHY
            for state in monitor.health.states().values()
        )
        stats = monitor.stats()
        assert stats["agents_dead"] == 0
        assert stats["poll_timeout_errors"] > 0  # the faults really bit
        assert stats["polls_suppressed"] > 0  # the breaker really opened

    def test_detector_reports_unavailable_as_violation(self, chaos_run):
        """Replaying the chaos reports through the RM detector yields a
        violation whose reason names the unavailable measurement."""
        build, monitor, reports, s1_label, _ = chaos_run
        requirement = QosRequirement(
            name="s1s2", src="S1", dst="S2", min_available_bps=1.0
        )
        detector = ViolationDetector(requirement, breach_count=2, clear_count=2)
        for report in reports[s1_label]:
            detector.offer(report)
        violations = [e for e in detector.events if e.state is QosState.VIOLATED]
        assert violations
        assert any("unavailable" in (e.reason or "") for e in violations)
        assert detector.state is QosState.OK  # cleared after recovery


@pytest.fixture(scope="module")
def mixed_integrity_run():
    """Reboot + counter corruption + packet loss, all at once.

    N1 reboots (honest counter reset), S1's agent serves corrupted
    counters (dishonest data), and the hub uplink drops 20% of frames
    (absent data).  The integrity pipeline must separate the three: the
    reboot re-baselines without quarantine, the corruption quarantines
    S1, and no quarantined interface may ever contribute to a report the
    monitor presents as trusted.
    """
    build = build_testbed()
    net = build.network
    monitor = NetworkMonitor(build, "L", poll_interval=POLL, poll_jitter=0.0)
    labels = [
        monitor.watch_path("S1", "S2"),
        monitor.watch_path("N1", "L"),
        monitor.watch_path("S4", "S5"),
    ]
    reports = {label: [] for label in labels}
    monitor.subscribe(lambda r: reports[r.label].append(r))

    AgentReboot(net.sim, build.agents["N1"], at=8.0, outage=3.0)
    CounterCorruption(
        net.sim, build.agents["S1"], at=10.0, until=26.0, seed=3,
        events=monitor.telemetry.events,
    )
    loss = PacketLoss(uplink(build), loss_rate=0.2, seed=11)
    net.sim.schedule_at(FAULTS_CLEAR, lambda: setattr(loss, "loss_rate", 0.0))

    monitor.start()
    net.run(END)
    return build, monitor, reports


class TestMixedIntegrityChaos:
    def test_corruption_quarantines_only_the_liar(self, mixed_integrity_run):
        build, monitor, reports = mixed_integrity_run
        entries = monitor.telemetry.events.events(QUARANTINE_ENTER)
        assert entries and {e.attrs["node"] for e in entries} == {"S1"}
        # The honest reboot was recognised as a restart, not corruption.
        assert monitor.stats()["agent_restarts"] >= 1
        assert ("N1", 1) not in [
            (e.attrs["node"], e.attrs["if_index"]) for e in entries
        ]

    def test_no_quarantined_interface_feeds_a_trusted_report(
        self, mixed_integrity_run
    ):
        """The acceptance property: trusted => nothing quarantined in it."""
        build, monitor, reports = mixed_integrity_run
        quarantined_spans = {}  # node -> [enter, exit) times
        bus = monitor.telemetry.events
        for e in bus.events(QUARANTINE_ENTER):
            quarantined_spans.setdefault(e.attrs["node"], []).append(e.time)
        assert quarantined_spans  # the scenario really quarantined someone
        for series in reports.values():
            for report in series:
                if report.trusted:
                    assert not report.any_quarantined, report.summary()
                    assert not report.quarantined_connections
                for m in report.connections:
                    # A measurement flagged quarantined must drag the
                    # whole report out of the trusted state.
                    if m.quarantined:
                        assert not report.trusted

    def test_affected_path_flagged_while_corruption_active(
        self, mixed_integrity_run
    ):
        build, monitor, reports = mixed_integrity_run
        s1_reports = reports["S1<->S2"]
        during = [r for r in s1_reports if 14.0 < r.time < 26.0]
        assert during
        assert all(not r.trusted for r in during)
        assert any(r.any_quarantined for r in during)

    def test_everything_recovers_after_faults_clear(self, mixed_integrity_run):
        build, monitor, reports = mixed_integrity_run
        assert monitor.integrity.quarantined_keys() == []
        for label, series in reports.items():
            settled = [r for r in series if r.time >= FAULTS_CLEAR + 10 * POLL]
            assert settled, label
            assert all(r.trusted for r in settled), label
        assert all(
            state is HealthState.HEALTHY
            for state in monitor.health.states().values()
        )


class TestUnavailableReportPolicy:
    def report(self, **kw):
        return PathReport(src="A", dst="A", time=0.0, connections=(), **kw)

    def test_unavailable_never_satisfies(self):
        req = QosRequirement(name="r", src="A", dst="A", min_available_bps=0.0)
        bad = self.report(unavailable=True, confidence=0.0, freshness=12.0)
        reason = req.violation_reason(bad)
        assert reason is not None and "unavailable" in reason
        assert "12.0s" in reason

    def test_unavailable_with_no_data_ever(self):
        req = QosRequirement(name="r", src="A", dst="A", min_available_bps=0.0)
        bad = self.report(unavailable=True, confidence=0.0)
        assert "no data ever" in req.violation_reason(bad)

    def test_degraded_report_still_evaluated(self):
        req = QosRequirement(name="r", src="A", dst="A", min_available_bps=0.0)
        ok = self.report(degraded=True, confidence=0.5, freshness=6.0)
        assert req.violation_reason(ok) is None


# ----------------------------------------------------------------------
# UplinkFailover: the self-healing topology acceptance scenario
# ----------------------------------------------------------------------
# Replay a specific run with REPRO_CHAOS_SEED=<n> (CI sets it so a
# failing seed is reproducible from the workflow log).
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

UPLINK_FAILOVER_SPEC = """
network topology uplink_failover {
    host A { snmp community "public"; }
    host B { snmp community "public"; }
    host C { snmp community "public"; }
    host D { snmp community "public"; }
    switch sw1 { snmp community "public"; ports 6; stp "on"; }
    switch sw2 { snmp community "public"; ports 6; stp "on"; }
    connect A.eth0 <-> sw1.port1;
    connect C.eth0 <-> sw1.port2;
    connect D.eth0 <-> sw1.port3;
    connect B.eth0 <-> sw2.port1;
    connect sw1.port5 <-> sw2.port5;
    connect sw1.port6 <-> sw2.port6;
}
"""

FAIL_AT = 13.0  # mid-measurement: between a poll and its report


@pytest.fixture(scope="module")
def uplink_failover_run():
    """Kill the active redundant uplink mid-measurement.

    The monitor (topology sync + oper-status tracking on) must move the
    A<->B watch onto the backup uplink within three poll cycles, never
    wedge a stale path memo, and never report a QoS violation on the
    untouched same-switch pair C<->D.
    """
    build = build_network(parse_spec(UPLINK_FAILOVER_SPEC))
    net = build.network
    monitor = NetworkMonitor(
        build, "A", poll_interval=POLL, poll_jitter=0.0, seed=SEED
    )
    monitor.enable_topology_sync()
    monitor.enable_oper_status_tracking()
    ab = monitor.watch_path("A", "B")
    cd = monitor.watch_path("C", "D")
    reports = {ab: [], cd: []}
    monitor.subscribe(lambda r: reports[r.label].append(r))

    # Continuous load across the uplink so the failover happens
    # mid-measurement, plus local traffic on the untouched pair.
    StaircaseLoad(
        net.host("A"), net.ip_of("B"), StepSchedule.pulse(3.0, 37.0, 150 * KBPS)
    )
    StaircaseLoad(
        net.host("C"), net.ip_of("D"), StepSchedule.pulse(3.0, 37.0, 100 * KBPS)
    )
    net.announce_hosts(at=2.0)

    uplinks = [
        conn
        for conn in monitor.spec.connections
        if {conn.end_a.node, conn.end_b.node} == {"sw1", "sw2"}
    ]
    monitor.start(at=2.5)
    net.run(12.9)
    active = next(c for c in uplinks if c in monitor.path_of(ab))
    LinkFailure.between(
        net, "sw1", "sw2", at=FAIL_AT, index=uplinks.index(active),
        events=monitor.telemetry.events,
    )
    net.run(40.0)
    return build, monitor, reports, ab, cd, uplinks, active


class TestUplinkFailover:
    def test_recovers_within_three_poll_cycles(self, uplink_failover_run):
        build, monitor, reports, ab, cd, uplinks, active = uplink_failover_run
        backup = next(c for c in uplinks if c is not active)
        assert backup in monitor.path_of(ab)
        assert active not in monitor.path_of(ab)
        # Every A<->B report from three cycles after the kill onward is
        # fully healthy on the backup path.
        settled = [r for r in reports[ab] if r.time >= FAIL_AT + 3 * POLL]
        assert settled
        for report in settled:
            assert report.status == "fresh", report.summary()
            assert report.available_bps > 0
        assert monitor.stats()["path_reroutes"] == 1

    def test_no_wedged_memos(self, uplink_failover_run):
        build, monitor, reports, ab, cd, uplinks, active = uplink_failover_run
        # The path memo re-resolved: a fresh traversal of the graph and
        # the watch's cached path agree, and neither crosses the dead
        # uplink.
        from repro.core.traversal import find_path

        fresh = find_path(monitor.graph, "A", "B")
        assert fresh == monitor.path_of(ab)
        assert active not in fresh
        # Reports kept flowing every cycle throughout -- no wedged cycle.
        gaps = [
            b.time - a.time for a, b in zip(reports[ab], reports[ab][1:])
        ]
        assert all(g == pytest.approx(POLL) for g in gaps)

    def test_no_false_violations_on_untouched_pair(self, uplink_failover_run):
        build, monitor, reports, ab, cd, uplinks, active = uplink_failover_run
        requirement = QosRequirement(
            name=cd, src="C", dst="D", min_available_bps=1.0
        )
        detector = ViolationDetector(requirement, breach_count=2, clear_count=2)
        for report in reports[cd]:
            detector.offer(report)
        assert not [
            e for e in detector.events if e.state is QosState.VIOLATED
        ]
        # The same-switch pair never even degraded: its measurements
        # never depended on the failed uplink.
        assert all(r.status == "fresh" for r in reports[cd][1:])

    def test_failover_visible_in_events(self, uplink_failover_run):
        build, monitor, *_ = uplink_failover_run
        events = monitor.telemetry.events
        assert events.count("topology_changed") >= 2  # initial block + failover
        assert events.count("path_rerouted") == 1
        assert events.count("fault_injected") >= 1  # the LinkFailure itself


class TestDistributedUplinkFailover:
    def test_watch_follows_the_reroute(self):
        """The same kill under the plane built for scale: a
        ``DistributedMonitor`` with topology sync must move the A<->B
        watch onto the backup uplink within three poll cycles, exactly
        once, without missing a report cycle -- it used to resolve the
        path once from the spec and keep reporting on the dead link."""
        build = build_network(parse_spec(UPLINK_FAILOVER_SPEC))
        net = build.network
        dm = DistributedMonitor(
            build, "A", ["C", "D"], poll_interval=POLL, poll_jitter=0.0, seed=SEED
        )
        assert dm.manager is None  # no coordinator-side SNMP socket...
        dm.enable_topology_sync()
        assert dm.manager is not None  # ...until topology sync needs one
        ab = dm.watch_path("A", "B")
        reports = []
        dm.subscribe(reports.append)
        StaircaseLoad(
            net.host("A"), net.ip_of("B"), StepSchedule.pulse(3.0, 37.0, 150 * KBPS)
        ).start()
        net.announce_hosts(at=2.0)
        uplinks = [
            conn
            for conn in dm.spec.connections
            if {conn.end_a.node, conn.end_b.node} == {"sw1", "sw2"}
        ]
        dm.start(at=2.5)
        net.run(12.9)
        active = next(c for c in uplinks if c in dm.path_of(ab))
        backup = next(c for c in uplinks if c is not active)
        LinkFailure.between(
            net, "sw1", "sw2", at=FAIL_AT, index=uplinks.index(active),
            events=dm.telemetry.events,
        )
        net.run(FAIL_AT + 3 * POLL)
        assert backup in dm.path_of(ab)
        assert active not in dm.path_of(ab)
        net.run(40.0)
        assert dm.stats()["path_reroutes"] == 1
        assert dm.telemetry.events.count("path_rerouted") == 1
        gaps = [b.time - a.time for a, b in zip(reports, reports[1:])]
        assert gaps and all(g == pytest.approx(POLL) for g in gaps)
        assert reports[-1].status == "fresh", reports[-1].summary()
        dm.stop()
