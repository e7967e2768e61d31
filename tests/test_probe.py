"""Tests for repro.probe: trains, stats, scheduling, cross-validation."""

import numpy as np
import pytest

from repro import NetworkMonitor, build_network, parse_spec
from repro.experiments.scale import scale_spec
from repro.experiments.testbed import build_testbed
from repro.probe import (
    PROBE_PORT,
    PROBE_TOS,
    ProbeError,
    ProbeTrain,
    dispersion_bps,
    interarrival_jitter,
    mean_abs_consecutive,
    sequence_loss,
)
from repro.probe.crossval import BREACH_COUNT
from repro.probe.scheduler import ACTIVE_DISAGREEMENTS
from repro.simnet.faults import AgentOutage, PacketLoss, SpeedMisreport
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule
from repro.telemetry.events import (
    PROBE_DISAGREEMENT,
    PROBE_RECOVERED,
    PROBE_TRAIN_COMPLETED,
)

# The spec for the unmetered-bottleneck scenarios: an agentless switch
# (sw2) hides a hub pocket from every SNMP counter, so cross-traffic
# between N2 and N1 is invisible to the passive plane.
HUBDEMO_SPEC = """
network topology hubdemo {
    host L  { snmp community "public"; }
    host S1 { snmp community "public"; }
    host N1 { interface el0 { speed 10 Mbps; } }
    host N2 { interface el0 { speed 10 Mbps; } }
    switch sw1 { snmp community "public"; ports 4; }
    switch sw2 { ports 4; }
    hub hb { ports 4; }
    connect L.eth0 <-> sw1.port1;
    connect S1.eth0 <-> sw1.port2;
    connect sw1.port3 <-> sw2.port1;
    connect sw2.port2 <-> hb.port1;
    connect N1.el0 <-> hb.port2;
    connect N2.el0 <-> hb.port3;
}
"""

HUB_BYTES = 1.25e6  # the 10 Mb/s hub pocket, in bytes/s


def probed_testbed(watches=(("S1", "N1"),), **options):
    build = build_testbed()
    monitor = NetworkMonitor(build, "L", poll_interval=2.0)
    for src, dst in watches:
        monitor.watch_path(src, dst)
    prober = monitor.enable_probing(**options)
    return build, monitor, prober


def probed_hubdemo(**options):
    build = build_network(parse_spec(HUBDEMO_SPEC))
    monitor = NetworkMonitor(build, "L", poll_interval=2.0)
    monitor.watch_path("S1", "N1")
    prober = monitor.enable_probing(**options)
    return build, monitor, prober


# ----------------------------------------------------------------------
# Shared statistics helpers
# ----------------------------------------------------------------------
class TestStats:
    def test_jitter_zero_for_constant_transit(self):
        assert interarrival_jitter([0.01] * 10) == 0.0

    def test_jitter_rfc3550_recursion(self):
        # J += (|D| - J) / 16 with D the transit difference.
        transits = [0.010, 0.012, 0.010]
        j1 = 0.002 / 16.0
        j2 = j1 + (0.002 - j1) / 16.0
        assert interarrival_jitter(transits) == pytest.approx(j2)

    def test_jitter_needs_two_transits(self):
        assert interarrival_jitter([]) == 0.0
        assert interarrival_jitter([0.5]) == 0.0

    def test_mean_abs_consecutive(self):
        assert mean_abs_consecutive([1.0, 3.0, 2.0]) == pytest.approx(1.5)
        assert mean_abs_consecutive([4.2]) == 0.0

    def test_sequence_loss_counts_gaps(self):
        loss, gaps = sequence_loss(8, [0, 1, 3, 4, 5])
        assert loss == pytest.approx(3.0 / 8.0)
        assert gaps == 1  # seq 2 is missing *below* the highest received

    def test_sequence_loss_tail_is_not_a_gap(self):
        loss, gaps = sequence_loss(4, [0, 1])
        assert loss == pytest.approx(0.5)
        assert gaps == 0

    def test_sequence_loss_nothing_received(self):
        loss, gaps = sequence_loss(5, [])
        assert loss == 1.0 and gaps == 0

    def test_dispersion(self):
        assert dispersion_bps([0.0, 0.001, 0.002], 1500) == pytest.approx(1.5e6)
        assert np.isnan(dispersion_bps([0.1], 1500))
        assert np.isnan(dispersion_bps([0.1, 0.1], 1500))


# ----------------------------------------------------------------------
# Probe trains
# ----------------------------------------------------------------------
class TestProbeTrain:
    def test_idle_path_measures_bottleneck_capacity(self):
        build = build_testbed()
        net = build.network
        done = []
        train = ProbeTrain(
            net.host("S1"), net.host("N1"), on_complete=done.append
        )
        train.start()
        net.run(2.0)
        assert len(done) == 1
        report = done[0]
        assert report.complete and report.delivered
        assert report.loss_rate == 0.0 and report.gaps == 0
        assert report.achievable_bps == pytest.approx(HUB_BYTES, rel=0.05)
        assert report.duration_s > 0.0
        assert report.delay_mean_s > 0.0

    def test_early_completion_beats_timeout(self):
        build = build_testbed()
        net = build.network
        done = []
        ProbeTrain(
            net.host("S1"), net.host("N1"), timeout=30.0, on_complete=done.append
        ).start()
        net.run(1.0)  # far less than the timeout
        assert len(done) == 1 and done[0].complete

    def test_a_probe_nobody_waits_for_is_dropped(self):
        """A straggler of a reduced train, or a train id the sink never
        saw, is counted and not filed: nothing would ever collect it."""
        build = build_testbed()
        net = build.network
        done = []
        train = ProbeTrain(net.host("S1"), net.host("N1"), on_complete=done.append)
        train.start()
        net.run(2.0)
        assert len(done) == 1 and train.sink._records == {}
        packets = train.sink.packets
        sock = net.host("S1").create_socket()
        for train_id in (train.train_id, 2**32 - 1):  # reduced, unknown
            header = train_id.to_bytes(4, "big") + bytes(12)
            sock.sendto(header, (net.host("N1").primary_ip, PROBE_PORT))
        net.run(3.0)
        assert train.sink.packets == packets + 2
        assert train.sink._records == {}

    def test_probe_traffic_separable_by_tos(self):
        build = build_testbed()
        net = build.network
        load = StaircaseLoad(
            net.host("S1"),
            net.host("N1").primary_ip,
            StepSchedule.pulse(0.0, 1.0, 300_000.0),
        )
        load.start()
        ProbeTrain(net.host("S1"), net.host("N1")).start()
        net.run(2.0)
        iface = net.host("S1").interfaces[0]
        tos_out = iface.tos_out_octets
        assert tos_out.get(PROBE_TOS, 0) > 0
        # Only marked classes are counted; best effort is the remainder.
        best_effort = iface.counters.out_octets - sum(tos_out.values())
        assert 0 not in tos_out and best_effort > 0
        # Workload dwarfs a single 24 KB train at these rates.
        assert best_effort > tos_out[PROBE_TOS]

    def test_parameter_validation(self):
        build = build_testbed()
        a, b = build.network.host("S1"), build.network.host("N1")
        with pytest.raises(ProbeError):
            ProbeTrain(a, b, count=1)
        with pytest.raises(ProbeError):
            ProbeTrain(a, b, payload_size=8)
        with pytest.raises(ProbeError):
            ProbeTrain(a, b, count=3)  # two warm-up, one measured
        with pytest.raises(ProbeError):
            ProbeTrain(a, b, timeout=0.0)


# ----------------------------------------------------------------------
# Scheduler: budget, fairness, lifecycle
# ----------------------------------------------------------------------
class TestScheduler:
    def test_round_interval_enforces_budget(self):
        _, _, prober = probed_testbed()
        # train_bytes / (budget * narrowest) for the 10 Mb/s hub leg.
        assert prober.train_bytes == 16 * 1500
        expected = prober.train_bytes / (0.02 * HUB_BYTES)
        prober_interval = prober.required_interval("S1<->N1")
        assert prober_interval == pytest.approx(expected)

    def test_probe_load_stays_within_budget(self):
        build, monitor, prober = probed_testbed()
        net = build.network
        monitor.start()
        net.run(40.0)
        probe_octets = net.host("S1").interfaces[0].tos_out_octets[PROBE_TOS]
        # Framing overhead (Ethernet headers) rides on top of the IP-level
        # budget arithmetic; allow it, but nothing more.
        assert probe_octets / 40.0 <= 0.02 * HUB_BYTES * 1.10

    def test_round_robin_is_fair(self):
        build, monitor, prober = probed_testbed(
            watches=(("S1", "N1"), ("S1", "N2"), ("L", "N1"))
        )
        monitor.start()
        build.network.run(40.0)
        counts = prober.stats()["trains_per_path"]
        assert len(counts) == 3
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_degraded_paths_get_priority(self):
        build, monitor, prober = probed_testbed(
            watches=(("S1", "N1"), ("S1", "S2"))
        )
        # N1's agent dies: S1<->N1 goes stale/degraded and should draw
        # probe rounds away from the healthy S1<->S2 path.
        outage = AgentOutage(build.network.sim, build.agents["N1"], at=6.0, until=40.0)
        outage.events = monitor.telemetry.events
        monitor.start()
        build.network.run(40.0)
        counts = prober.stats()["trains_per_path"]
        assert counts["S1<->N1"] > counts["S1<->S2"]

    def test_pick_sequence_equals_report_building_formulation(self):
        """The pick reads ``(confidence, degraded)`` off the bound entries
        instead of building a report per watch per round; the rounds it
        hands out must be the ones the report-building pick handed out."""

        class Ledger(dict):
            def __init__(self):
                self.order = []

            def __setitem__(self, label, when):
                self.order.append((label, when))
                super().__setitem__(label, when)

        def run(report_building):
            build = build_network(
                scale_spec(switches=4, hosts_per_switch=3, arity=1, redundant_uplinks=1)
            )
            monitor = NetworkMonitor(build, "h0_0", poll_jitter=0.0)
            for a, b in (("h0_1", "h3_0"), ("h1_0", "h2_0"), ("h0_2", "h2_1"), ("h1_1", "h3_1")):
                monitor.watch_path(a, b)
            prober = monitor.enable_probing()
            prober._last_probed = ledger = Ledger()
            if report_building:  # the pick as it was before watch_trust

                def needs_attention(label):
                    if label in prober.validator.active:
                        return True
                    report = monitor.current_report(label)
                    return report.degraded or report.confidence < prober.priority_confidence

                prober._needs_attention = needs_attention
            # h3_0 answers no more polls: its watch ages into degraded,
            # then its agent is DEAD and the watch unavailable.
            AgentOutage(build.network.sim, build.agents["h3_0"], at=3.0, until=60.0)
            monitor.start()
            build.network.run(2.5 + 12 * 2.0)  # DEAD for the last two cycles
            assert monitor.health.state("h3_0").value == "dead"
            return prober.stats()["trains_per_path"], ledger.order

        trains, order = run(report_building=False)
        assert (trains, order) == run(report_building=True)
        assert len(order) > 40 and len(trains) == 4
        assert trains["h0_1<->h3_0"] > max(
            n for label, n in trains.items() if label != "h0_1<->h3_0"
        )

    def test_enable_probing_is_idempotent(self):
        _, monitor, prober = probed_testbed()
        assert monitor.enable_probing() is prober

    @pytest.mark.parametrize(
        "options", [{"count": 1}, {"payload_size": 8}, {"count": 3}, {"timeout": 0.0}]
    )
    def test_a_train_that_cannot_be_built_is_refused_at_the_call(self, options):
        """Not at the first probe round, out of ``network.run``."""
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_interval=2.0)
        monitor.watch_path("S1", "N1")
        with pytest.raises(ProbeError):
            monitor.enable_probing(**options)
        assert monitor.prober is None

    def test_start_requires_watches(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_interval=2.0)
        monitor.enable_probing()
        with pytest.raises(ProbeError):
            monitor.prober.start()

    def test_stats_expose_probe_counters(self):
        build, monitor, _ = probed_testbed()
        monitor.start()
        build.network.run(20.0)
        stats = monitor.stats()
        assert stats["probe_trains"] > 0
        assert stats["probe_packets_sent"] >= 16 * stats["probe_trains"] - 16
        assert stats["probe_bytes_sent"] > 0
        assert stats["probe_disagreements"] == 0
        bus = monitor.telemetry.events
        assert bus.count(PROBE_TRAIN_COMPLETED) == stats["probe_trains"]


# ----------------------------------------------------------------------
# Cross-validation
# ----------------------------------------------------------------------
class TestCrossValidation:
    def test_no_false_disagreements_under_metered_load(self):
        build, monitor, prober = probed_testbed()
        StaircaseLoad(
            build.network.host("L"),
            build.network.host("N1").primary_ip,
            StepSchedule.pulse(10.0, 30.0, 600_000.0),
        ).start()
        monitor.start()
        build.network.run(40.0)
        stats = prober.stats()
        assert stats["comparisons"] > 10
        assert stats["disagreements"] == 0
        assert monitor.stats()["probe_disagreements"] == 0
        report = monitor.current_report("S1<->N1")
        assert report.confidence == 1.0 and not report.degraded

    def test_unmetered_hub_bottleneck_is_localized(self):
        build, monitor, prober = probed_hubdemo()
        net = build.network
        # Cross-traffic entirely inside the agentless hub pocket.
        StaircaseLoad(
            net.host("N2"),
            net.host("N1").primary_ip,
            StepSchedule.pulse(8.0, 40.0, 1_000_000.0),
        ).start()
        monitor.start()
        net.run(40.0)
        findings = prober.findings()
        assert len(findings) == 1
        finding = findings[0]
        assert finding.cause == "unmetered_segment"
        assert "hb" in finding.blamed
        assert finding.direction == "below"
        assert finding.probe_bps < finding.passive_bps
        # The disputed path's reports carry the confidence cap.
        report = monitor.current_report("S1<->N1")
        assert report.confidence == pytest.approx(0.4)
        assert report.degraded

    def test_detection_within_three_probe_rounds(self):
        build, monitor, prober = probed_hubdemo()
        net = build.network
        load_start = 10.0
        StaircaseLoad(
            net.host("N2"),
            net.host("N1").primary_ip,
            StepSchedule.pulse(load_start, 60.0, 1_000_000.0),
        ).start()
        monitor.start()
        net.run(60.0)
        bus = monitor.telemetry.events
        first = next(iter(bus.events(PROBE_DISAGREEMENT)))
        # Debounce is breach_count=2 rounds; allow one round of slack for
        # the passive plane's own polling latency.
        assert first.time - load_start <= 3 * prober.round_interval + 2.0

    def test_speed_misreport_liar_is_quarantined(self):
        build, monitor, prober = probed_testbed(watches=(("S1", "S2"),))
        net = build.network
        # The liar: S1's NIC negotiated 10 Mb/s, its agent claims the
        # spec's 100 Mb/s.  Passive speed validation sees claimed == spec
        # and stays quiet; only the wire knows.
        iface = net.host("S1").interfaces[0]
        link = iface.link
        iface.speed_bps = 10e6
        for end in (link.end_a, link.end_b):
            link.channel_from(end).bandwidth_bps = 10e6
        link.bandwidth_bps = 10e6
        SpeedMisreport(
            net.sim, build.agents["S1"], if_index=1, claimed_bps=100_000_000,
            at=0.0, events=monitor.telemetry.events,
        )
        monitor.start()
        net.run(30.0)
        # Passive integrity alone never fires: the claim matches the spec.
        assert monitor.stats()["integrity_violations"] == 0
        causes = {
            e.attrs["cause"]
            for e in monitor.telemetry.events.events(PROBE_DISAGREEMENT)
        }
        assert "quarantine_candidate_agent" in causes
        assert monitor.integrity.is_quarantined("S1", 1)
        report = monitor.current_report("S1<->S2")
        assert report.confidence <= 0.4

    def test_recovery_lifts_confidence_cap(self):
        build, monitor, prober = probed_hubdemo()
        net = build.network
        StaircaseLoad(
            net.host("N2"),
            net.host("N1").primary_ip,
            StepSchedule.pulse(8.0, 22.0, 1_000_000.0),
        ).start()
        monitor.start()
        net.run(45.0)
        assert monitor.stats()["probe_recoveries"] >= 1
        assert monitor.telemetry.events.count(PROBE_RECOVERED) >= 1
        assert prober.findings() == []
        report = monitor.current_report("S1<->N1")
        assert report.confidence == 1.0

    def test_unwatching_forgets_the_finding(self):
        """A finding lives no longer than its watch: once ``S1<->N1`` is
        unwatched, neither the findings, the stats nor the gauge name it."""
        build, monitor, prober = probed_hubdemo()
        net = build.network
        StaircaseLoad(
            net.host("N2"),
            net.host("N1").primary_ip,
            StepSchedule.pulse(8.0, 60.0, 1_000_000.0),
        ).start()
        monitor.start()
        net.run(30.0)
        gauge = lambda: monitor.telemetry.registry.value(ACTIVE_DISAGREEMENTS)  # noqa: E731
        assert len(prober.findings()) == 1 and gauge() == 1.0
        monitor.unwatch_path("S1<->N1")
        net.run(40.0)  # the flood goes on
        assert prober.findings() == []
        stats = prober.stats()
        assert stats["active_disagreements"] == [] and stats["in_doubt"] == {}
        assert gauge() == 0.0
        assert prober.confidence_cap_for("S1<->N1") is None

    def test_disagreement_reaches_stream_subscribers(self):
        from repro.stream import ProbeDisagreement

        build, monitor, prober = probed_hubdemo()
        net = build.network
        monitor.enable_streaming()
        subscription = monitor.stream.manager.subscribe(
            "ops", pairs=[("S1", "N1")]
        )
        StaircaseLoad(
            net.host("N2"),
            net.host("N1").primary_ip,
            StepSchedule.pulse(8.0, 40.0, 1_000_000.0),
        ).start()
        monitor.start()
        net.run(40.0)
        events = [
            e for e in subscription.drain() if isinstance(e, ProbeDisagreement)
        ]
        assert events
        event = events[0]
        assert event.cause == "unmetered_segment"
        assert event.pair == ("N1", "S1")
        assert "PROBE DISAGREES" in str(event)


# ----------------------------------------------------------------------
# Cadence: the budget while a watch is in doubt, one train per report else
# ----------------------------------------------------------------------
class TestDoubtCadence:
    """A watch passive SNMP fully accounts for gets one train per poll
    interval; one in doubt gets the budget's round interval."""

    # The ledger's mesh_flat topology and the pick guard's four watches.
    MESH_WATCHES = (("h0_1", "h5_0"), ("h1_0", "h4_0"), ("h2_0", "h3_0"), ("h0_2", "h3_1"))

    @staticmethod
    def completions(monitor, since=0.0):
        return [
            e for e in monitor.telemetry.events.events(PROBE_TRAIN_COMPLETED)
            if e.time >= since
        ]

    def test_a_metered_mesh_gets_one_train_per_watch_per_report(self):
        build = build_network(
            scale_spec(switches=6, hosts_per_switch=6, arity=1, redundant_uplinks=1)
        )
        monitor = NetworkMonitor(build, "h0_0", poll_jitter=0.0)
        for a, b in self.MESH_WATCHES:
            monitor.watch_path(a, b)
        prober = monitor.enable_probing()
        monitor.start()
        net = build.network
        net.run(10.0)
        assert prober.in_doubt == {}
        before = dict(prober.stats()["trains_per_path"])
        rounds = prober.rounds
        cycles = 10
        net.run(10.0 + cycles * monitor.poll_interval)
        after = prober.stats()["trains_per_path"]
        assert {label: after[label] - before[label] for label in after} == {
            label: cycles for label in monitor.watched_paths()
        }
        assert prober.rounds - rounds <= cycles * (len(self.MESH_WATCHES) + 1)
        assert prober.in_doubt == {}
        assert prober.stats()["disagreements"] == 0

    def test_an_unmetered_watch_keeps_the_budget_cadence(self):
        # No counter observes the hub pocket: every round is in doubt, so
        # the watch gets the trains it got when every round probed.
        build, monitor, prober = probed_hubdemo()
        monitor.start()
        build.network.run(40.0)
        stats = prober.stats()
        assert stats["in_doubt"] == {"S1<->N1": "unmetered"}
        assert stats["trains_started"] == 39
        assert stats["rounds_skipped"] == 0

    def test_a_degraded_watch_takes_the_budget_cadence(self):
        build, monitor, prober = probed_testbed(watches=(("S1", "N1"), ("S1", "S2")))
        AgentOutage(build.network.sim, build.agents["N1"], at=6.0, until=60.0)
        monitor.start()
        net = build.network
        net.run(20.0)
        assert prober.in_doubt == {"S1<->N1": "degraded"}
        rounds, skipped = prober.rounds, prober.rounds_skipped
        net.run(30.0)
        assert prober.in_doubt == {"S1<->N1": "degraded"}
        # Every round of the budget sends a train ...
        assert prober.rounds - rounds >= 10.0 / prober.round_interval - 1
        assert prober.rounds_skipped == skipped
        # ... and the healthy watch still gets its one per report, at the
        # first round after it falls due; the degraded one gets the rest.
        healthy = [
            e.time for e in self.completions(monitor, since=20.0)
            if e.attrs["path"] == "S1<->S2"
        ]
        gaps = [b - a for a, b in zip(healthy, healthy[1:])]
        assert len(healthy) >= 3
        assert all(
            monitor.poll_interval - 0.01 <= gap < monitor.poll_interval + prober.round_interval
            for gap in gaps
        )

    def test_a_liar_on_a_metered_path_is_found_a_report_and_two_rounds_after_onset(self):
        build, monitor, prober = probed_testbed(watches=(("S1", "S2"),))
        net = build.network
        SpeedMisreport(
            net.sim, build.agents["S1"], if_index=1, claimed_bps=100_000_000,
            at=0.0, events=monitor.telemetry.events,
        )
        monitor.start()
        net.run(12.0)
        assert prober.in_doubt == {}
        # The NIC falls back to 10 Mb/s just after a train: the next one
        # is a whole poll interval away, the worst case for the onset.
        net.run(self.completions(monitor)[-1].time + monitor.poll_interval + 0.05)
        onset = net.now
        iface = net.host("S1").interfaces[0]
        link = iface.link
        iface.speed_bps = 10e6
        for end in (link.end_a, link.end_b):
            link.channel_from(end).bandwidth_bps = 10e6
        link.bandwidth_bps = 10e6
        net.run(onset + 3 * monitor.poll_interval)
        first = next(iter(monitor.telemetry.events.events(PROBE_DISAGREEMENT)))
        assert first.attrs["cause"] == "quarantine_candidate_agent"
        # One poll interval to the first train that sees it; its streak
        # brings the confirming train one round interval later.
        assert first.time - onset <= monitor.poll_interval + 2 * prober.round_interval
        assert prober.in_doubt == {"S1<->S2": "disagreement"}

    def test_a_lossy_train_keeps_its_watch_at_the_budget_cadence(self):
        build, monitor, prober = probed_testbed()
        net = build.network
        monitor.start()
        net.run(12.0)
        # Drop every frame on the hub leg across the next train's launch,
        # and nothing before or after it.
        net.run(self.completions(monitor)[-1].time + monitor.poll_interval - 0.1)
        start = net.now
        loss = PacketLoss(net.host("N1").interfaces[0].link, loss_rate=1.0)
        net.run(start + 0.15)
        loss.loss_rate = 0.0
        net.run(start + 10.0)
        done = self.completions(monitor, since=start)
        assert done[0].attrs["loss_rate"] == 1.0
        assert all(e.attrs["loss_rate"] == 0.0 for e in done[1:])
        gaps = [b.time - a.time for a, b in zip(done, done[1:])]
        # The BREACH_COUNT trains after the lossy one follow at the budget
        # cadence; the one after them is a poll interval later.
        assert all(gap <= prober.round_interval + 0.01 for gap in gaps[:BREACH_COUNT])
        assert gaps[BREACH_COUNT] == pytest.approx(monitor.poll_interval, abs=0.01)


class TestTheBudgetFollowsTheLink:
    """ROADMAP item 18(d): a watch in doubt is probed at the cadence its
    last train says the link carries, not its spec speed."""

    def test_a_link_below_its_spec_speed_carries_its_budget_and_no_more(self):
        """The speed-misreport rig: S1's NIC negotiated 10 Mb/s, the spec
        says 100.  Sized by the spec, the disputed watch's trains took
        0.1997 of that link over 10-30 s, ten times the 0.02 budget.
        The share is read from the end of one train to the end of
        another, so a window's edge cuts no train in two."""
        build, monitor, prober = probed_testbed(watches=(("S1", "S2"),))
        net = build.network
        iface = net.host("S1").interfaces[0]
        link = iface.link
        iface.speed_bps = 10e6
        for end in (link.end_a, link.end_b):
            link.channel_from(end).bandwidth_bps = 10e6
        link.bandwidth_bps = 10e6
        SpeedMisreport(
            net.sim, build.agents["S1"], if_index=1, claimed_bps=100_000_000,
            at=0.0, events=monitor.telemetry.events,
        )
        ends = []  # (time, probe octets S1 has sent) as each train completes
        on_done = prober._on_done
        prober._on_done = lambda label, report: (
            ends.append((net.now, iface.tos_out_octets.get(PROBE_TOS, 0))),
            on_done(label, report),
        )
        monitor.start()
        net.run(30.0)
        (t0, sent0), *_, (t1, sent1) = [end for end in ends if end[0] >= 10.0]
        share = (sent1 - sent0) / ((t1 - t0) * 10e6 / 8.0)
        assert prober.in_doubt == {"S1<->S2": "disagreement"}
        assert t1 - t0 > 15.0 and 0 < share <= prober.budget_fraction, share
