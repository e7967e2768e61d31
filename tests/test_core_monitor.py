"""Integration tests for NetworkMonitor on the Figure-3 testbed."""

import pytest

from repro.core.history import HISTORY_HORIZON_S
from repro.core.monitor import MonitorError, NetworkMonitor
from repro.experiments.testbed import build_testbed
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule


def monitored(poll_interval=2.0, jitter=0.0):
    build = build_testbed()
    monitor = NetworkMonitor(build, "L", poll_interval=poll_interval, poll_jitter=jitter)
    return build, monitor


class TestWatches:
    def test_watch_registers_path(self):
        _, monitor = monitored()
        label = monitor.watch_path("S1", "N1")
        assert label == "S1<->N1"
        assert monitor.watched_paths() == ["S1<->N1"]
        path = monitor.path_of(label)
        assert len(path) == 3  # S1-sw, sw-hub, hub-N1

    def test_duplicate_watch_rejected(self):
        _, monitor = monitored()
        monitor.watch_path("S1", "N1")
        with pytest.raises(MonitorError):
            monitor.watch_path("S1", "N1")

    def test_named_watch(self):
        _, monitor = monitored()
        label = monitor.watch_path("S1", "N1", name="telemetry")
        assert label == "telemetry"

    def test_unwatch(self):
        _, monitor = monitored()
        label = monitor.watch_path("S1", "N1")
        monitor.unwatch_path(label)
        assert monitor.watched_paths() == []
        with pytest.raises(MonitorError):
            monitor.unwatch_path(label)

    def test_targets_cover_snmp_nodes(self):
        _, monitor = monitored()
        nodes = {t.node for t in monitor.poller.targets}
        assert nodes == {"L", "S1", "S2", "N1", "N2", "switch"}


class TestReporting:
    def test_reports_flow_to_history_and_subscribers(self):
        build, monitor = monitored()
        monitor.watch_path("S1", "N1")
        seen = []
        monitor.subscribe(seen.append)
        monitor.start()
        build.network.run(10.0)
        series = monitor.history.series("S1<->N1")
        assert len(series) >= 3
        assert len(seen) == len(series)

    def test_load_visible_in_reports(self):
        build, monitor = monitored()
        label = monitor.watch_path("S1", "N1")
        net = build.network
        StaircaseLoad(
            net.host("L"),
            net.ip_of("N1"),
            StepSchedule([(2.0, 300_000.0), (30.0, 0.0)]),
        ).start()
        monitor.start()
        net.run(30.0)
        used = monitor.history.series(label).used()
        assert used.max() == pytest.approx(300_000 * 1.019, rel=0.05)
        # Available on the hub path tops out at 1.25 MB/s minus the load.
        available = monitor.history.series(label).available()
        assert available.min() == pytest.approx(10e6 / 8 - 300_000 * 1.019, rel=0.06)

    def test_switch_path_isolated_from_hub_load(self):
        build, monitor = monitored()
        hub_label = monitor.watch_path("S1", "N1")
        sw_label = monitor.watch_path("S1", "S2")
        net = build.network
        StaircaseLoad(
            net.host("L"), net.ip_of("N1"), StepSchedule([(2.0, 300_000.0), (30.0, 0.0)])
        ).start()
        monitor.start()
        net.run(30.0)
        assert monitor.history.series(hub_label).used().max() > 250_000
        assert monitor.history.series(sw_label).used().max() < 20_000

    def test_current_report_on_demand(self):
        build, monitor = monitored()
        label = monitor.watch_path("S1", "N1")
        monitor.start()
        build.network.run(6.0)
        report = monitor.current_report(label)
        assert report.time == 6.0
        with pytest.raises(MonitorError):
            monitor.current_report("nope")

    def test_stats_accounting(self):
        build, monitor = monitored()
        monitor.watch_path("S1", "N1")
        monitor.start()
        build.network.run(10.0)
        stats = monitor.stats()
        assert stats["snmp_requests"] >= stats["poll_cycles"] * 6 - 6
        assert stats["snmp_timeouts"] == 0
        assert stats["reports"] == len(monitor.history.series("S1<->N1"))


class TestLifecycle:
    def test_double_start_rejected(self):
        build, monitor = monitored()
        monitor.start()
        with pytest.raises(MonitorError):
            monitor.start()

    def test_stop_halts_everything(self):
        build, monitor = monitored()
        monitor.watch_path("S1", "N1")
        monitor.start()
        build.network.run(8.0)
        reports = monitor.stats()["reports"]
        monitor.stop()
        build.network.run(20.0)
        assert monitor.stats()["reports"] == reports
        assert not monitor.manager._pending

    def test_bad_report_offset_rejected(self):
        build = build_testbed()
        with pytest.raises(MonitorError):
            NetworkMonitor(build, "L", poll_interval=2.0, report_offset=3.0)

    @pytest.mark.parametrize(
        "retention", [None, 0.0, -5.0, float("nan"), float("inf")]
    )
    def test_history_horizon_must_be_positive_and_finite(self, retention):
        """History is always bounded: there is no unbounded setting."""
        with pytest.raises(MonitorError, match="history_retention_s"):
            NetworkMonitor(build_testbed(), "L", history_retention_s=retention)

    def test_snmpless_hosts_still_measurable(self):
        """The paper's S4<->S5 case: no agents, measured via the switch."""
        build, monitor = monitored()
        label = monitor.watch_path("S4", "S5")
        net = build.network
        StaircaseLoad(
            net.host("S4"), net.ip_of("S5"), StepSchedule([(2.0, 500_000.0), (30.0, 0.0)])
        ).start()
        monitor.start()
        net.run(30.0)
        series = monitor.history.series(label)
        assert series.used().max() == pytest.approx(500_000 * 1.019, rel=0.05)
        assert series.latest().complete


class TestHistoryHorizon:
    def test_history_is_bounded_with_default_options(self):
        """Run the testbed half again past the horizon with no history
        argument: every path keeps at most a horizon of reports, the
        trimmed ones are counted, and what is kept is bit for bit what a
        twin with a horizon longer than the run holds."""
        until = 1.5 * HISTORY_HORIZON_S
        runs = []
        for options in ({}, {"history_retention_s": 2000.0}):
            build = build_testbed()
            net = build.network
            monitor = NetworkMonitor(build, "L", **options)
            labels = [monitor.watch_path("S1", "N1"), monitor.watch_path("S2", "N2")]
            StaircaseLoad(
                net.host("L"), net.ip_of("N1"),
                StepSchedule([(400.0, 300_000.0), (700.0, 0.0)]),
            ).start()
            monitor.start()
            net.run(until)
            runs.append(monitor)
        bounded, twin = runs

        assert bounded.stats()["history_dropped"] > 0
        assert twin.stats()["history_dropped"] == 0
        for label in labels:
            kept = bounded.history.series(label)
            full = twin.history.series(label)
            assert len(kept) <= HISTORY_HORIZON_S / bounded.poll_interval + 1
            assert len(kept) < len(full)
            assert kept.times()[0] >= kept.times()[-1] - HISTORY_HORIZON_S
            window = full.between(kept.times()[0], until + 1.0)
            for column in ("times", "used", "available"):
                mine = getattr(kept, column)()
                theirs = getattr(window, column)()
                assert (mine.view("uint64") == theirs.view("uint64")).all()
            assert kept.used().max() > 0  # the load lies inside the window
            assert kept.latest() == full.latest()
            assert kept.latest().available_bps == full.latest().available_bps
