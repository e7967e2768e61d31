"""Probe trains under injected faults: loss, flaps, slow agents.

The invariants: loss and jitter figures stay truthful under fault
injection, and no fault class can wedge the scheduler -- an undelivered
train is abandoned by its own timeout and the next round proceeds.

``REPRO_CHAOS_SEED`` reseeds the random fault injectors so CI can replay
the suite under a different randomness without editing it.
"""

import os

import pytest

from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import build_testbed
from repro.probe import ProbeTrain
from repro.simnet.faults import Flap, PacketLoss, ResponseDelay

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def probed(watches=(("S1", "N1"),), **options):
    build = build_testbed()
    monitor = NetworkMonitor(build, "L", poll_interval=2.0)
    for src, dst in watches:
        monitor.watch_path(src, dst)
    prober = monitor.enable_probing(**options)
    return build, monitor, prober


class TestPacketLoss:
    def test_loss_rate_and_gaps_are_reported(self):
        build = build_testbed()
        net = build.network
        PacketLoss(net.host("N1").interfaces[0].link, loss_rate=0.3, seed=SEED)
        done = []
        ProbeTrain(
            net.host("S1"), net.host("N1"), count=64, on_complete=done.append
        ).start()
        net.run(3.0)
        assert len(done) == 1
        report = done[0]
        assert report.received < report.sent
        assert report.loss_rate == pytest.approx(
            1.0 - report.received / report.sent
        )
        # With 30% loss across 64 probes, mid-train gaps are certain.
        assert report.gaps > 0
        assert not report.complete

    def test_scheduler_keeps_running_under_loss(self):
        build, monitor, prober = probed()
        PacketLoss(
            build.network.host("N1").interfaces[0].link,
            loss_rate=0.2,
            seed=SEED,
        )
        monitor.start()
        build.network.run(40.0)
        stats = prober.stats()
        assert stats["trains_started"] >= 20
        lossy = [r for r in prober.reports.values() if r.loss_rate > 0]
        assert lossy or prober.reports  # seeded loss may spare a train


class TestFlap:
    def test_downed_link_abandons_trains_not_the_scheduler(self):
        build, monitor, prober = probed()
        net = build.network
        # Hub leg flaps: down 3 s (several whole probe rounds), up 5 s.
        Flap(
            net.sim, net.host("N1").interfaces[0].link,
            at=10.0, down_for=3.0, up_for=5.0, until=30.0,
            events=monitor.telemetry.events,
        )
        monitor.start()
        net.run(45.0)
        stats = prober.stats()
        assert stats["trains_abandoned"] >= 1
        # The scheduler outlived every outage: trains kept starting and
        # the final train (link restored) went through cleanly.
        assert stats["trains_started"] > stats["trains_abandoned"]
        last = prober.reports["S1<->N1"]
        assert last.delivered and last.loss_rate == 0.0

    def test_abandoned_train_reports_total_loss(self):
        build = build_testbed()
        net = build.network
        link = net.host("N1").interfaces[0].link
        for iface in link.endpoints:
            iface.set_admin_up(False)
        done = []
        ProbeTrain(
            net.host("S1"), net.host("N1"), timeout=1.0, on_complete=done.append
        ).start()
        net.run(2.0)
        assert len(done) == 1
        report = done[0]
        assert not report.delivered
        assert report.received == 0 and report.loss_rate == 1.0
        assert "ABANDONED" in report.summary()


class TestResponseDelay:
    def test_slow_agents_degrade_passive_but_not_probing(self):
        build, monitor, prober = probed()
        for name in ("S1", "N1", "switch"):
            fault = ResponseDelay(
                build.network.sim, build.agents[name], extra=0.8, at=5.0, until=None
            )
            fault.events = monitor.telemetry.events
        monitor.start()
        build.network.run(40.0)
        stats = prober.stats()
        # Probe packets never touch the SNMP agents: every train delivers.
        assert stats["trains_abandoned"] == 0
        assert prober.reports["S1<->N1"].delivered
        # And slow polling alone must not read as a lying counter.
        assert monitor.stats()["probe_disagreements"] == 0


class TestNeverWedge:
    def test_rounds_continue_while_trains_time_out(self):
        build, monitor, prober = probed(timeout=2.5)
        net = build.network
        # Permanently down hub leg: every train must be abandoned, yet
        # rounds keep firing and each timeout releases the next train.
        link = net.host("N1").interfaces[0].link
        for iface in link.endpoints:
            iface.set_admin_up(False)
        monitor.start()
        net.run(40.0)
        stats = prober.stats()
        # Every finished train was abandoned (at most one still in flight
        # at the cutoff), and rounds never stopped firing.
        assert stats["trains_started"] > 5
        assert stats["trains_abandoned"] >= stats["trains_started"] - 1
        # In-flight guard skipped rounds instead of stacking trains.
        assert stats["rounds_skipped"] > 0
