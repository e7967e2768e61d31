"""Unit tests for the RM middleware: QoS, detection, diagnosis, advice."""

import pytest

from repro.core.bandwidth import BandwidthCalculator
from repro.core.poller import InterfaceRates, RateTable
from repro.core.report import ConnectionMeasurement, PathReport
from repro.core.traversal import find_path
from repro.rm.allocator import ReallocationAdvisor
from repro.rm.detector import QosState, ViolationDetector
from repro.rm.diagnosis import diagnose
from repro.rm.qos import QosRequirement
from repro.spec.parser import parse_spec
from repro.topology.model import (
    ConnectionSpec,
    InterfaceRef,
    QosPathSpec,
    TopologyError,
)

SPEC = """
network topology t {
    host L  { snmp community "public"; }
    host S1 { snmp community "public"; }
    host S2 { snmp community "public"; }
    host N1 { snmp community "public"; interface el0 { speed 10 Mbps; } }
    host N2 { snmp community "public"; interface el0 { speed 10 Mbps; } }
    switch sw { snmp community "public"; ports 6; }
    hub hb { ports 4 speed 10 Mbps; }
    connect L.eth0  <-> sw.port1;
    connect S1.eth0 <-> sw.port2;
    connect S2.eth0 <-> sw.port3;
    connect sw.port4 <-> hb.port1;
    connect N1.el0  <-> hb.port2;
    connect N2.el0  <-> hb.port3;
}
"""


def spec():
    return parse_spec(SPEC)


def make_report(available, used=0.0, capacity=1_000_000.0, time=0.0,
                src="S1", dst="N1", name=None):
    conn = ConnectionSpec(InterfaceRef(src, "eth0"), InterfaceRef("sw", "port2"))
    m = ConnectionMeasurement(
        connection=conn,
        capacity_bps=capacity,
        used_bps=capacity - available if used == 0.0 else used,
        source=conn.end_a,
        rule="switch",
    )
    return PathReport(src=src, dst=dst, time=time, connections=(m,), name=name)


class TestQosRequirement:
    def test_needs_a_threshold(self):
        with pytest.raises(TopologyError):
            QosRequirement("r", "A", "B")

    def test_min_available_check(self):
        req = QosRequirement("r", "S1", "N1", min_available_bps=500_000)
        assert req.violation_reason(make_report(available=600_000)) is None
        assert req.violation_reason(make_report(available=400_000)) is not None

    def test_max_utilization_check(self):
        req = QosRequirement("r", "S1", "N1", max_utilization=0.5)
        ok = make_report(available=600_000)  # 40% used
        bad = make_report(available=300_000)  # 70% used
        assert req.violation_reason(ok) is None
        assert req.violation_reason(bad) is not None

    def test_violation_reason_text(self):
        req = QosRequirement("r", "S1", "N1", min_available_bps=500_000)
        reason = req.violation_reason(make_report(available=400_000))
        assert "below required" in reason
        assert req.violation_reason(make_report(available=600_000)) is None

    def test_from_spec_converts_bits_to_bytes(self):
        path = QosPathSpec("p", "A", "B", min_available_bps=8000.0)
        req = QosRequirement.from_spec(path)
        assert req.min_available_bps == 1000.0

    def test_watch_label(self):
        req = QosRequirement("r", "S1", "N1", min_available_bps=1.0)
        assert req.watch_label == "S1<->N1"


class TestDetector:
    def req(self):
        return QosRequirement("r", "S1", "N1", min_available_bps=500_000)

    def test_hysteresis_requires_consecutive_breaches(self):
        det = ViolationDetector(self.req(), breach_count=2, clear_count=2)
        det.offer(make_report(available=600_000, time=0.0))
        assert det.state is QosState.OK
        det.offer(make_report(available=400_000, time=1.0))
        assert det.state is QosState.OK  # one breach is not enough
        event = det.offer(make_report(available=400_000, time=2.0))
        assert det.state is QosState.VIOLATED
        assert event is not None and "below required" in event.reason

    def test_flapping_suppressed(self):
        det = ViolationDetector(self.req(), breach_count=2, clear_count=2)
        for t, avail in enumerate([600e3, 400e3, 600e3, 400e3, 600e3]):
            det.offer(make_report(available=avail, time=float(t)))
        assert det.state is QosState.OK
        assert all(e.state is not QosState.VIOLATED for e in det.events)

    def test_recovery_needs_consecutive_ok(self):
        det = ViolationDetector(self.req(), breach_count=1, clear_count=2)
        det.offer(make_report(available=400_000, time=0.0))
        assert det.violated
        det.offer(make_report(available=600_000, time=1.0))
        assert det.violated  # one OK not enough
        det.offer(make_report(available=600_000, time=2.0))
        assert det.state is QosState.OK

    def test_violation_spans(self):
        det = ViolationDetector(self.req(), breach_count=1, clear_count=1)
        det.offer(make_report(available=400_000, time=1.0))
        det.offer(make_report(available=600_000, time=2.0))
        det.offer(make_report(available=400_000, time=3.0))
        transitions = [(e.state, e.time) for e in det.events]
        assert transitions == [
            (QosState.VIOLATED, 1.0), (QosState.OK, 2.0), (QosState.VIOLATED, 3.0),
        ]

    def test_foreign_report_ignored(self):
        det = ViolationDetector(self.req())
        result = det.offer(make_report(available=0.0, src="L", dst="S2"))
        assert result is None
        assert det.reports_seen == 0

    def test_subscriber_called(self):
        det = ViolationDetector(self.req(), breach_count=1)
        events = []
        det.subscribe(events.append)
        det.offer(make_report(available=400_000, time=0.0))
        assert len(events) == 1

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            ViolationDetector(self.req(), breach_count=0)


class TestDiagnosis:
    def synth_rates(self):
        s = spec()
        rates = RateTable()
        calc = BandwidthCalculator(s, rates)

        def feed(node, idx, in_bps, out_bps):
            rates.update(InterfaceRates(node, idx, 10.0, 2.0, in_bps, out_bps, 0, 0))

        return s, rates, calc, feed

    def test_hub_saturation_diagnosed(self):
        s, rates, calc, feed = self.synth_rates()
        feed("S1", 1, 0, 0)
        feed("sw", 4, 0, 0)
        feed("N1", 1, 1_000_000, 0)
        feed("N2", 1, 200_000, 0)
        path = find_path(s, "S1", "N1")
        report = calc.measure_path(path, "S1", "N1", time=10.0)
        diag = diagnose(s, report)
        assert diag.kind == "hub-saturation"
        assert diag.shared_with == ["N1", "N2"]
        assert "hub" in diag.explanation

    def test_endpoint_link_diagnosed(self):
        s, rates, calc, feed = self.synth_rates()
        feed("S1", 1, 11_000_000, 0)  # S1's own 100 Mb/s link nearly full
        feed("S2", 1, 0, 0)
        path = find_path(s, "S1", "S2")
        report = calc.measure_path(path, "S1", "S2", time=10.0)
        diag = diagnose(s, report)
        assert diag.kind == "endpoint-link"
        assert "S1" in diag.shared_with

    def test_unmeasured_path_gives_none(self):
        s, rates, calc, _ = self.synth_rates()
        path = find_path(s, "S1", "S2")
        report = calc.measure_path(path, "S1", "S2", time=0.0)
        assert diagnose(s, report) is None


class TestAdvisor:
    def test_ranking_avoids_bottleneck(self):
        s = spec()
        rates = RateTable()
        calc = BandwidthCalculator(s, rates)

        def feed(node, idx, in_bps, out_bps=0.0):
            rates.update(InterfaceRates(node, idx, 10.0, 2.0, in_bps, out_bps, 0, 0))

        # Hub saturated; switch hosts idle.
        for node, idx in [("S1", 1), ("S2", 1), ("L", 1), ("sw", 4)]:
            feed(node, idx, 0)
        feed("N1", 1, 1_100_000)
        feed("N2", 1, 100_000)
        path = find_path(s, "S1", "N1")
        report = calc.measure_path(path, "S1", "N1", time=10.0)
        diag = diagnose(s, report)
        advisor = ReallocationAdvisor(s, calc)
        advice = advisor.advise("S1", "N1", diagnosis=diag)
        assert advice, "expected at least one placement"
        best = advice[0]
        assert best.avoids_bottleneck
        assert best.host in {"L", "S2"}
        # N2 (same hub) must rank below the switch hosts.
        hosts_in_order = [a.host for a in advice]
        assert hosts_in_order.index("N2") > hosts_in_order.index(best.host)

    def test_min_available_filters(self):
        s = spec()
        calc = BandwidthCalculator(s, RateTable())
        advisor = ReallocationAdvisor(s, calc)
        advice = advisor.advise("S1", "N1", min_available_bps=float("inf"))
        assert advice == []

    def test_src_and_current_dst_excluded(self):
        s = spec()
        calc = BandwidthCalculator(s, RateTable())
        advisor = ReallocationAdvisor(s, calc)
        hosts = {a.host for a in advisor.advise("S1", "N1")}
        assert "S1" not in hosts and "N1" not in hosts
