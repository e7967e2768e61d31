"""Tests for the telemetry exporters: Prometheus text and JSON."""

import json
import os

from repro.stream import register_stream_metrics
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    json_snapshot,
    prometheus_text,
    snapshot_dict,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "telemetry_golden.prom")


def build_reference_registry() -> MetricsRegistry:
    """A hand-constructed, fully deterministic registry for golden tests."""
    reg = MetricsRegistry()
    reqs = reg.counter("snmp_requests_total", "SNMP requests sent", ("agent",))
    reqs.labels(agent="S1").inc(30)
    reqs.labels(agent="N1").inc(28)
    reg.gauge("agents_healthy", "agents currently healthy").set(6)
    rtt = reg.histogram("snmp_rtt_seconds", "poll round-trip time", ("agent",))
    for i in range(1, 21):
        rtt.labels(agent="S1").observe(i / 1000.0)
    esc = reg.gauge("odd_label_gauge", 'help with "quotes"\nand newline', ("path",))
    esc.labels(path='a"b\\c\nd').set(1.5)
    reg.gauge("empty_gauge", "never set")
    viol = reg.counter(
        "integrity_violations_by_check_total",
        "integrity violations split by failing check",
        ("check",),
    )
    viol.labels(check="rate_bound").inc(3)
    viol.labels(check="cross_check").inc(2)
    reg.counter(
        "integrity_samples_rejected_total",
        "samples withheld from the rate table (violating or quarantined)",
    ).inc(5)
    reg.gauge("quarantined_interfaces", "interfaces currently quarantined").set(1)
    trust = reg.gauge(
        "interface_trust", "per-interface trust score (1 = pristine)", ("interface",)
    )
    trust.labels(interface="S1:1").set(0.25)
    register_stream_metrics(reg)
    reg.gauge("stream_subscribers").set(3)
    reg.counter("stream_events_delivered_total").inc(120)
    reg.counter("stream_events_suppressed_total").inc(45)
    reg.counter("stream_events_dropped_total").inc(7)
    return reg


class TestPrometheusText:
    def test_matches_golden_file(self):
        text = prometheus_text(build_reference_registry())
        with open(GOLDEN, encoding="utf-8") as fh:
            assert text == fh.read()

    def test_structure(self):
        text = prometheus_text(build_reference_registry())
        assert "# TYPE snmp_requests_total counter" in text
        # Histograms render as summaries: quantile series + _sum/_count.
        assert "# TYPE snmp_rtt_seconds summary" in text
        assert 'snmp_rtt_seconds{agent="S1",quantile="0.5"}' in text
        assert 'snmp_rtt_seconds_count{agent="S1"} 20' in text
        assert 'snmp_rtt_seconds_sum{agent="S1"} 0.21' in text

    def test_label_escaping(self):
        text = prometheus_text(build_reference_registry())
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_every_line_well_formed(self):
        for line in prometheus_text(build_reference_registry()).splitlines():
            assert line.startswith("#") or " " in line

    def test_nan_renders_as_nan_token(self):
        reg = MetricsRegistry()
        reg.histogram("empty_h", "no samples")
        text = prometheus_text(reg)
        assert "empty_h{quantile=" in text
        assert "NaN" in text


class TestJsonSnapshot:
    def test_roundtrips_through_json(self):
        tel = Telemetry(clock=lambda: 42.0)
        tel.registry.counter("c_total").inc()
        tel.registry.histogram("h_seconds")  # empty: NaN quantiles
        tel.events.publish("qos_violation", 41.0, path="S1<->N1")
        with tel.tracer.span("poll_cycle", cycle=1):
            pass
        data = json.loads(json_snapshot(tel))
        assert data["time"] == 42.0
        assert data["metrics"]["c_total"]["values"][0]["value"] == 1
        assert data["events"]["counts"]["qos_violation"] == 1
        assert data["spans"]["finished"] == 1
        assert data["spans"]["recent"][0]["name"] == "poll_cycle"
        # NaN must arrive as a string, not an invalid bare token.
        q = data["metrics"]["h_seconds"]["values"][0]["value"]["quantiles"]
        assert q["0.5"] == "nan"

    def test_snapshot_dict_time_override(self):
        tel = Telemetry(clock=lambda: 5.0)
        assert snapshot_dict(tel, time=9.0)["time"] == 9.0
