"""Tests for the telemetry subsystem: quantiles, metrics, events, spans."""

import math
import random

import numpy as np
import pytest

from repro.analysis.stats import exact_quantile, exact_quantiles, quantile_rank_error
from repro.telemetry import (
    EventBus,
    EwmaQuantiles,
    MetricError,
    MetricsRegistry,
    P2Quantile,
    Telemetry,
    Tracer,
)
from repro.telemetry.events import (
    FAULT_INJECTED,
    HEALTH_TRANSITION,
    QOS_VIOLATION,
)
from repro.telemetry.trace import NULL_SPAN


# ----------------------------------------------------------------------
# Streaming quantile accuracy vs the exact batch answer
# ----------------------------------------------------------------------
def uniform_stream(n, seed=0):
    rng = random.Random(seed)
    return [rng.uniform(0.0, 1.0) for _ in range(n)]


def bimodal_stream(n, seed=0):
    """Fast responses with a slow mode -- the shape SNMP RTTs actually have."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if rng.random() < 0.9:
            out.append(rng.gauss(0.002, 0.0003))
        else:
            out.append(rng.gauss(0.050, 0.005))
    return out


class TestP2Quantile:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    def test_exact_below_six_samples(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.observe(x)
        assert est.value == pytest.approx(exact_quantile([5.0, 1.0, 3.0], 0.5))

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_uniform_rank_error(self, p):
        data = uniform_stream(5000, seed=7)
        est = P2Quantile(p)
        for x in data:
            est.observe(x)
        # On U(0,1) rank error equals absolute error; P^2 should be tight.
        assert quantile_rank_error(data, p, est.value) < 0.02

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_bimodal_rank_error(self, p):
        data = bimodal_stream(5000, seed=11)
        est = P2Quantile(p)
        for x in data:
            est.observe(x)
        assert quantile_rank_error(data, p, est.value) < 0.03

    def test_adversarial_sorted_stream(self):
        # Monotonically increasing input is the classic P^2 stress case.
        data = [float(i) for i in range(2000)]
        est = P2Quantile(0.9)
        for x in data:
            est.observe(x)
        assert quantile_rank_error(data, 0.9, est.value) < 0.05

    def test_adversarial_reverse_sorted(self):
        data = [float(2000 - i) for i in range(2000)]
        est = P2Quantile(0.5)
        for x in data:
            est.observe(x)
        assert quantile_rank_error(data, 0.5, est.value) < 0.05

    def test_constant_stream(self):
        est = P2Quantile(0.99)
        for _ in range(100):
            est.observe(3.25)
        assert est.value == pytest.approx(3.25)

    def test_exact_helper_consistency(self):
        data = uniform_stream(100, seed=3)
        qs = exact_quantiles(data, (0.5, 0.9))
        assert qs[0.5] == exact_quantile(data, 0.5)
        assert qs[0.5] <= qs[0.9]


def one_stream(p, weight):
    """An :class:`EwmaQuantiles` of one slot, and a feed for it."""
    est = EwmaQuantiles(p, weight=weight)
    est.grow(1)
    slot = np.zeros(1, dtype=np.intp)
    return est, lambda x: est.observe(slot, np.array([x]))


class TestEwmaQuantile:
    def test_tracks_distribution_shift(self):
        # The whole point of the EWMA variant: follow a drifting stream.
        est, observe = one_stream(0.5, weight=0.1)
        for x in uniform_stream(2000, seed=1):
            observe(x)
        before = est.estimate[0]
        assert abs(before - 0.5) < 0.15
        for x in [u + 10.0 for u in uniform_stream(2000, seed=2)]:
            observe(x)
        assert abs(est.estimate[0] - 10.5) < 0.3

    def test_uniform_rough_accuracy(self):
        data = uniform_stream(5000, seed=5)
        est, observe = one_stream(0.9, weight=0.05)
        for x in data:
            observe(x)
        assert quantile_rank_error(data, 0.9, est.estimate[0]) < 0.1


# ----------------------------------------------------------------------
# Registry / metric families
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs_total", "requests")
        c.inc()
        c.inc(3)
        assert reg.value("reqs_total") == 4
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_get_or_create_shares_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        b = reg.counter("x_total")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(MetricError):
            reg.gauge("x_total")

    def test_labelname_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("y_total", labelnames=("agent",))
        with pytest.raises(MetricError):
            reg.counter("y_total", labelnames=("path",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("bad name")
        with pytest.raises(MetricError):
            reg.counter("ok", labelnames=("bad-label",))

    def test_labelled_children_are_distinct(self):
        reg = MetricsRegistry()
        fam = reg.counter("rtt_total", labelnames=("agent",))
        fam.labels(agent="S1").inc()
        fam.labels(agent="S1").inc()
        fam.labels(agent="N1").inc()
        assert reg.value("rtt_total", agent="S1") == 2
        assert reg.value("rtt_total", agent="N1") == 1
        assert [lv for lv, _ in fam.children()] == [("N1",), ("S1",)]

    def test_unlabelled_access_to_labelled_family_fails(self):
        reg = MetricsRegistry()
        fam = reg.counter("z_total", labelnames=("agent",))
        with pytest.raises(MetricError):
            fam.inc()
        with pytest.raises(MetricError):
            fam.labels(agent="a", extra="b")

    def test_function_backed_gauge(self):
        reg = MetricsRegistry()
        state = {"n": 2}
        g = reg.gauge("live")
        g.set_function(lambda: float(state["n"]))
        assert reg.value("live") == 2.0
        state["n"] = 7
        assert reg.value("live") == 7.0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", quantiles=(0.5, 0.9))
        for x in (1.0, 2.0, 3.0, 4.0):
            h.observe(x)
        summary = reg.value("lat_seconds")
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        with pytest.raises(MetricError):
            h.quantile(0.75)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        snap = reg.snapshot()
        assert snap["a_total"]["kind"] == "counter"
        assert snap["a_total"]["values"][0]["value"] == 1


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_publish_counts_and_ring(self):
        bus = EventBus(capacity=2)
        bus.publish(HEALTH_TRANSITION, 1.0, node="S1")
        bus.publish(HEALTH_TRANSITION, 2.0, node="S1")
        bus.publish(QOS_VIOLATION, 3.0, path="a<->b")
        assert bus.count(HEALTH_TRANSITION) == 2
        assert bus.total() == 3
        # Ring keeps the newest two only; counts keep everything.
        assert [e.time for e in bus.events()] == [2.0, 3.0]
        assert bus.last(QOS_VIOLATION).attrs["path"] == "a<->b"
        assert bus.last("nope") is None

    def test_subscribe_filtered(self):
        bus = EventBus()
        got = []
        bus.subscribe(got.append, kinds=[FAULT_INJECTED])
        bus.publish(FAULT_INJECTED, 1.0)
        bus.publish(HEALTH_TRANSITION, 2.0)
        assert [e.kind for e in got] == [FAULT_INJECTED]

    def test_format_counts_shows_known_kinds_at_zero(self):
        text = EventBus().format_counts()
        assert "qos_violation: 0" in text
        assert "health_transition: 0" in text


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def make(self, **kw):
        clock = {"t": 0.0}
        tracer = Tracer(lambda: clock["t"], **kw)
        return tracer, clock

    def test_explicit_begin_finish(self):
        tracer, clock = self.make()
        span = tracer.begin("poll_cycle", cycle=1)
        clock["t"] = 1.5
        span.finish(outcome="ok")
        assert span.duration == pytest.approx(1.5)
        assert span.attrs == {"cycle": 1, "outcome": "ok"}
        assert tracer.spans_finished == 1

    def test_finish_is_idempotent(self):
        tracer, clock = self.make()
        span = tracer.begin("x")
        clock["t"] = 1.0
        span.finish()
        clock["t"] = 9.0
        span.finish()
        assert span.duration == pytest.approx(1.0)
        assert tracer.spans_finished == 1

    def test_parent_child(self):
        tracer, clock = self.make()
        parent = tracer.begin("poll_cycle")
        child = tracer.begin("snmp_exchange", parent=parent, agent="S1")
        child.finish()
        parent.finish()
        assert child.parent_id == parent.span_id
        assert [s for s in tracer.spans() if s.parent_id == parent.span_id] == [child]

    def test_ring_bounded(self):
        tracer, clock = self.make(capacity=3)
        for i in range(10):
            tracer.begin("s", i=i).finish()
        assert [s.attrs["i"] for s in tracer.spans("s")] == [7, 8, 9]

    def test_slow_log(self):
        tracer, clock = self.make(slow_threshold=1.0)
        fast = tracer.begin("cycle")
        clock["t"] = 0.5
        fast.finish()
        slow = tracer.begin("cycle")
        clock["t"] = 3.0
        slow.finish()
        assert list(tracer.slow) == [slow]
        assert "took 2.500s" in tracer.format_slow()

    def test_disabled_hands_out_null_span(self):
        tracer, clock = self.make(enabled=False)
        span = tracer.begin("x")
        assert span is NULL_SPAN
        span.finish()
        with span:
            pass
        assert tracer.spans_started == 0
        assert tracer.spans_finished == 0

    def test_context_manager_records_error(self):
        tracer, clock = self.make()
        with pytest.raises(RuntimeError):
            with tracer.span("risky"):
                raise RuntimeError("boom")
        assert tracer.spans("risky")[0].attrs["error"] == "RuntimeError"


class TestHub:
    def test_disabled_hub_still_counts(self):
        tel = Telemetry.disabled()
        tel.registry.counter("c_total").inc()
        assert tel.registry.value("c_total") == 1
        assert tel.tracer.begin("x") is NULL_SPAN
        tel.events.publish(QOS_VIOLATION, 0.0)
        assert tel.events.total() == 1

    def test_enable_disable_sync_tracer(self):
        tel = Telemetry()
        tel.disable()
        assert not tel.tracer.enabled
        tel.enable()
        assert tel.tracer.enabled
