"""Unit tests for PathReport math and the measurement history."""

import numpy as np
import pytest

from repro.core.history import HISTORY_HORIZON_S, MeasurementHistory, PathSeries
from repro.core.report import ConnectionMeasurement, PathReport
from repro.topology.model import ConnectionSpec, InterfaceRef


def measurement(capacity, used, rule="switch", conn_tag="x"):
    conn = ConnectionSpec(
        InterfaceRef(f"a{conn_tag}", "e"), InterfaceRef(f"b{conn_tag}", "e")
    )
    return ConnectionMeasurement(
        connection=conn,
        capacity_bps=capacity,
        used_bps=used,
        source=conn.end_a,
        rule=rule,
    )


def path_series():
    return PathSeries("p", [])


def report(time=0.0, measurements=(), name=None):
    return PathReport(
        src="S", dst="D", time=time, connections=tuple(measurements), name=name
    )


class TestConnectionMeasurement:
    def test_available_floor_zero(self):
        m = measurement(capacity=100.0, used=150.0)
        assert m.available_bps == 0.0

    def test_utilization_capped(self):
        assert measurement(100.0, 150.0).utilization == 1.0
        assert measurement(100.0, 25.0).utilization == 0.25

    def test_unmeasured_flag(self):
        m = measurement(100.0, 0.0, rule="unmeasured")
        assert not m.measured


class TestPathReport:
    def test_available_is_min(self):
        r = report(measurements=[measurement(1000, 100, conn_tag="1"),
                                 measurement(500, 300, conn_tag="2")])
        assert r.available_bps == 200.0

    def test_used_is_max_of_measured(self):
        r = report(measurements=[
            measurement(1000, 100, conn_tag="1"),
            measurement(1000, 700, conn_tag="2"),
            measurement(1000, 0, rule="unmeasured", conn_tag="3"),
        ])
        assert r.used_bps == 700.0

    def test_bottleneck_identification(self):
        slow = measurement(500, 450, conn_tag="slow")
        fast = measurement(10000, 100, conn_tag="fast")
        r = report(measurements=[fast, slow])
        assert r.bottleneck is slow

    def test_empty_path_between_distinct_hosts_rejected(self):
        with pytest.raises(ValueError):
            report(measurements=[])

    def test_self_path_allowed(self):
        r = PathReport(src="S", dst="S", time=0.0, connections=())
        assert r.available_bps == float("inf")
        assert r.used_bps == 0.0
        assert r.bottleneck is None

    def test_label_uses_name_override(self):
        r = report(measurements=[measurement(1, 0)], name="telemetry")
        assert r.label == "telemetry"
        r2 = report(measurements=[measurement(1, 0)])
        assert r2.label == "S<->D"

    def test_summary_renders(self):
        text = report(measurements=[measurement(1000, 100)]).summary()
        assert "S<->D" in text and "bottleneck" in text


class TestPathSeries:
    def test_append_and_extract(self):
        series = path_series()
        for t, used in [(1.0, 10.0), (2.0, 20.0)]:
            series.append(report(time=t, measurements=[measurement(100, used)]))
        np.testing.assert_allclose(series.times(), [1.0, 2.0])
        np.testing.assert_allclose(series.used(), [10.0, 20.0])
        np.testing.assert_allclose(series.available(), [90.0, 80.0])

    def test_out_of_order_rejected(self):
        series = path_series()
        series.append(report(time=5.0, measurements=[measurement(1, 0)]))
        with pytest.raises(ValueError):
            series.append(report(time=4.0, measurements=[measurement(1, 0)]))

    def test_between_window(self):
        series = path_series()
        for t in (1.0, 2.0, 3.0, 4.0):
            series.append(report(time=t, measurements=[measurement(1, 0)]))
        sub = series.between(2.0, 4.0)
        np.testing.assert_allclose(sub.times(), [2.0, 3.0])
        assert [r.time for r in sub.reports] == [2.0, 3.0]
        assert sub.latest().time == 3.0
        assert len(series.between(5.0, 9.0)) == 0

    def test_between_is_a_copy(self):
        series = path_series()
        series.append(report(time=1.0, measurements=[measurement(1, 0)]))
        sub = series.between(0.0, 9.0)
        sub.append(report(time=2.0, measurements=[measurement(1, 0)]))
        assert len(series) == 1 and len(sub) == 2

    def test_latest(self):
        series = path_series()
        assert series.latest() is None
        series.append(report(time=1.0, measurements=[measurement(1, 0)]))
        assert series.latest().time == 1.0

    def test_empty_arrays(self):
        series = path_series()
        for column in (series.times(), series.used(), series.available()):
            assert column.dtype == np.float64 and len(column) == 0


def _fill(history, times, name="a"):
    for t in times:
        history.append(
            report(time=t, measurements=[measurement(100, t)], name=name)
        )


class TestMeasurementHistory:
    def test_routing_by_label(self):
        history = MeasurementHistory()
        history.append(report(time=1.0, measurements=[measurement(1, 0)], name="a"))
        history.append(report(time=1.0, measurements=[measurement(1, 0)], name="b"))
        history.append(report(time=2.0, measurements=[measurement(1, 0)], name="a"))
        assert history.labels() == ["a", "b"]
        assert len(history.series("a")) == 2
        assert "a" in history and "zzz" not in history

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            MeasurementHistory().series("missing")

    def test_default_horizon(self):
        assert MeasurementHistory().retention_s == HISTORY_HORIZON_S

    def test_trim_is_exact_at_report_granularity(self):
        """A report survives while it is no older than the newest minus the
        horizon -- the one exactly at the floor included."""
        history = MeasurementHistory(retention_s=10.0)
        _fill(history, [2.0 * k for k in range(12)])  # 0, 2, ..., 22
        series = history.series("a")
        assert series.times().tolist() == [12.0, 14.0, 16.0, 18.0, 20.0, 22.0]
        assert series.dropped == 6
        assert history.reports_held == 6 and history.reports_dropped == 6
        # Each later append trims exactly what fell past the floor.
        _fill(history, [23.0])
        assert series.times()[0] == 14.0 and series.dropped == 7

    def test_trim_is_per_path(self):
        history = MeasurementHistory(retention_s=5.0)
        _fill(history, [0.0, 1.0], name="quiet")
        _fill(history, [0.0, 4.0, 8.0], name="busy")
        assert len(history.series("quiet")) == 2
        assert history.series("busy").times().tolist() == [4.0, 8.0]
        assert history.reports_held == 4 and history.reports_dropped == 1

    def test_between_and_latest_on_a_trimmed_series(self):
        history = MeasurementHistory(retention_s=6.0)
        _fill(history, [float(t) for t in range(20)])
        series = history.series("a")
        assert series.times().tolist() == [13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # A window reaching back past the horizon returns what is held.
        assert series.between(0.0, 15.0).times().tolist() == [13.0, 14.0]
        assert len(series.between(0.0, 13.0)) == 0
        assert series.latest().time == 19.0
        np.testing.assert_array_equal(series.used(), series.times())
