"""Tests for the all-pairs bandwidth matrix."""

import numpy as np
import pytest

from repro.core.matrix import BandwidthMatrix, MatrixError
from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import build_testbed
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule


def monitored_matrix(load_to=None, rate=300_000.0):
    build = build_testbed()
    monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
    net = build.network
    if load_to:
        StaircaseLoad(
            net.host("L"), net.ip_of(load_to), StepSchedule([(2.0, rate)])
        ).start()
    monitor.start()
    net.run(10.0)
    matrix = BandwidthMatrix(build.spec, monitor.calculator)
    return build, matrix


class TestSnapshot:
    def test_full_testbed_matrix(self):
        build, matrix = monitored_matrix()
        snap = matrix.snapshot(time=10.0)
        assert len(snap.hosts) == 9
        assert len(snap.reports) == 9 * 8 // 2

    def test_symmetry(self):
        build, matrix = monitored_matrix()
        snap = matrix.snapshot(time=10.0)
        values = snap.values("available")
        assert np.allclose(values, values.T, equal_nan=True)
        assert np.isnan(values.diagonal()).all()

    def test_hub_pairs_capped_by_hub(self):
        build, matrix = monitored_matrix()
        snap = matrix.snapshot(time=10.0)
        hub_avail = snap.report("S1", "N1").available_bps
        sw_avail = snap.report("S1", "S2").available_bps
        assert hub_avail <= 10e6 / 8
        assert sw_avail > 10e6 / 8  # switch pairs see 100 Mb/s

    def test_load_shows_in_matrix(self):
        build, matrix = monitored_matrix(load_to="N1")
        snap = matrix.snapshot(time=10.0)
        report = snap.report("S1", "N1")
        assert report.used_bps == pytest.approx(300_000 * 1.019, rel=0.05)

    def test_worst_pair_is_hub_pair_under_load(self):
        build, matrix = monitored_matrix(load_to="N1", rate=800_000.0)
        snap = matrix.snapshot(time=10.0)
        a, b, available = snap.worst_pair()
        assert {a, b} & {"N1", "N2"}, (a, b)
        assert available < 10e6 / 8

    def test_pair_lookup_both_orders(self):
        build, matrix = monitored_matrix()
        snap = matrix.snapshot(time=10.0)
        assert snap.report("S1", "S2") is snap.report("S2", "S1")

    def test_self_pair_rejected(self):
        build, matrix = monitored_matrix()
        snap = matrix.snapshot(time=10.0)
        with pytest.raises(MatrixError):
            snap.report("S1", "S1")

    def test_unknown_pair_rejected(self):
        build, matrix = monitored_matrix()
        snap = matrix.snapshot(time=10.0)
        with pytest.raises(MatrixError):
            snap.report("S1", "switch")  # a device, not a host


class TestRendering:
    def test_table_contains_hosts_and_units(self):
        build, matrix = monitored_matrix()
        text = matrix.snapshot(time=10.0).format_table()
        assert "KB/s" in text
        for host in ("S1", "S2", "N1"):
            assert host in text
        assert "-" in text  # the diagonal

    def test_utilization_metric(self):
        build, matrix = monitored_matrix(load_to="N1", rate=800_000.0)
        snap = matrix.snapshot(time=10.0)
        util = snap.values("utilization")
        s1, n1 = snap.hosts.index("S1"), snap.hosts.index("N1")
        assert util[s1, n1] == pytest.approx(0.65, abs=0.1)
        assert "%" in snap.format_table("utilization")

    def test_unknown_metric_rejected(self):
        build, matrix = monitored_matrix()
        snap = matrix.snapshot(time=10.0)
        with pytest.raises(MatrixError):
            snap.values("bogus")


class TestConstruction:
    def test_disconnected_pair_is_none(self):
        from repro.spec.parser import parse_spec
        from repro.core.bandwidth import BandwidthCalculator
        from repro.core.poller import RateTable

        spec = parse_spec(
            "network topology t { host A { } host B { } host C { } "
            "connect A.eth0 <-> B.eth0; }"
        )
        calc = BandwidthCalculator(spec, RateTable())
        matrix = BandwidthMatrix(spec, calc)
        snap = matrix.snapshot(time=0.0)
        assert snap.report("A", "C") is None
        assert "n/a" in snap.format_table()


class TestUnavailablePairs:
    """An unavailable pair's A is unknown (NaN) and its other figures
    stale: it is never the tightest pair and prints n/a in every table."""

    @staticmethod
    def cell(src, dst, available, unavailable=False):
        from repro.core.report import ConnectionMeasurement, PathReport
        from repro.topology.model import ConnectionSpec, InterfaceRef

        capacity = 10_000.0
        conn = ConnectionSpec(
            end_a=InterfaceRef(src, "eth0"), end_b=InterfaceRef(dst, "eth0"),
            bandwidth_bps=capacity * 8,
        )
        return PathReport(
            src=src, dst=dst, time=1.0, unavailable=unavailable,
            connections=(
                ConnectionMeasurement(
                    connection=conn, capacity_bps=capacity,
                    used_bps=capacity - available, source=None, rule="switch",
                ),
            ),
        )

    def snapshot(self, order):
        from repro.core.matrix import MatrixSnapshot

        cells = {
            ("a", "b"): self.cell("a", "b", 1.0, unavailable=True),
            ("a", "c"): self.cell("a", "c", 5.0),
            ("b", "c"): self.cell("b", "c", 9.0),
        }
        return MatrixSnapshot(
            hosts=["a", "b", "c"], time=1.0, reports={k: cells[k] for k in order}
        )

    @pytest.mark.parametrize("order", [
        (("a", "b"), ("a", "c"), ("b", "c")),
        (("a", "c"), ("a", "b"), ("b", "c")),
        (("b", "c"), ("a", "c"), ("a", "b")),
    ])
    def test_worst_pair_skips_an_unavailable_pair_in_any_order(self, order):
        assert self.snapshot(order).worst_pair() == ("a", "c", 5.0)

    def test_no_measurable_pair_has_no_worst(self):
        from repro.core.matrix import MatrixSnapshot

        dead = self.cell("a", "b", 1.0, unavailable=True)
        snap = MatrixSnapshot(hosts=["a", "b"], time=1.0, reports={("a", "b"): dead})
        assert snap.worst_pair() is None

    @pytest.mark.parametrize("metric", ["available", "used", "utilization"])
    def test_an_unavailable_cell_is_nan_in_every_metric(self, metric):
        snap = self.snapshot((("a", "b"), ("a", "c"), ("b", "c")))
        values = snap.values(metric)
        assert np.isnan(values[0, 1]) and np.isnan(values[1, 0])
        assert not np.isnan(values[0, 2])
        assert "n/a" in snap.format_table(metric).splitlines()[2]
