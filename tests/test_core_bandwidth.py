"""Unit tests for the bandwidth rules, on synthetic rate tables.

These tests drive :class:`BandwidthCalculator` directly with hand-made
:class:`InterfaceRates` samples so each rule is checked in isolation from
the SNMP machinery (which test_core_monitor exercises end-to-end).
"""

import pytest

from repro.core.bandwidth import BandwidthCalculator
from repro.core.poller import InterfaceRates, RateTable
from repro.core.traversal import find_path
from repro.spec.parser import parse_spec

SPEC = """
network topology t {
    host L  { snmp community "public"; }
    host S1 { snmp community "public"; }
    host S4 { }
    host N1 { snmp community "public"; interface el0 { speed 10 Mbps; } }
    host N2 { snmp community "public"; interface el0 { speed 10 Mbps; } }
    switch sw { snmp community "public"; ports 6; }
    hub hb { ports 4 speed 10 Mbps; }
    connect L.eth0  <-> sw.port1;
    connect S1.eth0 <-> sw.port2;
    connect S4.eth0 <-> sw.port3;
    connect sw.port4 <-> hb.port1;
    connect N1.el0  <-> hb.port2;
    connect N2.el0  <-> hb.port3;
}
"""


def setup():
    spec = parse_spec(SPEC)
    rates = RateTable()
    calc = BandwidthCalculator(spec, rates)
    return spec, rates, calc


def feed(rates, node, if_index, in_bps, out_bps, t=10.0):
    rates.update(
        InterfaceRates(node, if_index, t, 2.0, in_bps, out_bps, 0.0, 0.0)
    )


def conn(spec, a, b):
    for c in spec.connections:
        if {c.end_a.node, c.end_b.node} == {a, b}:
            return c
    raise AssertionError


class TestSwitchRule:
    def test_u_equals_t(self):
        spec, rates, calc = setup()
        feed(rates, "S1", 1, in_bps=100_000, out_bps=20_000)
        m = calc.measure_connection(conn(spec, "S1", "sw"))
        assert m.rule == "switch"
        assert m.used_bps == 120_000
        assert m.capacity_bps == 100e6 / 8
        assert m.available_bps == 100e6 / 8 - 120_000

    def test_unmeasured_without_sample(self):
        spec, rates, calc = setup()
        m = calc.measure_connection(conn(spec, "S1", "sw"))
        assert m.rule == "unmeasured"
        assert not m.measured
        assert m.used_bps == 0.0

    def test_snmpless_host_uses_switch_port(self):
        spec, rates, calc = setup()
        feed(rates, "sw", 3, in_bps=0, out_bps=50_000)  # port to S4
        m = calc.measure_connection(conn(spec, "S4", "sw"))
        assert m.rule == "switch"
        assert m.used_bps == 50_000
        assert m.source.node == "sw"

    def test_other_hosts_do_not_leak(self):
        """Traffic to S1 must not appear on S4's connection."""
        spec, rates, calc = setup()
        feed(rates, "S1", 1, in_bps=1_000_000, out_bps=0)
        feed(rates, "sw", 3, in_bps=0, out_bps=0)
        m = calc.measure_connection(conn(spec, "S4", "sw"))
        assert m.used_bps == 0.0


class TestHubRule:
    def test_u_is_sum_of_host_legs(self):
        """u_i = t_1 + ... + t_n for hosts on the hub (paper §3.3)."""
        spec, rates, calc = setup()
        feed(rates, "N1", 1, in_bps=200_000, out_bps=0)
        feed(rates, "N2", 1, in_bps=150_000, out_bps=0)
        m1 = calc.measure_connection(conn(spec, "N1", "hb"))
        m2 = calc.measure_connection(conn(spec, "N2", "hb"))
        assert m1.rule == "hub" and m2.rule == "hub"
        assert m1.used_bps == m2.used_bps == 350_000

    def test_uplink_shares_hub_usage(self):
        spec, rates, calc = setup()
        feed(rates, "N1", 1, in_bps=100_000, out_bps=0)
        feed(rates, "N2", 1, in_bps=0, out_bps=0)
        uplink = calc.measure_connection(conn(spec, "sw", "hb"))
        assert uplink.rule == "hub"
        assert uplink.used_bps == 100_000

    def test_clamped_to_hub_speed(self):
        """"u_i cannot exceed the maximum speed of the hub"."""
        spec, rates, calc = setup()
        feed(rates, "N1", 1, in_bps=900_000, out_bps=0)
        feed(rates, "N2", 1, in_bps=900_000, out_bps=0)
        m = calc.measure_connection(conn(spec, "N1", "hb"))
        assert m.used_bps == 10e6 / 8  # 1.25 MB/s
        assert m.available_bps == 0.0

    def test_partial_measurement_still_sums(self):
        spec, rates, calc = setup()
        feed(rates, "N1", 1, in_bps=100_000, out_bps=0)
        # N2 never sampled: the sum covers what is known.
        m = calc.measure_connection(conn(spec, "N1", "hb"))
        assert m.rule == "hub"
        assert m.used_bps == 100_000

    def test_hub_with_no_samples_unmeasured(self):
        spec, rates, calc = setup()
        m = calc.measure_connection(conn(spec, "N1", "hb"))
        assert m.rule == "unmeasured"

    def test_a_hub_connection_is_as_old_as_its_oldest_leg(self):
        """N1's last sample (t = 10) is still in the sum at t = 30, so the
        sum is 20 s old and stale, however fresh N2's leg is."""
        spec = parse_spec(SPEC)
        rates = RateTable()
        calc = BandwidthCalculator(spec, rates, stale_after=5.0, dead_after=60.0)
        feed(rates, "N1", 1, in_bps=100_000, out_bps=0, t=10.0)
        feed(rates, "N2", 1, in_bps=50_000, out_bps=0, t=29.5)
        for ends in (("N1", "hb"), ("N2", "hb"), ("sw", "hb")):
            m = calc.measure_connection(conn(spec, *ends), now=30.0)
            assert m.used_bps == 150_000, ends
            assert (m.sample_time, m.sample_age, m.stale) == (10.0, 20.0, True), ends

    def test_hub_of(self):
        spec, rates, calc = setup()
        assert calc.hub_of(conn(spec, "N1", "hb")) == "hb"
        assert calc.hub_of(conn(spec, "sw", "hb")) == "hb"
        assert calc.hub_of(conn(spec, "S1", "sw")) is None


class TestPathMeasurement:
    def test_available_is_min_rule(self):
        """A = min(a_1 ... a_n): the 10 Mb/s hub bounds the S1->N1 path."""
        spec, rates, calc = setup()
        feed(rates, "S1", 1, in_bps=0, out_bps=0)
        feed(rates, "sw", 4, in_bps=0, out_bps=0)
        feed(rates, "N1", 1, in_bps=200_000, out_bps=0)
        feed(rates, "N2", 1, in_bps=0, out_bps=0)
        path = find_path(spec, "S1", "N1")
        report = calc.measure_path(path, "S1", "N1", time=10.0)
        assert report.available_bps == 10e6 / 8 - 200_000
        assert report.used_bps == 200_000
        assert report.bottleneck.connection is conn(spec, "N1", "hb") or \
               report.bottleneck.connection is conn(spec, "sw", "hb")

    def test_used_is_max_over_connections(self):
        spec, rates, calc = setup()
        feed(rates, "S1", 1, in_bps=500_000, out_bps=0)
        feed(rates, "L", 1, in_bps=0, out_bps=0)
        path = find_path(spec, "S1", "L")
        report = calc.measure_path(path, "S1", "L", time=1.0)
        assert report.used_bps == 500_000

    def test_complete_flag(self):
        spec, rates, calc = setup()
        path = find_path(spec, "S1", "N1")
        report = calc.measure_path(path, "S1", "N1", time=0.0)
        assert not report.complete
        feed(rates, "S1", 1, 0, 0)
        feed(rates, "sw", 4, 0, 0)
        feed(rates, "N1", 1, 0, 0)
        report = calc.measure_path(path, "S1", "N1", time=1.0)
        assert report.complete

    def test_capacity_is_narrowest_link(self):
        spec, rates, calc = setup()
        path = find_path(spec, "S1", "N1")
        report = calc.measure_path(path, "S1", "N1", time=0.0)
        assert report.capacity_bps == 10e6 / 8

    def test_counter_source_cached(self):
        spec, rates, calc = setup()
        c = conn(spec, "S1", "sw")
        assert calc.counter_source(c) is calc.counter_source(c)
