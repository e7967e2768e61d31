"""Unit tests for load schedules and traffic generators."""

import pytest

from repro.simnet.network import Network
from repro.simnet.trafficgen import (
    KBPS,
    BackgroundChatter,
    StaircaseLoad,
    StepSchedule,
    TrafficError,
)


class TestStepSchedule:
    def test_rate_before_first_step_is_zero(self):
        sched = StepSchedule([(10.0, 100.0)])
        assert sched.rate_at(5.0) == 0.0

    def test_rate_at_breakpoint_is_new_level(self):
        sched = StepSchedule([(10.0, 100.0), (20.0, 0.0)])
        assert sched.rate_at(10.0) == 100.0
        assert sched.rate_at(19.999) == 100.0
        assert sched.rate_at(20.0) == 0.0

    def test_monotonic_times_required(self):
        with pytest.raises(TrafficError):
            StepSchedule([(10.0, 1.0), (5.0, 2.0)])

    def test_duplicate_times_rejected(self):
        with pytest.raises(TrafficError):
            StepSchedule([(10.0, 1.0), (10.0, 2.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(TrafficError):
            StepSchedule([(0.0, -1.0)])

    def test_staircase_builder_matches_paper_shape(self):
        sched = StepSchedule.staircase(
            start=0.0, initial_rate=100.0, increment=100.0, hold=60.0, n_steps=5, end=360.0
        )
        assert sched.rate_at(30.0) == 100.0
        assert sched.rate_at(90.0) == 200.0
        assert sched.rate_at(250.0) == 500.0
        assert sched.rate_at(360.0) == 0.0

    def test_staircase_end_must_follow_levels(self):
        with pytest.raises(TrafficError):
            StepSchedule.staircase(0.0, 100.0, 100.0, 60.0, 5, end=100.0)

    def test_pulse_builder(self):
        sched = StepSchedule.pulse(20.0, 60.0, 200.0)
        assert sched.rate_at(19.9) == 0.0
        assert sched.rate_at(40.0) == 200.0
        assert sched.rate_at(60.0) == 0.0

    def test_pulse_requires_ordering(self):
        with pytest.raises(TrafficError):
            StepSchedule.pulse(60.0, 20.0, 1.0)

    def test_breakpoints_exposed(self):
        sched = StepSchedule([(1.0, 5.0), (2.0, 0.0)])
        assert sched.breakpoints == [1.0, 2.0]


def loaded_pair(schedule, payload=1000):
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    sw = net.add_switch("sw", 4, managed=False)
    net.connect(a, sw)
    net.connect(b, sw)
    net.announce_hosts()
    load = StaircaseLoad(a, b.primary_ip, schedule, payload_size=payload)
    load.start()
    return net, a, b, load


class TestStaircaseLoad:
    def test_payload_rate_achieved(self):
        net, a, b, load = loaded_pair(StepSchedule([(0.0, 100_000.0), (10.0, 0.0)]))
        net.run(12.0)
        # 100 KB/s for 10 s = 1 MB of payload, within one datagram.
        assert load.payload_octets_sent == pytest.approx(1_000_000, abs=2000)
        assert b.discard.octets == load.payload_octets_sent

    def test_wire_overhead_matches_headers(self):
        net, a, b, load = loaded_pair(
            StepSchedule([(0.0, 100_000.0), (10.0, 0.0)]), payload=1472
        )
        net.run(12.0)
        wire = a.interfaces[0].counters.out_octets - 46  # minus announcement
        assert wire / load.payload_octets_sent == pytest.approx(1500 / 1472, rel=1e-3)

    def test_rate_change_repaces(self):
        net, a, b, load = loaded_pair(
            StepSchedule([(0.0, 50_000.0), (5.0, 200_000.0), (10.0, 0.0)])
        )
        net.run(5.0)
        low_phase = b.discard.octets
        net.run(10.5)
        high_phase = b.discard.octets - low_phase
        assert low_phase == pytest.approx(250_000, rel=0.05)
        assert high_phase == pytest.approx(1_000_000, rel=0.05)

    def test_zero_rate_sends_nothing(self):
        net, a, b, load = loaded_pair(StepSchedule([(100.0, 1000.0)]))
        net.run(50.0)
        assert load.datagrams_sent == 0

    def test_stop_silences_immediately(self):
        net, a, b, load = loaded_pair(StepSchedule([(0.0, 100_000.0)]))
        net.run(2.0)
        sent = load.datagrams_sent
        load.stop()
        net.run(10.0)
        assert load.datagrams_sent == sent

    def test_double_start_rejected(self):
        net, a, b, load = loaded_pair(StepSchedule([(0.0, 1000.0)]))
        with pytest.raises(TrafficError):
            load.start()

    def test_bad_payload_size(self):
        net = Network()
        a = net.add_host("A")
        b = net.add_host("B")
        with pytest.raises(TrafficError):
            StaircaseLoad(a, b.primary_ip, StepSchedule([(0.0, 1.0)]), payload_size=0)


class TestBackgroundChatter:
    def chatter_net(self, rate=800.0, seed=0):
        net = Network()
        hosts = [net.add_host(f"H{i}") for i in range(4)]
        sw = net.add_switch("sw", 6, managed=False)
        for h in hosts:
            net.connect(h, sw)
        net.announce_hosts()
        chatter = BackgroundChatter(hosts, aggregate_rate_bps=rate, seed=seed)
        return net, hosts, chatter

    def test_aggregate_rate_roughly_met(self):
        net, hosts, chatter = self.chatter_net(rate=1000.0)
        net.run(120.0)
        rate = chatter.octets_sent / 120.0
        assert rate == pytest.approx(1000.0, rel=0.25)

    def test_deterministic_for_seed(self):
        n1 = self.chatter_net(seed=5)
        n1[0].run(30.0)
        n2 = self.chatter_net(seed=5)
        n2[0].run(30.0)
        assert n1[2].datagrams_sent == n2[2].datagrams_sent

    def test_stop(self):
        net, hosts, chatter = self.chatter_net()
        net.run(10.0)
        chatter.stop()
        count = chatter.datagrams_sent
        net.run(30.0)
        assert chatter.datagrams_sent == count

    def test_needs_two_hosts(self):
        net = Network()
        a = net.add_host("A")
        with pytest.raises(TrafficError):
            BackgroundChatter([a])

    def test_broadcast_fraction_reaches_everyone(self):
        net, hosts, chatter = self.chatter_net()
        net.run(60.0)
        # Every host should have seen some broadcast chatter.
        assert all(h.udp_no_port > 0 for h in hosts)


class TestDscpMarking:
    def test_dscp_marks_every_datagram(self):
        net = Network()
        a = net.add_host("A")
        b = net.add_host("B")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(a, sw)
        net.connect(b, sw)
        net.announce_hosts()
        load = StaircaseLoad(
            a, b.primary_ip, StepSchedule([(0.0, 100_000.0), (5.0, 0.0)]),
            dscp=46,
        )
        load.start()
        net.run(6.0)
        tos_out = a.interfaces[0].tos_out_octets
        assert tos_out.get(46 << 2, 0) > 0
        # Everything the generator sent is accounted under its mark.
        assert tos_out.get(46 << 2) == sum(
            octets for tos, octets in tos_out.items() if tos != 0
        )
        assert b.interfaces[0].tos_in_octets.get(46 << 2, 0) > 0

    def test_default_is_best_effort(self):
        net = Network()
        a = net.add_host("A")
        b = net.add_host("B")
        sw = net.add_switch("sw", 4, managed=False)
        net.connect(a, sw)
        net.connect(b, sw)
        net.announce_hosts()
        StaircaseLoad(
            a, b.primary_ip, StepSchedule([(0.0, 50_000.0), (3.0, 0.0)])
        ).start()
        net.run(4.0)
        assert set(a.interfaces[0].tos_out_octets) <= {0}

    def test_dscp_out_of_range_rejected(self):
        net = Network()
        a = net.add_host("A")
        with pytest.raises(TrafficError):
            StaircaseLoad(a, "10.0.0.2", StepSchedule([(0.0, 1.0)]), dscp=64)
        with pytest.raises(TrafficError):
            StaircaseLoad(a, "10.0.0.2", StepSchedule([(0.0, 1.0)]), dscp=-1)
