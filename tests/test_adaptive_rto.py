"""Tests for adaptive retransmission timeouts (RFC 6298 style)."""

import pytest

from repro.simnet.faults import ResponseDelay
from repro.simnet.network import Network
from repro.snmp.agent import SnmpAgent
from repro.snmp.manager import (
    DEFAULT_MIN_RTO,
    DEFAULT_TIMEOUT,
    RtoEstimator,
    SnmpManager,
)
from repro.snmp.mib import SYS_NAME, build_mib2


class TestRtoEstimator:
    def test_initial_rto_until_first_sample(self):
        est = RtoEstimator()
        assert est.rto == DEFAULT_TIMEOUT
        assert est.samples == 0

    def test_first_sample_seeds_srtt_and_rttvar(self):
        est = RtoEstimator(min_rto=0.0)
        est.observe(0.2)
        assert est.srtt == pytest.approx(0.2)
        assert est.rttvar == pytest.approx(0.1)
        assert est.rto == pytest.approx(0.2 + 4 * 0.1)

    def test_converges_toward_steady_rtt(self):
        est = RtoEstimator(min_rto=0.0)
        for _ in range(50):
            est.observe(0.1)
        assert est.srtt == pytest.approx(0.1, rel=0.01)
        # Variance decays toward zero on a steady stream.
        assert est.rto < 0.15

    def test_min_and_max_clamps(self):
        est = RtoEstimator(min_rto=0.25, max_rto=2.0)
        for _ in range(50):
            est.observe(0.001)
        assert est.rto == 0.25
        est2 = RtoEstimator(min_rto=0.25, max_rto=2.0)
        est2.observe(10.0)
        assert est2.rto == 2.0

    def test_backoff_doubles_per_attempt(self):
        est = RtoEstimator(max_rto=3.0)
        assert est.timeout_for(1) == 1.0
        assert est.timeout_for(2) == 2.0
        assert est.timeout_for(3) == 3.0  # clamped

    def test_negative_sample_ignored(self):
        est = RtoEstimator()
        est.observe(-0.1)
        assert est.samples == 0


def agent_pair(extra_delay=None, delay_at=0.0):
    """Monitor host plus two agent hosts, one optionally slowed."""
    net = Network()
    mon = net.add_host("L")
    fast = net.add_host("F")
    slow = net.add_host("S")
    sw = net.add_switch("sw", 6, managed=False)
    for h in (mon, fast, slow):
        net.connect(h, sw)
    net.announce_hosts()
    SnmpAgent(fast, build_mib2(fast, net.sim))
    slow_agent = SnmpAgent(slow, build_mib2(slow, net.sim))
    if extra_delay is not None:
        ResponseDelay(net.sim, slow_agent, extra=extra_delay, at=delay_at, until=None)
    manager = SnmpManager(mon, retries=2)
    return net, manager, fast, slow


def poll_every(net, manager, host, period, count, start=0.0):
    """Schedule ``count`` GETs of ``host``; returns the list their
    answers land in."""
    answers = []
    for i in range(count):
        net.sim.schedule_at(
            start + i * period,
            lambda: manager.get(host.primary_ip, [SYS_NAME], answers.append),
        )
    return answers


class TestManagerAdaptation:
    def test_rto_converges_down_for_fast_agent(self):
        net, manager, fast, slow = agent_pair()
        answers = poll_every(net, manager, fast, 1.0, 10)
        net.run(12.0)
        # LAN RTT is milliseconds; the floor stops the collapse.
        assert manager.current_rto(fast.primary_ip) == DEFAULT_MIN_RTO
        estimator = manager.estimator_for(fast.primary_ip)
        assert len(answers) == 10 and estimator.samples == 10
        assert manager.retransmissions == 0
        assert estimator.srtt < 0.05

    def test_slow_agent_raises_its_own_rto_only(self):
        """The acceptance case: a ResponseDelay fault raises the slow
        destination's timeout past the injected delay, and once the
        estimator converges no further retransmissions fire."""
        # Ten clean polls first, so the RTO converges down to the floor
        # (0.25 s) before the agent turns slow (+0.6 s) at t=10.
        net, manager, fast, slow = agent_pair(extra_delay=0.6, delay_at=10.0)
        poll_every(net, manager, fast, 1.0, 30)
        answers = poll_every(net, manager, slow, 1.0, 30)
        net.run(36.0)
        assert manager.current_rto(slow.primary_ip) > 0.6
        assert manager.current_rto(fast.primary_ip) == DEFAULT_MIN_RTO
        # Every request was eventually answered -- the slow agent is alive.
        assert len(answers) == 30
        assert manager.estimator_for(slow.primary_ip).samples == 30
        assert manager.timeouts == 0
        # Right after the slowdown the converged-low RTO fires spurious
        # retransmits (the fast agent's never does); adaptation must then
        # stop them entirely.
        mark = manager.retransmissions
        assert mark > 0
        later = poll_every(net, manager, slow, 1.0, 10, start=36.0)
        net.run(50.0)
        assert len(answers) + len(later) == 40
        assert manager.retransmissions == mark  # zero new retransmits

    def test_estimators_are_per_destination(self):
        net, manager, fast, slow = agent_pair(extra_delay=0.6)
        poll_every(net, manager, fast, 1.0, 10)
        poll_every(net, manager, slow, 1.0, 10)
        net.run(15.0)
        assert (
            manager.current_rto(slow.primary_ip)
            > manager.current_rto(fast.primary_ip)
        )

    def test_timeout_counted_per_destination(self):
        net, manager, fast, slow = agent_pair()
        errors = []
        # The monitor host runs no agent: requests to it die.
        manager.get(net.host("L").primary_ip, [SYS_NAME], lambda vbs: None, errors.append)
        net.run(20.0)
        assert len(errors) == 1
        assert manager.timeouts == 1
        assert manager.retransmissions == 2  # retries=2
        assert manager.estimator_for(net.host("L").primary_ip).samples == 0
