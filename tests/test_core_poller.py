"""Unit tests for the SNMP poller: deltas, uptime intervals, wraps."""

from dataclasses import astuple

import pytest

from repro.core.poller import _COLUMNS, InterfaceRates, PollTarget, RateTable, SnmpPoller
from repro.snmp.ber import TAG_COUNTER32
from repro.simnet.network import Network
from repro.simnet.sockets import DISCARD_PORT
from repro.snmp.agent import SnmpAgent
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import SYS_UPTIME, build_mib2


def derive(poller, node, if_index, snapshot):
    """Hand ``snapshot`` to the poller as a one-row reply of ``node``."""
    uptime, *values = astuple(snapshot)
    tables = {col: {if_index: (TAG_COUNTER32, v)} for col, v in zip(_COLUMNS, values)}
    poller._derive(node, (if_index,), uptime, tables)


def polling_net(interval=2.0, jitter=0.0):
    net = Network()
    mon = net.add_host("L")
    target_host = net.add_host("S1")
    peer = net.add_host("S2")
    sw = net.add_switch("sw", 6, managed=False)
    for h in (mon, target_host, peer):
        net.connect(h, sw)
    net.announce_hosts()
    SnmpAgent(target_host, build_mib2(target_host, net.sim))
    manager = SnmpManager(mon, retries=1)
    target = PollTarget("S1", target_host.primary_ip, [1])
    poller = SnmpPoller(manager, [target], interval=interval, jitter=jitter)
    return net, poller, target_host, peer


def collect_samples(poller):
    """Every sample the poller hands over from now on, in order (each
    still lands in its table)."""
    seen = []
    land = poller.on_sample
    poller.on_sample = lambda sample: (seen.append(sample), land(sample))
    return seen


class TestRateTable:
    def sample(self, t=1.0, in_rate=10.0):
        return InterfaceRates("n", 1, t, 2.0, in_rate, 5.0, 1.0, 0.5)

    def test_latest_and_history(self):
        table = RateTable()
        table.update(self.sample(t=1.0, in_rate=10.0))
        table.update(self.sample(t=2.0, in_rate=20.0))
        assert table.latest("n", 1).in_bytes_per_s == 20.0
        assert table.latest("n", 2) is None

    def test_keys_sorted(self):
        table = RateTable()
        table.update(InterfaceRates("b", 1, 0, 1, 0, 0, 0, 0))
        table.update(InterfaceRates("a", 2, 0, 1, 0, 0, 0, 0))
        assert table.keys() == [("a", 2), ("b", 1)]

    def test_total_rate(self):
        s = InterfaceRates("n", 1, 0, 1, in_bytes_per_s=10, out_bytes_per_s=4,
                           in_pkts_per_s=0, out_pkts_per_s=0)
        assert s.total_bytes_per_s == 14


class TestPolling:
    def test_first_poll_is_baseline_only(self):
        net, poller, *_ = polling_net()
        poller.start()
        net.run(1.0)  # one poll fired
        assert poller.samples_produced == 0

    def test_rates_reflect_traffic(self):
        net, poller, target, peer = polling_net(interval=2.0)
        poller.start()
        sock = peer.create_socket()
        # steady ~50 KB/s towards the target
        from repro.simnet.trafficgen import StaircaseLoad, StepSchedule

        StaircaseLoad(
            peer, target.primary_ip, StepSchedule([(0.0, 50_000.0), (20.0, 0.0)]),
            payload_size=972,
        ).start()
        net.run(20.0)
        latest = poller.rates.latest("S1", 1)
        assert latest is not None
        assert latest.in_bytes_per_s == pytest.approx(50_000 * (1000 / 972), rel=0.05)
        assert latest.interval == pytest.approx(2.0, abs=0.2)

    def test_interval_from_uptime_not_schedule(self):
        """A delayed poll must not corrupt the rate (uptime delta is exact)."""
        net, poller, target, peer = polling_net(interval=2.0, jitter=0.5)
        poller.rng.seed(123)
        samples = collect_samples(poller)
        poller.start()
        from repro.simnet.trafficgen import StaircaseLoad, StepSchedule

        StaircaseLoad(
            peer, target.primary_ip, StepSchedule([(0.0, 50_000.0), (40.0, 0.0)]),
            payload_size=972,
        ).start()
        net.run(40.0)
        history = samples[2:]  # skip warmup
        rates = [s.in_bytes_per_s for s in history]
        expected = 50_000 * (1000 / 972)
        for rate in rates:
            assert rate == pytest.approx(expected, rel=0.05)
        intervals = [s.interval for s in history]
        assert max(intervals) - min(intervals) > 0.1  # jitter really applied

    def test_counter_wrap_handled(self):
        net, poller, target, peer = polling_net(interval=2.0)
        # Pre-position the counter just below the 32-bit wrap.
        target.interfaces[0].counters.in_octets = (1 << 32) - 5000
        history = collect_samples(poller)
        poller.start()
        net.run(3.0)  # baseline taken near the top
        from repro.simnet.trafficgen import StaircaseLoad, StepSchedule

        StaircaseLoad(
            peer, target.primary_ip, StepSchedule([(3.0, 50_000.0), (30.0, 0.0)]),
            payload_size=972,
        ).start()
        net.run(30.0)
        assert all(s.in_bytes_per_s >= 0 for s in history)
        busy = [s for s in history if 6.0 < s.time < 29.0]
        expected = 50_000 * (1000 / 972)
        for s in busy:
            assert s.in_bytes_per_s == pytest.approx(expected, rel=0.06)

    def test_unreachable_target_counts_errors(self):
        net, poller, target, peer = polling_net()
        bad = PollTarget("ghost", peer.primary_ip, [1])  # no agent on peer
        poller.targets.append(bad)
        poller.start()
        net.run(10.0)
        assert poller.poll_errors >= 3
        # The reachable target still produced samples.
        assert poller.rates.latest("S1", 1) is not None

    def test_stop_halts_polling(self):
        net, poller, *_ = polling_net()
        poller.start()
        net.run(5.0)
        cycles = poller.cycles
        poller.stop()
        net.run(20.0)
        assert poller.cycles == cycles

    def test_double_start_rejected(self):
        net, poller, *_ = polling_net()
        poller.start()
        with pytest.raises(RuntimeError):
            poller.start()

    def test_bad_interval_rejected(self):
        net, poller, *_ = polling_net()
        with pytest.raises(ValueError):
            SnmpPoller(poller.manager, [], interval=0.0)

    def test_on_sample_callback(self):
        net, poller, *_ = polling_net()
        seen = []
        poller.on_sample = seen.append
        poller.start()
        net.run(10.0)
        assert len(seen) == poller.samples_produced > 0

    def test_agent_restart_rebaselines(self):
        """A sysUpTime reset (daemon restart) must not produce garbage
        rates; the poller re-baselines and resumes."""
        net, poller, target, peer = polling_net(interval=2.0)
        history = collect_samples(poller)
        poller.start()
        net.run(6.0)  # a few clean samples exist
        # Simulate the daemon restarting: rebuild its MIB with a fresh
        # boot time (uptime restarts near zero) and zeroed counters.
        from repro.snmp.mib import build_mib2

        target.interfaces[0].counters.in_octets = 0
        target.interfaces[0].counters.out_octets = 0
        # The agent owns port 161; its bound method leads back to it.
        agent = target._sockets[161].on_receive.__self__
        agent.mib = build_mib2(target, net.sim, boot_time=net.now)
        samples_before = poller.samples_produced
        net.run(20.0)
        assert poller.agent_restarts >= 1
        # No sample may span the restart with an absurd interval.
        assert all(s.interval < 100.0 for s in history)
        # And polling resumed producing samples afterwards.
        assert poller.samples_produced > samples_before

    def test_packet_rates_tracked(self):
        net, poller, target, peer = polling_net()
        poller.start()
        from repro.simnet.trafficgen import StaircaseLoad, StepSchedule

        StaircaseLoad(
            peer, target.primary_ip, StepSchedule([(0.0, 9720.0), (20.0, 0.0)]),
            payload_size=972,
        ).start()  # 10 packets/s
        net.run(20.0)
        latest = poller.rates.latest("S1", 1)
        assert latest.in_pkts_per_s == pytest.approx(10.0, rel=0.1)


class TestIngestEdges:
    """Direct unit tests of the poller's sample-derivation branches."""

    def snap(self, uptime_s, octets=0):
        from repro.core.poller import _CounterSnapshot
        from repro.snmp.datatypes import Counter32, TimeTicks

        c = Counter32.wrap(octets).value
        return _CounterSnapshot(
            uptime=TimeTicks.from_seconds(uptime_s).value,
            octets_in=c, octets_out=c, ucast_in=c, ucast_out=c,
            nucast_in=0, nucast_out=0,
        )

    def test_same_tick_duplicate_dropped(self):
        net, poller, *_ = polling_net()
        derive(poller, "S1", 1, self.snap(10.0, octets=100))  # baseline
        derive(poller, "S1", 1, self.snap(10.0, octets=999))  # same uptime tick
        assert poller.samples_produced == 0
        assert poller.rates.latest("S1", 1) is None

    def test_counter32_wrap_yields_positive_rate(self):
        net, poller, *_ = polling_net()
        derive(poller, "S1", 1, self.snap(10.0, octets=(1 << 32) - 500))
        derive(poller, "S1", 1, self.snap(12.0, octets=1500))  # wrapped past 2^32
        latest = poller.rates.latest("S1", 1)
        assert latest is not None
        assert latest.in_bytes_per_s == pytest.approx((500 + 1500) / 2.0)

    def test_uptime_regression_counts_restart_and_rebaselines(self):
        net, poller, *_ = polling_net()
        derive(poller, "S1", 1, self.snap(1000.0, octets=5_000_000))
        derive(poller, "S1", 1, self.snap(1.0, octets=100))  # rebooted agent
        assert poller.agent_restarts == 1
        assert poller.samples_produced == 0  # baseline only, no garbage rate
        derive(poller, "S1", 1, self.snap(3.0, octets=4100))
        latest = poller.rates.latest("S1", 1)
        assert latest.in_bytes_per_s == pytest.approx(4000 / 2.0)
        assert latest.interval == pytest.approx(2.0)

    def test_one_reboot_is_one_restart_whatever_the_interfaces(self):
        """sysUpTime is the agent's, not an interface's: a reply that reads
        it reset is one restart -- one count, one event naming the agent
        and every interface re-baselined -- while integrity still forgets
        each interface's streak.  The parent counted four here."""
        from repro.telemetry.events import AGENT_RESTART

        net, poller, *_ = polling_net()
        forgotten = []

        class Integrity:
            def note_restart(self, node, if_index):
                forgotten.append((node, if_index))

            def inspect(self, sample, prev, cur, polled_speed=None):
                return True

        poller.integrity = Integrity()
        target = PollTarget("S1", None, [1, 2, 3, 4])

        def reply(uptime, octets):
            row = {i: (TAG_COUNTER32, octets) for i in target.if_indexes}
            return uptime, {col: row for col in _COLUMNS}

        poller._on_response(target, reply(100_000, 5_000))
        poller._on_response(target, reply(100, 40))  # the agent rebooted
        events = poller.telemetry.events
        assert poller.agent_restarts == 1 and events.count(AGENT_RESTART) == 1
        assert events.last(AGENT_RESTART).attrs == {"node": "S1", "if_indexes": (1, 2, 3, 4)}
        assert forgotten == [("S1", i) for i in (1, 2, 3, 4)]
        assert poller.samples_produced == 0
        poller._on_response(target, reply(300, 440))  # re-baselined: rates again
        assert poller.samples_produced == 4 and poller.agent_restarts == 1
        assert poller.rates.latest("S1", 3).in_bytes_per_s == pytest.approx(400 / 2.0)


class TestErrorClassification:
    def test_missing_counters_are_parse_errors_agent_stays_healthy(self):
        from repro.core.health import HealthState

        net, poller, target, peer = polling_net()
        # Interface 99 does not exist: v2c answers with NoSuchObject
        # values, so the response arrives but yields no counters.
        poller.targets[0] = PollTarget("S1", target.primary_ip, [99])
        poller.start()
        net.run(10.0)
        value = poller.telemetry.registry.value
        assert value("poll_parse_errors_total") >= 4
        assert value("poll_timeout_errors_total") == 0
        assert poller.poll_errors == 0  # the agent did answer
        assert poller.health.state("S1") is HealthState.HEALTHY

    def test_v1_error_status_counted_as_error_response(self):
        from repro.core.health import HealthState
        from repro.snmp.message import VERSION_1

        net, poller, target, peer = polling_net()
        v1_manager = SnmpManager(
            net.host("L"), retries=1, version=VERSION_1
        )
        v1_poller = SnmpPoller(
            v1_manager,
            [PollTarget("S1", target.primary_ip, [99])],
            interval=2.0,
            jitter=0.0,
        )
        v1_poller.start()
        net.run(10.0)
        # v1 has no per-varbind exceptions: the whole request fails with
        # noSuchName, which proves the agent alive but the poll useless.
        value = v1_poller.telemetry.registry.value
        assert value("poll_error_responses_total") >= 4
        assert v1_poller.poll_errors == value("poll_error_responses_total")
        assert value("poll_timeout_errors_total") == 0
        assert v1_poller.health.state("S1") is HealthState.HEALTHY
