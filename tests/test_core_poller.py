"""Unit tests for the SNMP poller: deltas, uptime intervals, wraps."""

from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributed import MonitorWorker
from repro.core.poller import _COLUMNS, InterfaceRates, PollTarget, RateTable, SnmpPoller
from repro.snmp.ber import TAG_COUNTER32
from repro.snmp.errors import SnmpErrorResponse, SnmpTimeout
from repro.simnet.network import Network
from repro.simnet.sockets import DISCARD_PORT
from repro.snmp.agent import SnmpAgent
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import SYS_UPTIME, build_mib2
from tests.costs import HandManager, per_exchange


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


# ----------------------------------------------------------------------
# The cycle clock: the poller closes its own cycles, telemetry on or off
# ----------------------------------------------------------------------
def watch_cycles(poller):
    """Every ``on_cycle`` call from now on, as ``(number, cycles begun)``."""
    fired = []
    poller.on_cycle = lambda number: fired.append((number, poller.cycles))
    return fired


def ghost(peer):
    """A target on a host that runs no agent: every exchange times out."""
    return PollTarget("ghost", peer.primary_ip, [1])


class TestOnCycle:
    """With telemetry off, as every worker polls, ``on_cycle`` fires once
    per cycle and in cycle order, however the cycle ended."""

    def run_out(self, net, poller, until):
        """Poll until ``until``, then stop and let what is in flight land."""
        assert not poller.telemetry.enabled
        fired = watch_cycles(poller)
        poller.start()
        net.run(until)
        poller.stop()
        net.run(until + 10.0)
        assert [number for number, _ in fired] == list(range(1, poller.cycles + 1))
        return fired

    def test_a_timed_out_agent(self):
        net, poller, target, peer = polling_net()
        poller.targets.append(ghost(peer))
        self.run_out(net, poller, 10.0)
        assert poller.telemetry.registry.value("poll_timeout_errors_total") >= 3

    def test_every_target_suppressed_by_the_breaker(self):
        net, poller, target, peer = polling_net()
        poller.targets[:] = [ghost(peer)]
        fired = self.run_out(net, poller, 30.0)
        assert poller.polls_suppressed >= 3
        # A cycle that polled nothing is over as it begins.
        assert sum(number == begun for number, begun in fired) >= poller.polls_suppressed

    def test_a_cycle_force_closed_by_the_next(self):
        net, poller, target, peer = polling_net(interval=1.0)
        poller.targets.append(ghost(peer))  # its timeout outlasts the interval
        fired = self.run_out(net, poller, 6.0)
        assert any(begun == number + 1 for number, begun in fired)

    def test_a_window_overrun(self):
        net, poller, target, peer = polling_net()
        windowed = SnmpPoller(
            poller.manager, [ghost(peer)] * 3, interval=1.0, pipeline_window=1
        )
        self.run_out(net, windowed, 6.0)
        assert windowed.window_overruns > 0

    def test_an_adoption_poll(self):
        """A crashed worker's agents move to the survivors, which poll them
        at once and half an interval later, between their own cycles."""
        from repro.core.distributed import DistributedMonitor
        from repro.experiments.testbed import build_testbed
        from repro.simnet.faults import WorkerCrash

        build = build_testbed()
        dm = DistributedMonitor(
            build, coordinator_host="L", worker_hosts=["L", "S1", "S2"], poll_jitter=0.0
        )
        survivors = [dm.workers[name].poller for name in ("L", "S1")]
        fired = [watch_cycles(poller) for poller in survivors]
        WorkerCrash(build.network.sim, dm.workers["S2"], at=5.0, until=100.0)
        dm.start()
        build.network.run(20.0)
        periodic = 20.0 // dm.poll_interval + 1
        for poller, hooks in zip(survivors, fired):
            assert not poller.telemetry.enabled
            assert poller.cycles >= periodic + 2  # the two adoption polls
            # Once each, in order; only the last may still be open.
            numbers = [number for number, _ in hooks]
            assert numbers == list(range(1, len(numbers) + 1))
            assert len(numbers) >= poller.cycles - 1

    def test_a_stopped_poller_launches_nothing_more(self):
        """Stopped during its first cycle, with a window of one and four
        targets, a poller used to send the three queued requests after
        stop(); the backlog is dropped instead, the exchange in flight
        with it, and the cycle closes once, at stop()."""
        net, poller, target, peer = polling_net()
        windowed = SnmpPoller(
            poller.manager, [PollTarget("S1", target.primary_ip, [1])] * 4,
            pipeline_window=1,
        )
        fired = watch_cycles(windowed)
        windowed.start()
        net.run(net.now)  # the first cycle begins: one request out, three queued
        sent = windowed.manager.requests_sent
        assert sent == 1 and fired == []
        windowed.stop()
        assert fired == [(1, 1)]
        net.run(net.now + 10.0)  # the reply in flight lands: nothing changes
        assert windowed.manager.requests_sent == sent
        assert fired == [(1, 1)]
        assert windowed.samples_produced == 0 and windowed._last == {}

    def test_a_worker_crashed_mid_cycle_closes_its_cycle(self):
        """A worker crashes with its cycle's exchanges in flight: its
        teardown stops the poller and cancels those exchanges without
        errbacks.  The parent never closed that cycle; now stop() closes
        it, once, and the crashed worker ships nothing."""
        from repro.core.distributed import DistributedMonitor
        from repro.experiments.testbed import build_testbed

        build = build_testbed()
        dm = DistributedMonitor(
            build, coordinator_host="L", worker_hosts=["L", "S1", "S2"], poll_jitter=0.0
        )
        worker = dm.workers["S2"]
        fired = watch_cycles(worker.poller)
        samples = []
        worker.poller.on_sample = samples.append
        dm.start()
        net = build.network
        net.run(4.0)  # cycles 1 and 2 closed by their last answers; 3 begins
        assert worker.poller.cycles == 3 and worker.manager._pending  # in flight
        assert [number for number, _ in fired] == [1, 2]
        shipped = len(samples)
        worker.crash()
        assert [number for number, _ in fired] == [1, 2, 3]
        net.run(net.now + 10.0)
        assert [number for number, _ in fired] == [1, 2, 3] and len(samples) == shipped


class _Worker:
    """What :class:`~repro.core.distributed.MonitorWorker`'s adoption path
    reads of its worker, around a bare poller; its two methods run as
    they are."""

    crashed, _started = False, True
    _apply_targets = MonitorWorker._apply_targets
    _adoption_poll = MonitorWorker._adoption_poll

    def __init__(self, poller):
        self.poller, self.sim, self.poll_interval = poller, poller.sim, poller.interval


FAILURES = {
    "timeout": SnmpTimeout("a", 2),
    "error_response": SnmpErrorResponse(5, 1),
    "error": ValueError("unreadable reply"),
}


class CycleRig(HandManager):
    """A started poller of ``agents`` agents, two interfaces each, whose
    exchanges this manager answers by hand.  Logged in order: ``("start",
    c)`` as cycle ``c`` begins, ``("launch", c)`` for an exchange launched
    in it, ``("answer", c)`` and ``("done", c)`` around the answer to one,
    ``("sample", c)`` for each sample that answer hands to ``on_sample``,
    ``("stop", c)`` as the poller is stopped, and ``("close", c)`` from
    ``on_cycle``.  The steps of a program are its methods."""

    def __init__(self, agents, window, telemetry=False):
        super().__init__(telemetry)
        targets = [PollTarget(f"a{i}", None, [1, 2]) for i in range(agents)]
        self.poller = poller = SnmpPoller(self, targets, pipeline_window=window)
        self.worker, self.agents = _Worker(poller), agents
        self.log, self.units, self.ticks, self.answering = [], {}, 0, None
        poller.on_sample = lambda sample: self.log.append(("sample", self.answering))
        poller.on_cycle = lambda number: self.log.append(("close", number))
        begin = poller._poll_cycle

        def poll_cycle():
            cycle, suppressed = poller.cycles + 1, poller.polls_suppressed
            self.log.append(("start", cycle))
            begin()
            self.units[cycle] = len(poller.targets) - (poller.polls_suppressed - suppressed)

        poller._poll_cycle = poll_cycle
        poller.start()

    def poll_interfaces(self, address, if_indexes, columns, callback, errback, **_):
        self.log.append(("launch", self.poller.cycles))
        self.pending.append((self.poller.cycles, callback, errback))

    def answer(self, index, outcome):
        if not self.pending:
            return
        cycle, callback, errback = self.pending.pop(index % len(self.pending))
        self.ticks += 200
        self.log.append(("answer", cycle))
        self.answering = cycle
        if outcome == "ok":
            row = {i: (TAG_COUNTER32, 1000 * self.ticks) for i in (1, 2)}
            callback((self.ticks, {column: row for column in _COLUMNS}))
        else:
            errback(FAILURES[outcome])
        self.log.append(("done", cycle))

    def advance(self, seconds):
        self.sim.run(self.sim.now + seconds)

    def kill(self, index):
        """The breaker opens on one agent: it is suppressed until its probe."""
        node = self.poller.targets[index % len(self.poller.targets)].node
        for _ in range(self.poller.health.dead_after):
            self.poller.health.record_failure(node, self.sim.now)

    def adopt(self):
        """The worker is handed one more agent in place of its first."""
        self.agents += 1
        targets = self.poller.targets[1:] + [PollTarget(f"a{self.agents}", None, [1, 2])]
        self.worker._apply_targets(targets)

    def stop(self):
        self.log.append(("stop", self.poller.cycles))
        self.poller.stop()

    def drain(self):
        while self.pending:
            self.answer(0, "ok")


def closing_rule(log, units):
    """``(due, unfinished)``, replaying ``log``: the position of the entry
    after which each cycle must close -- its last unit resolved (answered,
    dropped from the backlog by the next cycle's start, or dropped queued
    or in flight by ``stop()``), or the next cycle began first -- and, for
    a cycle the next one closed with exchanges still out, how many."""
    due, unfinished, open_cycle, left, queued = {}, {}, None, 0, 0
    for pos, (kind, cycle) in enumerate(log):
        if kind in ("start", "stop") and open_cycle is not None:
            left -= queued
            due[open_cycle] = pos
            if kind == "start" and left:
                unfinished[open_cycle] = left
            open_cycle = None
            queued = 0
        if kind == "start":
            open_cycle, left, queued = cycle, units[cycle], units[cycle]
        elif kind == "launch" and cycle == open_cycle:
            queued -= 1
        elif kind == "answer" and cycle == open_cycle:
            left -= 1
        if open_cycle is not None and not left:
            due[open_cycle] = pos
            open_cycle = None
    return due, unfinished


PROGRAMS = st.lists(
    st.one_of(
        st.tuples(
            st.just("answer"), st.integers(0, 7),
            st.sampled_from(["ok", "ok", "ok", *FAILURES]),
        ),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        st.tuples(st.just("kill"), st.integers(0, 7)),
        st.just(("adopt",)),
        st.just(("stop",)),
    ),
    max_size=40,
)
#: Every way a cycle ends, in one program of three agents, one in flight
#: at a time: answered, refused and timed out (cycle 1); a window
#: overrun and the next cycle first (2), then a straggler; an adoption
#: poll first (3), the breaker open on every agent (5 to 7), and the
#: poller stopped with a backlog (8).
EVERY_ENDING = (3, 1, [
    ("advance", 0.0), ("answer", 0, "ok"), ("answer", 0, "error_response"),
    ("answer", 0, "timeout"),
    ("advance", 2.0), ("answer", 0, "ok"), ("advance", 2.0), ("answer", 0, "ok"),
    ("adopt",), ("answer", 0, "error"), ("kill", 0), ("kill", 1), ("kill", 2),
    ("advance", 1.0), ("advance", 1.0), ("advance", 2.0), ("answer", 0, "timeout"),
    ("advance", 2.0), ("answer", 0, "ok"), ("stop",),
])


def run_program(agents, window, program, telemetry=False):
    rig = CycleRig(agents, window, telemetry)
    for name, *args in program:
        getattr(rig, name)(*args)
    rig.drain()
    return rig


class TestTheCycleClock:
    """Any sequence of exchange outcomes, breaker decisions, adoption polls,
    cycle starts and a stop, against the rule the poller keeps."""

    @settings(max_examples=150, deadline=None)
    @given(
        agents=st.integers(1, 4), window=st.integers(0, 3), program=PROGRAMS,
    )
    @example(*EVERY_ENDING)
    def test_on_cycle_fires_once_per_cycle_when_its_last_sample_is_out(
        self, agents, window, program
    ):
        rig = run_program(agents, window, program)
        log, cycles = rig.log, rig.poller.cycles
        closes = [number for kind, number in log if kind == "close"]
        assert closes == list(range(1, cycles + 1))  # once each, in cycle order
        close = {number: pos for pos, (kind, number) in enumerate(log) if kind == "close"}
        due, _ = closing_rule(log, rig.units)
        for number in closes:
            # Right after what made it due: only that answer's samples, and
            # the closes of cycles before it, come between.
            assert due[number] < close[number], (number, log)
            between = log[due[number] + 1:close[number]]
            assert all(
                entry == ("sample", number) or (entry[0] == "close" and entry[1] < number)
                for entry in between
            ), (number, between)
        answer = None
        for pos, (kind, number) in enumerate(log):
            if kind == "answer":
                answer = pos, number
            elif kind == "done":
                answer = None
            elif kind == "sample":
                # A cycle's samples are out before its close, but for
                # those of a straggler, answered after it.
                assert pos < close[number] or answer[0] > close[number], (pos, log)
            elif kind == "close" and answer is not None:
                # A straggler from a closed cycle never fires the hook.
                assert close[answer[1]] >= pos, (answer, log)

    @settings(max_examples=60, deadline=None)
    @given(
        agents=st.integers(1, 4), window=st.integers(0, 3), program=PROGRAMS,
    )
    @example(*EVERY_ENDING)
    def test_telemetry_reads_the_same_clock(self, agents, window, program):
        """With telemetry on the hook fires at the same instants, each
        cycle span reads its close, and one the next cycle closed carries
        how many exchanges were still out."""
        quiet = run_program(agents, window, program)
        rig = run_program(agents, window, program, telemetry=True)
        assert rig.log == quiet.log
        _, unfinished = closing_rule(rig.log, rig.units)
        tracer, cycles = rig.telemetry.tracer, rig.poller.cycles
        spans = tracer.spans("poll_cycle")
        assert [span.attrs["cycle"] for span in spans] == list(range(1, cycles + 1))
        assert {
            span.attrs["cycle"]: span.attrs.get("unfinished_exchanges") for span in spans
        } == {number: unfinished.get(number) for number in range(1, cycles + 1)}
        exchanges = tracer.spans("snmp_exchange")
        assert len(exchanges) == sum(rig.units.values())
        assert {span.attrs["outcome"] for span in exchanges} <= {
            "ok", "timeout", "error_response", "error", "overrun", "dropped",
        }
        assert rig.telemetry.registry.value("poll_cycle_seconds")["count"] == cycles


class TestCostPerExchange:
    """The slope of a steady cycle with telemetry off, 4 against 8 agents
    (``tests/costs.py::per_exchange``).  Before the poller kept its own
    cycle clock an exchange cost 25 Python calls answered and 21 timed
    out; the clock may add 2 (its span begun and finished, by the disabled
    tracer).  It adds 1: the clock is read once a cycle, not once a target."""

    @pytest.mark.parametrize("outcome, before", [("ok", 25), ("timeout", 21)])
    def test_the_cycle_clock_adds_at_most_two_calls(self, outcome, before):
        calls = per_exchange(outcome)
        assert sum(calls.values()) <= before + 2, calls
