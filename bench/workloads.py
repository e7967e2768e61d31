"""The four benchmark workloads.

Every workload goes through the product's public constructors with
product defaults only (no ``poll_mode`` / ``delta_shipping`` /
``incremental`` knobs): the numbers follow the one obvious way through
the stack, and survive the removal of those knobs.  ``seed`` drives
everything random -- flow endpoints and rates, watch pairs, the
monitor's ``seed`` and the agents' ``agent_seed`` -- and is turned into
plain inputs *before* the product is touched; the product receives only
those inputs.

A workload object is one run's rig.  The harness calls ``spec()``,
``build()`` and ``start()`` in that order (each under its own span and
timer), advances ``network`` to ``WARM_UNTIL`` and then one
``POLL_INTERVAL`` at a time.  ``counters()`` (cumulative), ``gauges()``
(sampled every cycle) and ``sizes()`` (read once) use public attributes
only; a read of an attribute that is gone yields ``None``, and a key
that is absent means the workload has no such layer.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.hierarchy import HierarchicalMonitor
from repro.core.monitor import NetworkMonitor
from repro.experiments import table2
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.experiments.scenarios import Scenario
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.stream.queries import ThresholdQuery

POLL_INTERVAL = 2.0
#: No workload measures fewer steady cycles: p90 needs ten samples
#: beyond it, and the campus has a deterministic slow cycle every fifth.
MIN_CYCLES = 100

Counts = Dict[str, Optional[float]]


def read(fn: Callable[[], float]) -> Optional[float]:
    """``fn()``, or ``None`` when the attribute it reads is gone."""
    try:
        return fn()
    except (AttributeError, KeyError, TypeError):
        return None


def steady_cycles(cycles_per_10s: int, seconds: float) -> int:
    """Steady window length: proportional to ``--seconds``, floored."""
    return max(MIN_CYCLES, round(cycles_per_10s * seconds / 10.0))


# ----------------------------------------------------------------------
# Counters shared by every workload
# ----------------------------------------------------------------------
def _network_counters(network, monitor_hosts: Sequence[str]) -> Counts:
    switches = list(network.switches.values())
    return {
        "simnet.events": read(lambda: network.sim.events_processed),
        "simnet.frames_flooded": read(
            lambda: sum(s.frames_flooded for s in switches)
        ),
        "simnet.frames_forwarded": read(
            lambda: sum(s.frames_forwarded for s in switches)
        ),
        "simnet.nic_discards": read(
            lambda: sum(
                i.counters.in_discards + i.counters.out_discards
                for i in network.all_interfaces()
            )
        ),
        "monitor_octets": read(
            lambda: sum(
                i.counters.in_octets + i.counters.out_octets
                for name in monitor_hosts
                for i in network.host(name).interfaces
            )
        ),
    }


def _history_counters(monitor) -> Counts:
    return {
        "history.nbytes": read(lambda: monitor.history.storage_stats().nbytes),
        "history.points": read(lambda: monitor.history.storage_stats().samples),
    }


def _flat_counters(monitor: NetworkMonitor) -> Counts:
    """Cumulative counters of the single-process monitor."""
    stats = read(lambda: monitor.stats()) or {}
    key = lambda name: read(lambda: stats[name])  # noqa: E731
    out = {
        "snmp.exchanges": read(lambda: monitor.manager.requests_sent),
        "snmp.retries": read(lambda: monitor.manager.retransmissions),
        "snmp.timeouts": read(lambda: monitor.manager.timeouts),
        "poller.samples": read(lambda: monitor.poller.samples_produced),
        "poller.overruns": read(lambda: monitor.poller.window_overruns),
        "integrity.samples": read(lambda: monitor.poller.samples_produced),
        "integrity.nonclean_verdicts": read(
            lambda: stats["integrity_violations"]
            + monitor.telemetry.registry.value("integrity_suspect_samples_total")
        ),
        "dataflow.cache_hits": key("cache_hits"),
        "dataflow.recomputes": key("recomputes"),
        "stream.events_delivered": key("stream_events_delivered"),
        "stream.events_suppressed": key("stream_events_suppressed"),
        "stream.events_dropped": key("stream_events_dropped"),
        "probe.trains": key("probe_trains"),
        "probe.bytes": key("probe_bytes_sent"),
        "probe.timeouts": read(
            lambda: monitor.prober.trains_abandoned if monitor.prober else 0
        ),
        "monitor.topology_rounds": key("topology_rounds"),
        "monitor.topology_changes": key("topology_changes"),
        "monitor.path_reroutes": key("path_reroutes"),
        "reports": key("reports"),
    }
    out.update(_history_counters(monitor))
    return out


def _flat_gauges(monitor: NetworkMonitor) -> Counts:
    return {
        "poller.window_peak": read(lambda: monitor.poller.window_peak),
        "integrity.quarantined": read(
            lambda: len(monitor.integrity.quarantined_keys())
        ),
        "dataflow.dirty_pairs": read(
            lambda: monitor.stream.matrix.dirty_pairs_last if monitor.stream else 0
        ),
    }


def _flat_sizes(monitor: NetworkMonitor) -> Counts:
    hosts = read(lambda: len(monitor.stream.matrix.hosts) if monitor.stream else 0)
    return {
        "snmp.varbinds_per_cycle": read(
            lambda: sum(len(t.oids()) for t in monitor.poller.targets)
        ),
        "dataflow.pairs": None if hosts is None else hosts * (hosts - 1) // 2,
    }


def _tree_workers(monitor: HierarchicalMonitor) -> list:
    return [w for leaf in monitor.leaves.values() for w in leaf.dm.workers.values()]


def _tree_counters(monitor: HierarchicalMonitor) -> Counts:
    """Cumulative counters of the coordinator tree."""
    stats = read(lambda: monitor.stats()) or {}
    key = lambda name: read(lambda: stats[name])  # noqa: E731
    workers = read(lambda: _tree_workers(monitor))  # None -> every read below is None
    leaves = read(lambda: list(monitor.leaves.values()))
    encoders = lambda: [leaf.shipper.delta for leaf in leaves]  # noqa: E731
    out = {
        "snmp.exchanges": read(lambda: sum(w.manager.requests_sent for w in workers)),
        "snmp.retries": read(lambda: sum(w.manager.retransmissions for w in workers)),
        "snmp.timeouts": read(lambda: sum(w.manager.timeouts for w in workers)),
        "poller.samples": read(
            lambda: sum(w.poller.samples_produced for w in workers)
        ),
        "poller.overruns": read(
            lambda: sum(w.poller.window_overruns for w in workers)
        ),
        "integrity.samples": key("samples_received"),
        "integrity.nonclean_verdicts": read(
            lambda: monitor.telemetry.registry.value("integrity_violations_total")
            + monitor.telemetry.registry.value("integrity_suspect_samples_total")
        ),
        "distributed.batches": key("batches_received"),
        "distributed.uplink_bytes": read(
            lambda: sum(leaf.shipper.bytes_shipped for leaf in leaves)
        ),
        "distributed.records_advance": read(
            lambda: sum(e.records_advance for e in encoders())
        ),
        "distributed.records": read(
            lambda: sum(
                e.records_full + e.records_changed + e.records_advance
                + e.records_refresh
                for e in encoders()
            )
        ),
        "distributed.keyframes": read(
            lambda: sum(leaf.shipper.keyframes_shipped for leaf in leaves)
        ),
        "distributed.retransmits": key("retx_requests"),
        "distributed.duplicate_batches": key("duplicate_batches"),
        "distributed.gaps_detected": key("gaps_detected"),
        "distributed.decode_errors": key("decode_errors"),
        "dataflow.cache_hits": read(lambda: monitor.calculator.cache_hits),
        "dataflow.recomputes": read(lambda: monitor.calculator.recomputes),
    }
    out.update(_history_counters(monitor))
    return out


def _tree_gauges(monitor: HierarchicalMonitor) -> Counts:
    return {
        "poller.window_peak": read(
            lambda: max(leaf.window_peak for leaf in monitor.leaves.values())
        ),
        "integrity.quarantined": read(
            lambda: len(monitor.integrity.quarantined_keys())
        ),
    }


def _tree_sizes(monitor: HierarchicalMonitor) -> Counts:
    workers = read(lambda: _tree_workers(monitor))  # None -> every read below is None
    return {
        "snmp.varbinds_per_cycle": read(
            lambda: sum(len(t.oids()) for w in workers for t in w.poller.targets)
        ),
    }


def _check_reports(reports: Sequence) -> List[str]:
    """Checks every workload's steady reports must pass."""
    failures = []
    for report in reports:
        if not report.trusted:
            failures.append(f"{report.label} at t={report.time}: {report.status}")
        recomputed = min(
            (
                0.0 if m.rule == "down" else max(0.0, m.capacity_bps - m.used_bps)
                for m in report.connections
            ),
            default=float("inf"),
        )
        if recomputed != report.available_bps:
            failures.append(
                f"{report.label} at t={report.time}: available "
                f"{report.available_bps} != min(capacity - used) {recomputed}"
            )
    return failures


def _start_flow(network, src: str, dst: str, steps) -> StaircaseLoad:
    flow = StaircaseLoad(network.host(src), network.ip_of(dst), StepSchedule(steps))
    flow.start()
    return flow


# ----------------------------------------------------------------------
# testbed_staircase
# ----------------------------------------------------------------------
class TestbedStaircase:
    """The paper's Figure-4 run on the Figure-3 testbed."""

    name = "testbed_staircase"
    why = (
        "The paper's own Figure-4 experiment, the only one with ground truth: "
        "simnet does half the work, the control plane almost none."
    )
    CYCLES_PER_10S = 148  # warm-up to t=4 s, then to 300 s (the paper ran 480)
    WARM_UNTIL = 4.0
    START_AT = 0.0
    LEVELS_KBPS = (100.0, 200.0, 300.0, 400.0, 500.0)
    __test__ = False  # not a pytest class, despite the name

    def __init__(self, seed: int, cycles: int) -> None:
        self.seed = seed
        self.cycles = cycles
        self.horizon = self.WARM_UNTIL + cycles * POLL_INTERVAL
        # Figure 4's staircase (0 | 100 for two units | 200..500 one unit
        # each | 0) over the horizon, with the zero-load lead-in and tail
        # shortened to 3/4 and 1/4 unit: with the paper's full units half
        # of all cycles sit at or below the 100 KB/s level, so the median
        # cycle would fall exactly on the step to 200 KB/s and flip
        # between the two with the slightest noise.  Now p50 falls in the
        # middle of the 200 level and p90 inside the 500 level.
        unit = self.horizon / 7.0
        self.schedule = StepSchedule(
            [
                ((0.75 + (0 if i == 0 else i + 1)) * unit, level * KBPS)
                for i, level in enumerate(self.LEVELS_KBPS)
            ]
            + [(6.75 * unit, 0.0)]
        )
        self.reports: list = []

    def spec(self) -> None:
        pass  # the testbed spec is built inside Scenario

    def build(self) -> None:
        self.scenario = Scenario(seed=self.seed)  # chatter on, poll_jitter 0.25
        self.network = self.scenario.network
        self.monitor = self.scenario.monitor

    def start(self) -> None:
        self.labels = [self.scenario.watch("S1", "N1")]
        self.scenario.add_load("L", "N1", self.schedule)
        self.monitor.subscribe(self.reports.append)
        self.monitor.start()

    monitor_hosts = ("L",)

    def counters(self) -> Counts:
        out = _network_counters(self.network, self.monitor_hosts)
        out.update(_flat_counters(self.monitor))
        return out

    def gauges(self) -> Counts:
        return _flat_gauges(self.monitor)

    def sizes(self) -> Counts:
        return _flat_sizes(self.monitor)

    def accuracy(self):
        pair = self.scenario.series_pair(self.labels[0], ["N1"])
        return table2.compute(
            SimpleNamespace(
                pair=pair, schedule=self.schedule, poll_interval=POLL_INTERVAL
            )
        )

    def avg_error_pct(self) -> Optional[float]:
        return self.accuracy().mean_pct_error

    def check(self, steady_reports: Sequence, **_) -> List[str]:
        failures = _check_reports(steady_reports)
        expected = int((self.horizon - 2.5) // POLL_INTERVAL) + 1
        if len(self.reports) != expected:
            failures.append(f"{len(self.reports)} reports, expected {expected}")
        stats = self.accuracy()
        if not stats.mean_pct_error < 6.0:
            failures.append(f"avg_error_pct {stats.mean_pct_error:.2f} >= 6")
        tracked = {lv.generated for lv in stats.levels if lv.pct_error < 10.0}
        missing = sorted(set(self.LEVELS_KBPS) - tracked)
        if missing:
            failures.append(f"measured series does not track levels {missing}")
        return failures


# ----------------------------------------------------------------------
# campus_quiescent / campus_churn
# ----------------------------------------------------------------------
class Campus:
    """Four-pod campus under the two-level coordinator tree."""

    CYCLES_PER_10S = 100
    WARM_UNTIL = 7.0
    START_AT = 0.0
    PODS, SWITCHES, HOSTS_PER_SWITCH = 4, 5, 15
    WATCHES = 8
    FLOWS = 16
    FLOW_RATES_KBPS = (5.0, 10.0, 15.0, 20.0)
    FLOWS_START = 1.0

    def __init__(self, seed: int, cycles: int, churn: bool) -> None:
        self.seed = seed
        self.cycles = cycles
        self.churn = churn
        rng = random.Random(seed)
        self.plan = hierarchy_plan(
            self.PODS, switches=self.SWITCHES, hosts_per_switch=self.HOSTS_PER_SWITCH
        )
        busy = {w for shard in self.plan["shards"].values() for w in shard["workers"]}

        def endpoints(k: int) -> Tuple[str, str]:
            """The k-th cross-pod pair.  Which pods and switches it joins
            is fixed, so every seed routes over the same hop counts and
            does the same amount of work; the seed picks the hosts."""
            pod_a = k % self.PODS
            pod_b = (pod_a + 1 + (k // self.PODS) % (self.PODS - 1)) % self.PODS
            ends = []
            for pod, switch in ((pod_a, k % self.SWITCHES), (pod_b, (2 * k + 1) % self.SWITCHES)):
                while True:
                    host = f"p{pod}h{switch}_{rng.randrange(self.HOSTS_PER_SWITCH)}"
                    if host not in busy and host not in used:
                        break
                used.add(host)
                ends.append(host)
            return ends[0], ends[1]

        used: set = set()
        self.watch_pairs = [endpoints(k) for k in range(self.WATCHES)]
        # Flow 0 runs between the first watch's endpoints, so that watch
        # has a known lower bound on what it must report.
        self.flow_steps: List[Tuple[str, str, list]] = []
        if churn:
            instants = [self.FLOWS_START] + [
                k * POLL_INTERVAL
                for k in range(1, int(self.WARM_UNTIL // POLL_INTERVAL) + cycles + 1)
            ]
            for i in range(self.FLOWS):
                src, dst = (
                    self.watch_pairs[0] if i == 0 else endpoints(self.WATCHES + i)
                )
                steps = [(t, rng.choice(self.FLOW_RATES_KBPS) * KBPS) for t in instants]
                self.flow_steps.append((src, dst, steps))
        self.reports: list = []
        self.monitor_hosts = (
            [self.plan["root"]] + list(self.plan["shards"]) + sorted(busy)
        )

    def spec(self) -> None:
        self.topology = scale_spec(
            hierarchical=self.PODS,
            switches=self.SWITCHES,
            hosts_per_switch=self.HOSTS_PER_SWITCH,
            host_agents=False,
        )

    def build(self) -> None:
        self.built = build_network(self.topology, agent_seed=self.seed)
        self.network = self.built.network

    def start(self) -> None:
        self.monitor = HierarchicalMonitor(
            self.built, self.plan, poll_interval=POLL_INTERVAL, poll_jitter=0.0,
            seed=self.seed,
        )
        self.labels = [self.monitor.watch_path(a, b) for a, b in self.watch_pairs]
        self.monitor.subscribe(self.reports.append)
        self.flows = [
            _start_flow(self.network, src, dst, steps)
            for src, dst, steps in self.flow_steps
        ]
        self.monitor.start()

    def counters(self) -> Counts:
        out = _network_counters(self.network, self.monitor_hosts)
        out.update(_tree_counters(self.monitor))
        return out

    def gauges(self) -> Counts:
        return _tree_gauges(self.monitor)

    def sizes(self) -> Counts:
        return _tree_sizes(self.monitor)

    def avg_error_pct(self) -> Optional[float]:
        return None  # no ground truth off the testbed

    def check(self, steady_reports: Sequence, totals: Counts, **_) -> List[str]:
        failures = _check_reports(steady_reports)
        if totals["distributed.decode_errors"] != 0:
            failures.append(f"decode_errors = {totals['distributed.decode_errors']}")
        if self.churn:
            # A report covers one of the last few poll intervals (worker
            # -> leaf -> root adds up to a cycle of lag), so it must show
            # at least the smallest rate flow 0 offered over those.
            schedule = StepSchedule(self.flow_steps[0][2])
            for report in steady_reports:
                if report.label != self.labels[0]:
                    continue
                floor = min(
                    schedule.rate_at(report.time - k * POLL_INTERVAL)
                    for k in (1, 2, 3)
                )
                if report.used_bps < 0.9 * floor:
                    failures.append(
                        f"{report.label} at t={report.time}: used "
                        f"{report.used_bps:.0f} < 0.9 x offered {floor:.0f}"
                    )
        return failures


class CampusQuiescent(Campus):
    name = "campus_quiescent"
    why = (
        "The PR-10 scale path with the network idle: snmp and integrity "
        "dominate, simnet is small; set-up is the O(hosts^2) announce flood."
    )

    def __init__(self, seed: int, cycles: int) -> None:
        super().__init__(seed, cycles, churn=False)


class CampusChurn(Campus):
    name = "campus_churn"
    why = (
        "Same campus with 16 flows whose rates re-draw every cycle: deltas ship "
        "CHANGED records, activity-gated validators run, simnet carries load."
    )

    def __init__(self, seed: int, cycles: int) -> None:
        super().__init__(seed, cycles, churn=True)


# ----------------------------------------------------------------------
# mesh_flat
# ----------------------------------------------------------------------
class MeshFlat:
    """Redundant mesh under the flat monitor with everything only it has."""

    name = "mesh_flat"
    why = (
        "The other monitor class: all-pairs matrix, stream, probing, topology "
        "sync and per-agent GETs; dataflow and telemetry show here only."
    )
    CYCLES_PER_10S = 100
    WARM_UNTIL = 6.5
    # Spanning tree settles (and flushes the switches' FDBs) inside the
    # first second; hosts re-announce after that so steady-state unicast
    # is forwarded, not flooded, and the monitor starts once they have.
    ANNOUNCE_AT, START_AT = 2.0, 2.5
    SWITCHES, HOSTS_PER_SWITCH = 6, 6
    MONITOR_HOST = "h0_0"
    WATCHES = 4
    # Switch pairs (the mesh is a chain sw0..sw5): four watches, four flows.
    SPANS = ((0, 5), (1, 4), (2, 3), (0, 3), (1, 5), (2, 4), (3, 5), (0, 2))
    SUBSCRIBERS, PAIRS_PER_SUBSCRIBER = 64, 3
    FLOWS = 4
    FLOW_RATES_KBPS = (2.0, 4.0, 6.0, 8.0)
    FLOWS_START = 3.0
    REDRAW_EVERY = 10  # cycles
    PROBE_BUDGET = 0.02

    def __init__(self, seed: int, cycles: int) -> None:
        self.seed = seed
        self.cycles = cycles
        rng = random.Random(seed)
        hosts = [
            f"h{s}_{h}"
            for s in range(self.SWITCHES)
            for h in range(self.HOSTS_PER_SWITCH)
            if f"h{s}_{h}" != self.MONITOR_HOST
        ]
        used: set = set()

        def endpoints(k: int) -> Tuple[str, str]:
            """The k-th pair joins fixed switches of the chain, so every
            seed crosses the same hops; the seed picks the hosts."""
            ends = []
            for switch in self.SPANS[k]:
                while True:
                    host = f"h{switch}_{rng.randrange(self.HOSTS_PER_SWITCH)}"
                    if host != self.MONITOR_HOST and host not in used:
                        break
                used.add(host)
                ends.append(host)
            return ends[0], ends[1]

        self.watch_pairs = [endpoints(k) for k in range(self.WATCHES)]
        self.subscriptions = [
            [tuple(rng.sample(hosts, 2)) for _ in range(self.PAIRS_PER_SUBSCRIBER)]
            for _ in range(self.SUBSCRIBERS)
        ]
        period = self.REDRAW_EVERY * POLL_INTERVAL
        instants = [self.FLOWS_START] + [
            k * period
            for k in range(1, int((self.WARM_UNTIL + cycles * POLL_INTERVAL) // period) + 1)
        ]
        self.flow_steps = [
            (
                *endpoints(self.WATCHES + i),
                [(t, rng.choice(self.FLOW_RATES_KBPS) * KBPS) for t in instants],
            )
            for i in range(self.FLOWS)
        ]
        self.reports: list = []
        self.events_seen = 0
        self.monitor_hosts = (self.MONITOR_HOST,)

    def spec(self) -> None:
        self.topology = scale_spec(
            switches=self.SWITCHES,
            hosts_per_switch=self.HOSTS_PER_SWITCH,
            arity=1,
            redundant_uplinks=1,
        )

    def build(self) -> None:
        self.built = build_network(self.topology, agent_seed=self.seed)
        self.network = self.built.network

    def _on_event(self, event) -> None:
        self.events_seen += 1

    def start(self) -> None:
        self.monitor = monitor = NetworkMonitor(
            self.built, self.MONITOR_HOST, poll_interval=POLL_INTERVAL,
            poll_jitter=0.0, seed=self.seed,
        )
        monitor.enable_topology_sync(full_every=120)
        self.labels = [monitor.watch_path(a, b) for a, b in self.watch_pairs]
        publisher = monitor.enable_streaming()
        for i, pairs in enumerate(self.subscriptions):
            publisher.manager.subscribe(f"sub{i}", pairs=pairs, callback=self._on_event)
        publisher.register_query(
            ThresholdQuery(
                "starved", metric="available", op="<", threshold=1e6, for_samples=2
            ),
            "sub0",
        )
        monitor.enable_probing()
        monitor.subscribe(self.reports.append)
        self.flows = [
            _start_flow(self.network, src, dst, steps)
            for src, dst, steps in self.flow_steps
        ]
        self.network.announce_hosts(at=self.ANNOUNCE_AT)
        monitor.start(at=self.START_AT)

    def counters(self) -> Counts:
        out = _network_counters(self.network, self.monitor_hosts)
        out.update(_flat_counters(self.monitor))
        return out

    def gauges(self) -> Counts:
        return _flat_gauges(self.monitor)

    def sizes(self) -> Counts:
        return _flat_sizes(self.monitor)

    def avg_error_pct(self) -> Optional[float]:
        return None  # no ground truth off the testbed

    def check(
        self,
        steady_reports: Sequence,
        totals: Counts,
        growth: Counts,
        dirty_pairs: Optional[float],
        probe_load_share: Optional[float],
    ) -> List[str]:
        failures = _check_reports(steady_reports)
        if totals["monitor.topology_changes"] != 1:
            failures.append(
                f"{totals['monitor.topology_changes']} STP topology changes, "
                "expected exactly 1"
            )
        if growth["monitor.path_reroutes"] != 0:
            failures.append(f"{growth['monitor.path_reroutes']} reroutes after warm-up")
        if not probe_load_share <= self.PROBE_BUDGET:
            failures.append(f"probe load_share {probe_load_share} > {self.PROBE_BUDGET}")
        # Every dirty pair is either suppressed at the source or offered
        # to its subscribers, who see each event the manager delivered;
        # nothing may be dropped on the way.
        if totals["stream.events_dropped"] != 0:
            failures.append(f"{totals['stream.events_dropped']} stream events dropped")
        if not growth["stream.events_suppressed"] <= dirty_pairs:
            failures.append("more pair changes suppressed than pairs were dirty")
        if self.events_seen != totals["stream.events_delivered"]:
            failures.append(
                f"subscribers saw {self.events_seen} events, manager delivered "
                f"{totals['stream.events_delivered']}"
            )
        return failures


WORKLOADS = {
    cls.name: cls for cls in (TestbedStaircase, CampusQuiescent, CampusChurn, MeshFlat)
}
