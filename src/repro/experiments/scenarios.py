"""Common scenario machinery for the paper's experiments.

A :class:`Scenario` wraps a built testbed with a monitor on L, scheduled
UDP loads (the paper's load generator), background chatter, and helpers to
extract generated-vs-measured series in the paper's units (KB/s).
:func:`run_paths`, :func:`format_series` and :func:`print_report` are the
run, rows and printout Figures 5 and 6 share: several watched paths, each
scored against the loads it should carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.series import combined_stable_mask
from repro.analysis.stats import TrafficStatistics, compute_table2
from repro.core.history import PathSeries
from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import MONITOR_HOST, build_testbed
from repro.simnet.trafficgen import (
    KBPS,
    BackgroundChatter,
    StaircaseLoad,
    StepSchedule,
)

DEFAULT_POLL_INTERVAL = 2.0
# Reproduces the paper's "slight delay in SNMP polling": combined with the
# agents' timer-refreshed counters it displaces octets between intervals,
# giving single-sample errors in the paper's 5-16 % band while averages
# stay tight.
POLL_JITTER = 0.25


@dataclass
class SeriesPair:
    """Generated-vs-measured series for one path, in KB/s."""

    label: str
    times: np.ndarray  # report timestamps (s)
    measured_kbps: np.ndarray  # monitor-reported used bandwidth (KB/s)
    generated_kbps: np.ndarray  # scheduled load at the same timestamps

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.measured_kbps) == len(self.generated_kbps)):
            raise ValueError("series lengths disagree")


class Scenario:
    """A testbed + monitor + loads, runnable to a horizon."""

    def __init__(
        self,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        chatter_rate: float = 600.0,
        seed: int = 0,
    ) -> None:
        self.build = build_testbed(agent_seed=seed)
        self.network = self.build.network
        self.monitor = NetworkMonitor(
            self.build,
            MONITOR_HOST,
            poll_interval=poll_interval,
            poll_jitter=POLL_JITTER,
            seed=seed,
        )
        self.loads: Dict[str, StaircaseLoad] = {}
        self._load_schedules: Dict[str, Tuple[str, StepSchedule]] = {}
        self.chatter: Optional[BackgroundChatter] = None
        if chatter_rate > 0:
            chatter_hosts = [
                self.network.host(name)
                for name in ("L", "S1", "S2", "S3", "S4", "S5", "S6", "N1", "N2")
                if name in self.network.hosts
            ]
            self.chatter = BackgroundChatter(
                chatter_hosts, aggregate_rate_bps=chatter_rate, seed=seed + 17
            )

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_load(self, src: str, dst: str, schedule: StepSchedule) -> str:
        """Schedule a UDP load (paper §4.2) from ``src`` to ``dst``.

        Returns a label like ``"L==>N1"`` matching the paper's captions.
        """
        label = f"{src}==>{dst}"
        if label in self.loads:
            raise ValueError(f"load {label} already defined")
        generator = StaircaseLoad(
            self.network.host(src),
            self.network.ip_of(dst),
            schedule,
        )
        generator.start()
        self.loads[label] = generator
        self._load_schedules[label] = (dst, schedule)
        return label

    def watch(self, src: str, dst: str) -> str:
        return self.monitor.watch_path(src, dst)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float, start_monitor_at: float = 0.0) -> None:
        self.monitor.start(at=start_monitor_at)
        self.network.run(until)

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def path_series(self, label: str) -> PathSeries:
        return self.monitor.history.series(label)

    def generated_rate_at(self, dst_host: str, t: float) -> float:
        """Total scheduled payload rate toward ``dst_host`` at time ``t``.

        Used bandwidth on a path to a switch-connected host reflects only
        loads addressed to (or from) that host; on a hub segment the
        caller sums over all hub hosts instead (see :mod:`fig5`).
        """
        total = 0.0
        for dst, schedule in self._load_schedules.values():
            if dst == dst_host:
                total += schedule.rate_at(t)
        return total

    def series_pair(
        self,
        watch_label: str,
        generated_for: Sequence[str],
        offset: Optional[float] = None,
    ) -> SeriesPair:
        """Align the measured series with the generated schedule.

        ``generated_for`` lists the destination hosts whose loads the
        watched path is expected to carry (one host for switch paths, all
        hub hosts for hub paths).  ``offset`` shifts the generated series
        to the centre of each measurement interval (default: half the
        poll interval), since a report at time t covers roughly
        [t - interval, t].
        """
        series = self.path_series(watch_label)
        if offset is None:
            offset = self.monitor.poll_interval / 2.0 + self.monitor.report_offset
        times = series.times()
        measured = series.used() / KBPS
        generated = np.array(
            [
                sum(self.generated_rate_at(host, t - offset) for host in generated_for)
                for t in times
            ],
            dtype=float,
        ) / KBPS
        return SeriesPair(watch_label, times, measured, generated)


@dataclass
class PathsResult:
    """Several watched paths, each against the loads it should carry."""

    pairs: Dict[str, SeriesPair]  # watch label -> generated vs measured
    stats: Dict[str, TrafficStatistics]
    poll_interval: float
    monitor_stats: dict
    scenario: Scenario


def run_paths(
    expected: Dict[Tuple[str, str], Sequence[str]],
    loads: Dict[str, StepSchedule],
    until: float,
    guard: float,
    seed: int,
    poll_interval: float,
) -> PathsResult:
    """Watch every path, load L -> each host, run to ``until``, score.

    ``expected`` maps each watched ``(src, dst)`` to the load
    destinations whose traffic it should carry; ``loads`` maps each
    destination to its schedule.  A sample counts toward a path's
    Table-2 statistics only when it is stable with respect to every
    load, ``guard`` seconds clear of each transition.
    """
    scenario = Scenario(poll_interval=poll_interval, seed=seed)
    labels = {scenario.watch(src, dst): hosts for (src, dst), hosts in expected.items()}
    for dst, schedule in loads.items():
        scenario.add_load("L", dst, schedule)
    scenario.run(until)

    schedules = list(loads.values())
    pairs: Dict[str, SeriesPair] = {}
    stats: Dict[str, TrafficStatistics] = {}
    for label, hosts in labels.items():
        pair = scenario.series_pair(label, hosts)
        pairs[label] = pair
        stable = combined_stable_mask(
            pair.times, schedules, window=poll_interval, guard=guard
        )
        stats[label] = compute_table2(
            pair.measured_kbps, pair.generated_kbps, stable=stable
        )
    return PathsResult(
        pairs=pairs,
        stats=stats,
        poll_interval=poll_interval,
        monitor_stats=scenario.monitor.stats(),
        scenario=scenario,
    )


def format_series(result: PathsResult, stride: int = 2) -> List[str]:
    """Rows of time, then generated and measured KB/s for every path."""
    labels = sorted(result.pairs)
    lines = [
        f"{'time (s)':>9} "
        + " ".join(f"{'gen->'+lab:>16} {'meas '+lab:>16}" for lab in labels)
    ]
    n = len(result.pairs[labels[0]].times)
    for i in range(0, n, stride):
        row = [f"{result.pairs[labels[0]].times[i]:9.1f}"]
        for lab in labels:
            pair = result.pairs[lab]
            row.append(f"{pair.generated_kbps[i]:16.1f} {pair.measured_kbps[i]:16.2f}")
        lines.append(" ".join(row))
    return lines


def print_report(
    result: PathsResult,
    heading: str,
    chart_title: str,
    paper_avg_pct: float,
    paper_max_pct: float,
) -> None:
    """A figure's printout: one chart per path (``chart_title`` is
    formatted with its ``label``), the rows, each path's accuracy table,
    and the paper's own error figures."""
    from repro.analysis.charts import render_pair

    print(heading)
    for label in sorted(result.pairs):
        print(render_pair(result.pairs[label], title=chart_title.format(label=label)))
        print()
    for line in format_series(result):
        print(line)
    for label, stats in sorted(result.stats.items()):
        print()
        print(stats.format_table(title=f"accuracy on {label}"))
    print()
    print(f"paper: avg error {paper_avg_pct}%, max individual {paper_max_pct}%")
