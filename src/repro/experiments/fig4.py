"""Experiment §4.3.1 / Figure 4: dynamically varying network load.

"A set of experiments was performed to observe the network traffic
between a Windows NT machine, N1, and the Solaris 7 machine, S1.  The
path that data followed was: S1 - switch - hub - N1.  ... network traffic
was generated from L to N1 using the network load generator.  Starting at
100 Kbytes/second for 120 seconds, we increased the amount of data sent by
the load generator by 100 Kbytes/second each 60 seconds.  After 360
seconds, the load generator was sending 500 Kbytes/second from L to N1.
The entire load was eliminated at 420 seconds."

Timeline (with a 60-second quiet lead-in that provides the zero-load
samples the paper's background estimate needs)::

    [  0,  60)    0 KB/s
    [ 60, 180)  100 KB/s      <- "starting at 100 KB/s for 120 seconds"
    [180, 240)  200 KB/s
    [240, 300)  300 KB/s
    [300, 360)  400 KB/s
    [360, 420)  500 KB/s      <- "after 360 seconds ... 500 KB/s"
    [420, 480)    0 KB/s      <- "eliminated at 420 seconds"

Figure 4a is the generated series, Figure 4b the monitor's measured
series on path S1 <-> N1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.traversal import format_path
from repro.experiments.scenarios import Scenario, SeriesPair
from repro.simnet.trafficgen import KBPS, StepSchedule

PATH_SRC = "S1"
PATH_DST = "N1"
LOAD_SRC = "L"
LOAD_DST = "N1"
RUN_UNTIL = 480.0

# The first level holds for 120 s while the rest hold 60 s, so the exact
# breakpoints are written out rather than using StepSchedule.staircase().
LOAD_SCHEDULE = StepSchedule(
    [
        (60.0, 100 * KBPS),
        (180.0, 200 * KBPS),
        (240.0, 300 * KBPS),
        (300.0, 400 * KBPS),
        (360.0, 500 * KBPS),
        (420.0, 0.0),
    ]
)

LEVELS_KBPS = [100.0, 200.0, 300.0, 400.0, 500.0]


@dataclass
class Fig4Result:
    pair: SeriesPair  # measured vs generated, KB/s
    schedule: StepSchedule
    path_description: str
    poll_interval: float
    monitor_stats: dict
    scenario: Scenario


def run(seed: int = 0, poll_interval: float = 2.0) -> Fig4Result:
    """Run the Figure 4 experiment; deterministic for a given seed."""
    scenario = Scenario(poll_interval=poll_interval, seed=seed)
    label = scenario.watch(PATH_SRC, PATH_DST)
    scenario.add_load(LOAD_SRC, LOAD_DST, LOAD_SCHEDULE)
    scenario.run(RUN_UNTIL)
    pair = scenario.series_pair(label, [LOAD_DST])
    path = scenario.monitor.path_of(label)
    return Fig4Result(
        pair=pair,
        schedule=LOAD_SCHEDULE,
        path_description=format_path(path, PATH_SRC),
        poll_interval=poll_interval,
        monitor_stats=scenario.monitor.stats(),
        scenario=scenario,
    )


def format_series(result: Fig4Result, stride: int = 5) -> List[str]:
    """The Figure 4 rows: time, generated (4a), measured (4b)."""
    lines = [
        f"path: {result.path_description}",
        f"{'time (s)':>9} {'generated (KB/s)':>17} {'measured (KB/s)':>16}",
    ]
    pair = result.pair
    for i in range(0, len(pair.times), stride):
        lines.append(
            f"{pair.times[i]:9.1f} {pair.generated_kbps[i]:17.1f} "
            f"{pair.measured_kbps[i]:16.2f}"
        )
    return lines


def main(seed: int = 0) -> Fig4Result:
    from repro.analysis.charts import render_pair

    result = run(seed=seed)
    print("Figure 4 -- dynamically varying network load (S1 <-> N1)")
    print(render_pair(result.pair, title="Fig 4a/4b: generated (-) vs measured (*)"))
    print()
    for line in format_series(result):
        print(line)
    return result

