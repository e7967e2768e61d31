"""Experiment §4.3.3 / Figure 6: hosts connected by a switch.

"A switch only forwards packets to the host for which they are destined
... The traffic through a switch is not summed up.  Instead, only traffic
going to and from a particular host is considered ... 2,000 Kbytes/second
of traffic was generated at time 20-60, 40-80, and 100-120 seconds from L
to S2, S3, and S1 respectively.  As shown in Figure 6d-e, the load sent
to S2 can only be seen between S1 and S2, and the load to S3 appears only
between S1 and S3, while the load to S1 is present in both paths because
S1 has only one connection to the switch."

Expected measured pattern::

    path S1<->S2: 2000 KB/s during [20,60) and [100,120), else ~0
    path S1<->S3: 2000 KB/s during [40,80) and [100,120), else ~0

Paper accuracy: "2.2 % error on average values of measured traffic (less
background), with maximum individual error of 7.8 %.  The smaller
percentage error on average values is due to the much larger volume of
traffic generated."
"""

from __future__ import annotations

from repro.experiments.scenarios import PathsResult, print_report, run_paths
from repro.simnet.trafficgen import KBPS, StepSchedule

RUN_UNTIL = 140.0
LOAD_S2 = StepSchedule.pulse(20.0, 60.0, 2000 * KBPS)
LOAD_S3 = StepSchedule.pulse(40.0, 80.0, 2000 * KBPS)
LOAD_S1 = StepSchedule.pulse(100.0, 120.0, 2000 * KBPS)
TRANSITION_GUARD = 1.0

PAPER_AVG_PCT_ERROR = 2.2
PAPER_MAX_PCT_ERROR = 7.8

# Which destination loads each watched path is expected to carry: the
# far-end host's loads plus S1's own (S1 has only one switch connection).
EXPECTED_LOADS = {
    ("S1", "S2"): ["S2", "S1"],
    ("S1", "S3"): ["S3", "S1"],
}
LOADS = {"S2": LOAD_S2, "S3": LOAD_S3, "S1": LOAD_S1}


def run(seed: int = 0, poll_interval: float = 2.0) -> PathsResult:
    return run_paths(
        EXPECTED_LOADS, LOADS, RUN_UNTIL, TRANSITION_GUARD, seed, poll_interval
    )


def main(seed: int = 0) -> PathsResult:
    result = run(seed=seed)
    print_report(
        result,
        "Figure 6 -- switch-connected hosts (per-port isolation)",
        "expected (-) vs measured (*) on {label}",
        PAPER_AVG_PCT_ERROR,
        PAPER_MAX_PCT_ERROR,
    )
    return result

