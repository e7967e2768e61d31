"""Experiment §4.3.2 / Figure 5: hosts connected by a hub.

"A hub forwards data packets to all the connected hosts ... Our
monitoring program considers this by summing the traffic through a hub
when computing the amount of bandwidth used on any communication path
through the hub.  ... We started with no data being sent to either NT
machine.  After 20 seconds, we began to send 200 Kbytes/second from L to
N1.  20 seconds later, we began to send 200 Kbytes/second from L to N2.
After another 20 seconds, the traffic from L to N1 was reduced to [zero].
20 seconds later the traffic from L to N2 was also eliminated."

Expected measured pattern on BOTH paths S1<->N1 and S1<->N2 (they share
the hub medium, so both see the hub *sum*)::

    [ 0, 20)    0 KB/s
    [20, 40)  200 KB/s   (N1 load only)
    [40, 60)  400 KB/s   (N1 + N2)
    [60, 80)  200 KB/s   (N2 only)
    [80, ..)    0 KB/s

Paper accuracy: "3.7 % error on average values of measured traffic (less
background), with maximum individual error of 7.8 %".
"""

from __future__ import annotations

from repro.experiments.scenarios import PathsResult, print_report, run_paths
from repro.simnet.trafficgen import KBPS, StepSchedule

RUN_UNTIL = 110.0
HUB_HOSTS = ["N1", "N2"]
LOAD_N1 = StepSchedule.pulse(20.0, 60.0, 200 * KBPS)
LOAD_N2 = StepSchedule.pulse(40.0, 80.0, 200 * KBPS)
TRANSITION_GUARD = 1.0

PAPER_AVG_PCT_ERROR = 3.7
PAPER_MAX_PCT_ERROR = 7.8

# Both paths cross the hub: each is expected to carry the hub sum.
EXPECTED_LOADS = {("S1", host): HUB_HOSTS for host in HUB_HOSTS}
LOADS = {"N1": LOAD_N1, "N2": LOAD_N2}


def run(seed: int = 0, poll_interval: float = 2.0) -> PathsResult:
    return run_paths(
        EXPECTED_LOADS, LOADS, RUN_UNTIL, TRANSITION_GUARD, seed, poll_interval
    )


def main(seed: int = 0) -> PathsResult:
    result = run(seed=seed)
    print_report(
        result,
        "Figure 5 -- hub-connected hosts (paths S1<->N1 and S1<->N2 see the hub sum)",
        "hub sum (-) vs measured (*) on {label}",
        PAPER_AVG_PCT_ERROR,
        PAPER_MAX_PCT_ERROR,
    )
    return result

