"""Table 2: statistics of the measured traffic load from the Fig-4 run.

Paper values (for reference; their testbed, our simulator):

    background traffic          0.824 KB/s
    avg measured less background ~4 % above the generated level
    max individual %error       5 - 16 % (worst spikes from SNMP
                                polling delay / stale agent counters)

The reproduction computes the identical statistics from the simulated
run.  Absolute numbers differ (different background sources, different
agent staleness), but the structure holds: a small positive systematic
error from packet headers plus monitoring traffic, and much larger
worst-case single-interval errors caused by counter displacement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.series import stable_mask
from repro.analysis.stats import TrafficStatistics, compute_table2
from repro.experiments import fig4

# The paper's Table 2, as printed (KB/s and percentages).  The max-%error
# column digits are partially corrupted in the available text; the prose
# says "about 4%" average and "the large error (16%)" worst case.
PAPER_BACKGROUND_KBPS = 0.824
PAPER_AVG_PCT_ERROR = 4.0
PAPER_MAX_PCT_ERROR = 16.0
PAPER_LEVELS = [100.0, 200.0, 300.0, 400.0, 500.0]

# Guard band (s) around load transitions excluded from per-level stats;
# covers poll jitter plus the agents' counter-refresh staleness.
TRANSITION_GUARD = 1.0


@dataclass
class Table2Result:
    stats: TrafficStatistics
    fig4_result: "fig4.Fig4Result"


def compute(result: "fig4.Fig4Result") -> TrafficStatistics:
    """Table-2 statistics from a Figure-4 run."""
    pair = result.pair
    stable = stable_mask(
        pair.times, result.schedule, window=result.poll_interval, guard=TRANSITION_GUARD
    )
    return compute_table2(
        pair.measured_kbps,
        pair.generated_kbps,
        stable=stable,
        levels=PAPER_LEVELS,
    )


def run(seed: int = 0, poll_interval: float = 2.0) -> Table2Result:
    result = fig4.run(seed=seed, poll_interval=poll_interval)
    return Table2Result(stats=compute(result), fig4_result=result)


def main(seed: int = 0) -> Table2Result:
    out = run(seed=seed)
    print("Table 2 -- Statistics of Measured Traffic Load (KB/s)")
    print(out.stats.format_table())
    print()
    print(
        f"paper: background {PAPER_BACKGROUND_KBPS} KB/s, "
        f"avg error ~{PAPER_AVG_PCT_ERROR}%, worst individual error "
        f"~{PAPER_MAX_PCT_ERROR}%"
    )
    return out

