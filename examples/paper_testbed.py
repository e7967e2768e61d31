#!/usr/bin/env python3
"""The paper's evaluation, end to end, on the Figure-3 testbed.

Rebuilds the LIRTSS LAN (one 100 Mb/s switch, one 10 Mb/s hub, hosts L,
S1-S6, N1-N2), runs a compressed version of the §4.3.1 staircase load from
L to N1, and prints:

- the generated-vs-measured series (Figures 4a/4b);
- the Table-2 accuracy statistics next to the paper's reference values.

For the full-length (480 simulated seconds) runs see the paper-artefact
gates: ``pytest benchmarks/ --benchmark-only``.

Run:  python examples/paper_testbed.py
"""

from repro import Scenario, StepSchedule
from repro.analysis.series import stable_mask
from repro.analysis.stats import compute_table2
from repro.simnet.trafficgen import KBPS

# Compressed staircase: 100 / 200 / 300 KB/s, 30 s per level.
SCHEDULE = StepSchedule(
    [(20.0, 100 * KBPS), (50.0, 200 * KBPS), (80.0, 300 * KBPS), (110.0, 0.0)]
)
RUN_UNTIL = 140.0


def main() -> None:
    scenario = Scenario(seed=0)
    label = scenario.watch("S1", "N1")
    scenario.add_load("L", "N1", SCHEDULE)
    print("running the compressed Fig-4 staircase on the Figure-3 testbed...")
    scenario.run(RUN_UNTIL)

    pair = scenario.series_pair(label, ["N1"])
    print(f"\npath: S1 -> switch -> hub -> N1   (poll interval "
          f"{scenario.monitor.poll_interval}s)")
    print(f"{'time (s)':>9} {'generated (KB/s)':>17} {'measured (KB/s)':>16}")
    for i in range(0, len(pair.times), 3):
        print(f"{pair.times[i]:9.1f} {pair.generated_kbps[i]:17.1f} "
              f"{pair.measured_kbps[i]:16.2f}")

    stable = stable_mask(pair.times, SCHEDULE, window=2.0, guard=1.0)
    stats = compute_table2(pair.measured_kbps, pair.generated_kbps, stable=stable)
    print()
    print(stats.format_table())
    print("\npaper reference (full-length run): background 0.824 KB/s, "
          "avg error ~4%, worst individual error up to ~16%")


if __name__ == "__main__":
    main()
