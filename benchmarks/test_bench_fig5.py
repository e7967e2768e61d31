"""Benchmark + regeneration of Figure 5 (hosts connected by a hub).

Asserts the paper's core hub claim: BOTH monitored paths through the hub
(S1<->N1 and S1<->N2) report the *sum* of the loads addressed to the two
NT machines, because the hub repeats every frame to every host.
"""

import numpy as np

from repro.experiments import fig5
from repro.experiments.scenarios import format_series


def window_mean(pair, t0, t1):
    mask = (pair.times > t0) & (pair.times < t1)
    return float(pair.measured_kbps[mask].mean())


def test_bench_fig5_hub_sum(benchmark, fig5_result):
    benchmark.pedantic(lambda: fig5.run(seed=1), rounds=1, iterations=1)
    print()
    for line in format_series(fig5_result, stride=3):
        print(line)
    for label, stats in sorted(fig5_result.stats.items()):
        print(f"{label}: mean %err {stats.mean_pct_error:.1f}, "
              f"max %err {stats.max_pct_error:.1f} "
              f"(paper: {fig5.PAPER_AVG_PCT_ERROR} / {fig5.PAPER_MAX_PCT_ERROR})")

    for label in ("S1<->N1", "S1<->N2"):
        pair = fig5_result.pairs[label]
        # N1-only window: 200; overlap: 400; N2-only: 200; after: ~0.
        assert abs(window_mean(pair, 25, 38) - 200) < 20
        assert abs(window_mean(pair, 45, 58) - 400) < 30
        assert abs(window_mean(pair, 65, 78) - 200) < 20
        assert window_mean(pair, 85, 105) < 10
    # The two hub paths see the SAME traffic (shared medium).
    p1, p2 = fig5_result.pairs["S1<->N1"], fig5_result.pairs["S1<->N2"]
    n = min(len(p1.measured_kbps), len(p2.measured_kbps))
    diff = np.abs(p1.measured_kbps[:n] - p2.measured_kbps[:n])
    assert diff.mean() < 15.0
    # Accuracy bands around the paper's 3.7 % / 7.8 %.
    for stats in fig5_result.stats.values():
        assert stats.mean_pct_error < 6.0
        assert stats.max_pct_error < 25.0
