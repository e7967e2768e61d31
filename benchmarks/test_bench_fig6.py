"""Benchmark + regeneration of Figure 6 (hosts connected by a switch).

Asserts the paper's per-port isolation claim: the 2000 KB/s load to S2 is
visible only on path S1<->S2, the load to S3 only on S1<->S3, and the
load to S1 on both (S1 has a single switch connection).
"""

import numpy as np

from repro.experiments import fig6
from repro.experiments.scenarios import format_series


def window_mean(pair, t0, t1):
    mask = (pair.times > t0) & (pair.times < t1)
    return float(pair.measured_kbps[mask].mean())


def test_bench_fig6_switch_isolation(benchmark, fig6_result):
    benchmark.pedantic(lambda: fig6.run(seed=1), rounds=1, iterations=1)
    print()
    for line in format_series(fig6_result, stride=3):
        print(line)
    for label, stats in sorted(fig6_result.stats.items()):
        print(f"{label}: mean %err {stats.mean_pct_error:.1f}, "
              f"max %err {stats.max_pct_error:.1f} "
              f"(paper: {fig6.PAPER_AVG_PCT_ERROR} / {fig6.PAPER_MAX_PCT_ERROR})")

    s2 = fig6_result.pairs["S1<->S2"]
    s3 = fig6_result.pairs["S1<->S3"]
    # Load to S2 only (20-40 s exclusive window used: 24-38):
    assert abs(window_mean(s2, 24, 38) - 2000) < 120
    assert window_mean(s3, 24, 38) < 60
    # Load to S3 only (60-80 s):
    assert abs(window_mean(s3, 64, 78) - 2000) < 120
    assert window_mean(s2, 64, 78) < 60
    # Load to S1: present on BOTH paths (100-120 s).
    assert abs(window_mean(s2, 104, 118) - 2000) < 120
    assert abs(window_mean(s3, 104, 118) - 2000) < 120
    # Idle tail.
    assert window_mean(s2, 125, 139) < 10
    # The paper: larger volume -> smaller average error (2.2 %).
    for stats in fig6_result.stats.values():
        assert stats.mean_pct_error < 5.0
        assert stats.max_pct_error < 25.0
