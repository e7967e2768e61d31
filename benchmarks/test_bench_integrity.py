"""Integrity-pipeline overhead guard on the Figure-4 poll cycle.

Runs the Figure-4 scenario with the measurement-integrity pipeline
enabled vs disabled and asserts the validated run makes at most 10 %
more Python-level calls (``tests/costs.py``: exact and repeatable; the
best-of-rounds wall ratio this used to assert is noise-limited against
a simulator that keeps getting cheaper, and is printed as information).
On a fault-free run the pipeline must also be invisible: every sample
admitted, identical measured series.
"""

import numpy as np

from repro.experiments import fig4
from tests.costs import overhead

MAX_OVERHEAD_RATIO = 1.10


def test_bench_integrity_overhead_under_ten_percent():
    baseline_result = fig4.run(seed=0, integrity=False)
    validated_result = fig4.run(seed=0, integrity=True)

    # Validation must observe, never perturb: identical measured series
    # and no sample withheld on a clean run.
    np.testing.assert_array_equal(
        baseline_result.pair.measured_kbps,
        validated_result.pair.measured_kbps,
    )
    stats = validated_result.monitor_stats
    assert stats["integrity_violations"] == 0
    assert stats["integrity_rejected"] == 0
    assert stats["samples"] == baseline_result.monitor_stats["samples"]

    on, off, wall = overhead(
        lambda: fig4.run(seed=0, integrity=True), lambda: fig4.run(seed=0, integrity=False)
    )
    ratio = on / off
    print(
        f"\nfig4 Python calls: integrity off {off}, on {on}, "
        f"ratio {ratio:.3f} (budget {MAX_OVERHEAD_RATIO:.2f}); "
        f"wall ratio {wall:.3f} (not asserted)"
    )
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"integrity overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD_RATIO:.2f}x budget"
    )


def test_bench_validated_run_really_validates():
    """The timed configuration is the real one: every sample inspected."""
    result = fig4.run(seed=0, integrity=True)
    pipeline = result.scenario.monitor.integrity
    assert pipeline is not None
    # Every polled interface earned a (fully trusted) record.
    records = pipeline.quarantine.records()
    assert len(records) >= 10
    assert all(rec.score == 1.0 for rec in records.values())
    assert pipeline.quarantined_keys() == []
