"""Storage-engine guards: compression ratio and append overhead.

Two promises the tsdb-backed history makes over the seed's list-append
implementation, enforced here so regressions fail CI:

- sealed chunks compress the Figure-4 measurement stream at least 4x
  versus raw float64 columns, decoding bit-identically;
- routing every report through compressed storage costs less than 10 %
  extra Python-level calls on the full Figure-4 run compared with an
  inline legacy list-append history.

Counted with ``tests/costs.py``, same as the telemetry guard: exact and
repeatable where the best-of-rounds wall ratio this used to assert is
noise-limited; that ratio is printed as information.
"""

import numpy as np

from repro.core.history import HISTORY_FIELDS, HISTORY_PREDICTORS, _report_row
from repro.experiments import fig4
from repro.experiments.scenarios import Scenario
from repro.tsdb import Series
from tests.costs import overhead

MIN_COMPRESSION_RATIO = 4.0
MAX_APPEND_OVERHEAD_RATIO = 1.10


# ----------------------------------------------------------------------
# The seed's history: plain Python lists, no compression, no retention.
# ----------------------------------------------------------------------
class _LegacyPathSeries:
    def __init__(self, label):
        self.label = label
        self.reports = []

    def append(self, report):
        if self.reports and report.time < self.reports[-1].time:
            raise ValueError(f"out-of-order report for {self.label}")
        self.reports.append(report)

    def __len__(self):
        return len(self.reports)

    def times(self):
        return np.array([r.time for r in self.reports], dtype=float)

    def used(self):
        return np.array([r.used_bps for r in self.reports], dtype=float)

    def available(self):
        return np.array([r.available_bps for r in self.reports], dtype=float)

    def latest(self):
        return self.reports[-1] if self.reports else None


class _LegacyHistory:
    dropped_samples = 0

    def __init__(self):
        self._series = {}

    def append(self, report):
        series = self._series.get(report.label)
        if series is None:
            series = self._series[report.label] = _LegacyPathSeries(report.label)
        series.append(report)

    def series(self, label):
        return self._series[label]

    def labels(self):
        return sorted(self._series)


def _fig4_run(legacy: bool):
    """The Figure-4 scenario with either history implementation."""
    scenario = Scenario(poll_interval=2.0, seed=0, telemetry=False)
    if legacy:
        scenario.monitor.history = _LegacyHistory()
    label = scenario.watch(fig4.PATH_SRC, fig4.PATH_DST)
    scenario.add_load(fig4.LOAD_SRC, fig4.LOAD_DST, fig4.LOAD_SCHEDULE)
    scenario.run(fig4.RUN_UNTIL)
    return scenario, label


def test_bench_compression_at_least_4x_on_fig4_stream(fig4_result):
    """Replaying the Figure-4 reports seals at >= 4x, bit-identically."""
    series = fig4_result.scenario.monitor.history.series(fig4_result.pair.label)
    replay = Series(
        "fig4-replay", HISTORY_FIELDS, chunk_size=64,
        predictors=HISTORY_PREDICTORS,
    )
    for report in series.reports:
        replay.append(report.time, _report_row(report))
    replay.flush()  # seal the tail so the ratio reflects compression only
    ratio = replay.raw_nbytes / replay.nbytes
    print(
        f"\nfig4 stream: {len(replay)} samples, raw {replay.raw_nbytes} B, "
        f"compressed {replay.nbytes} B, ratio {ratio:.2f}x "
        f"(floor {MIN_COMPRESSION_RATIO:.1f}x)"
    )
    assert ratio >= MIN_COMPRESSION_RATIO, (
        f"compression {ratio:.2f}x fell below the "
        f"{MIN_COMPRESSION_RATIO:.1f}x floor"
    )
    # Losslessness is what makes the ratio meaningful.
    times, columns = replay.arrays()
    np.testing.assert_array_equal(
        times.view(np.uint64), series.times().view(np.uint64)
    )
    np.testing.assert_array_equal(
        columns["used_bps"].view(np.uint64), series.used().view(np.uint64)
    )
    np.testing.assert_array_equal(
        columns["available_bps"].view(np.uint64),
        series.available().view(np.uint64),
    )


def test_bench_append_overhead_under_ten_percent():
    """Compressed history must not slow the monitor's real workload."""
    # Warm-up runs double as the correctness check: the storage engine
    # must observe, never perturb -- identical measured series.
    legacy_scenario, label = _fig4_run(legacy=True)
    tsdb_scenario, _ = _fig4_run(legacy=False)
    np.testing.assert_array_equal(
        legacy_scenario.monitor.history.series(label).used(),
        tsdb_scenario.monitor.history.series(label).used(),
    )

    compressed, legacy, wall = overhead(
        lambda: _fig4_run(legacy=False), lambda: _fig4_run(legacy=True)
    )
    ratio = compressed / legacy
    print(
        f"\nfig4 Python calls: legacy history {legacy}, tsdb history "
        f"{compressed}, ratio {ratio:.3f} "
        f"(budget {MAX_APPEND_OVERHEAD_RATIO:.2f}); "
        f"wall ratio {wall:.3f} (not asserted)"
    )
    assert ratio <= MAX_APPEND_OVERHEAD_RATIO, (
        f"tsdb append overhead {ratio:.3f}x exceeds the "
        f"{MAX_APPEND_OVERHEAD_RATIO:.2f}x budget"
    )
