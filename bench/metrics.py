"""Metric schema (names, units, directions, bounds) and small reducers.

``END_TO_END`` and ``PER_LAYER`` are exactly what ``BENCHMARK.json``
declares and what a single run prints; ``LEDGER_ONLY`` are the
end-to-end figures the ledger also records but the driver's contract
cannot carry or gate on (a share that is 0 when all is well, a sim-time
that reads the same on every run, an accuracy only the testbed has, a
percentile that sits on a cliff of the campus's cycle distribution).
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bench.tracer import LAYERS, PUBLIC_FUNCTIONS

# name -> (unit, better, bound).  Timings are reference-normalised (see
# bench/calib.py); ``setup_s`` must carry the plain unit "s".
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "cycle_ms_p50": ("ref-ms", "lower", 0.25),
    "cycle_ms_slowest_decile": ("ref-ms", "lower", 0.25),
    "realtime_factor": ("sim-s/ref-s", "higher", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "report_age_s_max": ("sim-s", "lower", 0.05),
    "monitor_bytes_per_cycle": ("bytes", "lower", 0.02),
}

#: Marked Deterministic: a second run of the same code and seed must
#: reproduce these exactly.
DETERMINISTIC = (
    "report_age_s_max", "monitor_bytes_per_cycle", "first_trusted_report_s",
    "untrusted_report_share", "avg_error_pct",
)

# name -> (unit, better, absolute bound)
LEDGER_ONLY: Dict[str, Tuple[str, str, float]] = {
    "cycle_ms_p90": ("ref-ms", "lower", 0.25),
    "first_trusted_report_s": ("sim-s", "lower", 0.0),
    "untrusted_report_share": ("ratio", "lower", 0.0),
    "avg_error_pct": ("%", "lower", 0.25),
}

_COUNTS: Dict[str, Tuple[str, str]] = {
    "first_trusted_report_s": ("sim-s", "lower"),
    "avg_error_pct": ("%", "lower"),
    "simnet.events_setup": ("count", "lower"),
    "simnet.frames_flooded_setup": ("count", "lower"),
    "simnet.events_per_cycle": ("count", "lower"),
    "simnet.frames_forwarded_per_cycle": ("count", "lower"),
    "simnet.nic_discards": ("count", "lower"),
    "spec.build_ms": ("ref-ms", "lower"),
    "snmp.exchanges_per_cycle": ("count", "lower"),
    "snmp.varbinds_per_exchange": ("count", "higher"),
    "snmp.retries_per_cycle": ("count", "lower"),
    "snmp.timeouts_per_cycle": ("count", "lower"),
    "poller.samples_per_cycle": ("count", "higher"),
    "poller.window_peak": ("count", "lower"),
    "poller.overruns": ("count", "lower"),
    "integrity.samples_per_cycle": ("count", "higher"),
    "integrity.nonclean_verdicts": ("count", "lower"),
    "integrity.quarantined_peak": ("count", "lower"),
    "distributed.batches_per_cycle": ("count", "lower"),
    "distributed.uplink_bytes_per_cycle": ("bytes", "lower"),
    "distributed.records_advance_share": ("ratio", "higher"),
    "distributed.keyframes": ("count", "lower"),
    "distributed.retransmits": ("count", "lower"),
    "distributed.duplicate_batches": ("count", "lower"),
    "distributed.gaps_detected": ("count", "lower"),
    "distributed.decode_errors": ("count", "lower"),
    "dataflow.cache_hit_ratio": ("ratio", "higher"),
    "dataflow.measure_path_calls_per_cycle": ("count", "lower"),
    "dataflow.pairs": ("count", "higher"),
    "dataflow.dirty_pairs_per_cycle": ("count", "lower"),
    "stream.events_delivered_per_cycle": ("count", "higher"),
    "stream.events_suppressed_per_cycle": ("count", "higher"),
    "stream.events_dropped": ("count", "lower"),
    "probe.trains_per_cycle": ("count", "higher"),
    "probe.timeouts": ("count", "lower"),
    "probe.load_share": ("ratio", "lower"),
    "monitor.topology_rounds": ("count", "lower"),
    "monitor.topology_changes": ("count", "lower"),
    "monitor.path_reroutes": ("count", "lower"),
    "history.bytes_per_point": ("bytes", "lower"),
}


def _per_layer_schema() -> Dict[str, Tuple[str, str]]:
    out: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_cycle"] = ("ref-ms", "lower")
        out[f"{layer}.self_share"] = ("ratio", "lower")
        out[f"{layer}.py_calls_per_cycle"] = ("count", "lower")
    out["trace.coverage"] = ("ratio", "higher")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    for metric in PUBLIC_FUNCTIONS:
        out[metric] = (metric.rsplit("_", 1)[-1], "lower")
    out.update(_COUNTS)
    return out


# name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = _per_layer_schema()

#: What a per-layer metric prints, in the driver's number-only result
#: line, when the attribute it reads is gone or the workload has no
#: such figure.  The ledger keeps ``null``.
ABSENT = -1.0


def highest_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (0 when even the median has fewer)."""
    if samples < 20:
        return 0
    return min(99, math.floor(100.0 * (1.0 - 10.0 / samples)))


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile: at p90 of 100 samples, ten lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def slowest_decile_mean(values: Sequence[float]) -> float:
    """Mean of the slowest tenth of the samples.  Unlike an order
    statistic it cannot sit on a step of a multi-modal distribution."""
    ordered = sorted(values)
    tail = ordered[-max(1, len(ordered) // 10):]
    return sum(tail) / len(tail)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_digest(reports: Iterable) -> str:
    """sha256 over what every report said, exact to the last float bit."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(
            repr(
                (
                    report.time,
                    report.label,
                    tuple((m.used_bps, m.capacity_bps) for m in report.connections),
                    report.available_bps,
                    report.confidence,
                )
            ).encode()
        )
    return digest.hexdigest()


def first_trusted_instant(reports: Iterable, watches: int) -> Optional[float]:
    """The first report instant at which every watch is ``trusted``."""
    at: Dict[float, List[bool]] = {}
    for report in reports:
        at.setdefault(report.time, []).append(report.trusted)
    for instant in sorted(at):
        if len(at[instant]) == watches and all(at[instant]):
            return instant
    return None
