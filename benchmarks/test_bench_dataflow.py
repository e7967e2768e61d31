"""Regression gate: the incremental dataflow vs the from-scratch reference.

Drives repeated all-pairs snapshots of a ≥100-host generated topology
through ``BandwidthMatrix.snapshot`` and through the reference beside the
tests (``tests/dataflow_reference.py``: every pair measured with
``measure_path(..., fresh=True)``).  Each round advances time, refreshes
three interfaces and takes three snapshots at the same instant.  That is
the *sharing* the dataflow exploits at its best -- clean pairs reused
verbatim, one recompute per dirty connection -- and this file gates that
it keeps working; it is not the monitor's traffic.  The perf ledger
(``bench/``, workload ``mesh_flat``) shows one snapshot per instant with
every interface re-sampled, 630 of 630 pairs dirty and nothing reusable
verbatim; the cost of a report under that traffic is measured there and
held by the call-count guards in ``tests/test_dataflow.py``.

Asserts a ≥5x speedup with **bit-identical** reports, and writes
``BENCH_dataflow.json`` (speedup, cache hit rate, matrix latency p50/p99)
for the CI artifact upload.
"""

import json
import time as _time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.bandwidth import BandwidthCalculator
from repro.core.matrix import BandwidthMatrix
from repro.core.poller import RateTable
from repro.experiments.scale import populate_rates, scale_spec
from repro.telemetry.quantile import P2Quantile
from tests.dataflow_reference import reference_paths, reference_snapshot

SPEEDUP_FLOOR = 5.0
ROUNDS = 12
SNAPSHOTS_PER_ROUND = 3  # same-instant snapshots: verbatim reuse
TOUCHED_PER_ROUND = 3  # interfaces refreshed per round: few dirty pairs

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataflow.json"


def test_bench_dataflow_speedup_and_bit_identity():
    spec = scale_spec(
        switches=6, hosts_per_switch=18, arity=1, hub_pockets=2, hub_hosts=3
    )
    hosts = [n.name for n in spec.hosts()]
    assert len(hosts) >= 100, f"benchmark topology too small: {len(hosts)} hosts"

    rates = RateTable()
    populate_rates(spec, rates, time=0.0)
    calculator = BandwidthCalculator(spec, rates, stale_after=6.0, dead_after=30.0)
    incremental = BandwidthMatrix(spec, calculator)
    paths = reference_paths(incremental)  # static topology: traverse once

    # Warm both sides outside the timed region (path construction, first
    # full measurement pass).
    incremental.snapshot(0.5)
    reference_snapshot(incremental, 0.5, paths)

    p50 = P2Quantile(0.5)
    p99 = P2Quantile(0.99)
    keys = sorted(rates.keys())
    t = 0.5
    inc_seconds = 0.0
    naive_seconds = 0.0
    for round_no in range(ROUNDS):
        t += 2.0
        # Rotate which interfaces were refreshed this round.
        start = (round_no * TOUCHED_PER_ROUND) % len(keys)
        for offset in range(TOUCHED_PER_ROUND):
            key = keys[(start + offset) % len(keys)]
            old = rates.latest(*key)
            rates.update(
                replace(
                    old,
                    time=t,
                    in_bytes_per_s=old.in_bytes_per_s * 1.07,
                    out_bytes_per_s=old.out_bytes_per_s * 1.07,
                )
            )
        inc_snaps = []
        for _ in range(SNAPSHOTS_PER_ROUND):
            begin = _time.perf_counter()
            inc_snaps.append(incremental.snapshot(t))
            elapsed = _time.perf_counter() - begin
            inc_seconds += elapsed
            p50.observe(elapsed)
            p99.observe(elapsed)
        naive_snaps = []
        for _ in range(SNAPSHOTS_PER_ROUND):
            begin = _time.perf_counter()
            naive_snaps.append(reference_snapshot(incremental, t, paths))
            naive_seconds += _time.perf_counter() - begin
        # Bit-identity: every report, every snapshot, every metric.
        for inc_snap, naive_snap in zip(inc_snaps, naive_snaps):
            assert inc_snap.reports == naive_snap.reports
            assert np.array_equal(
                inc_snap.values(), naive_snap.values(), equal_nan=True
            )

    hits = calculator.cache_hits
    recomputes = calculator.recomputes
    hit_rate = hits / (hits + recomputes) if (hits + recomputes) else 0.0
    speedup = naive_seconds / inc_seconds if inc_seconds else float("inf")

    results = {
        "hosts": len(hosts),
        "pairs": len(incremental._paths),
        "rounds": ROUNDS,
        "snapshots_per_round": SNAPSHOTS_PER_ROUND,
        "incremental_seconds": round(inc_seconds, 6),
        "naive_seconds": round(naive_seconds, 6),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "cache_hits": hits,
        "recomputes": recomputes,
        "cache_hit_rate": round(hit_rate, 6),
        "matrix_latency_p50_ms": round(p50.value * 1000.0, 3),
        "matrix_latency_p99_ms": round(p99.value * 1000.0, 3),
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\ndataflow bench: {json.dumps(results, indent=2)}")

    assert hit_rate > 0.9, f"cache ineffective: hit rate {hit_rate:.3f}"
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental dataflow regression: {speedup:.2f}x < {SPEEDUP_FLOOR}x floor "
        f"(incremental {inc_seconds:.3f}s vs naive {naive_seconds:.3f}s)"
    )
