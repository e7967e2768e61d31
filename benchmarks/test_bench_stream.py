"""Regression gate: streaming fan-out at scale.

Drives a ≥100-host generated topology through two identical workloads:
a baseline stack that only takes incremental matrix snapshots (streaming
disabled) and a stream stack whose :class:`MatrixPublisher` additionally
fans events out to **2000+ concurrent subscribers**, each holding a
small conflated queue over a few pairs.  Asserts:

- the publish step adds <10% wall-clock overhead to the monitor hot
  path (snapshot+publish vs snapshot-only on the same dirty sets);
- per-event delivery latency through the reverse-indexed fan-out stays
  in the microsecond range (p50/p99 measured over thousands of
  deliveries);
- once the adaptive significance filter has learned a pair's jitter
  amplitude, rounds of negligible (+-0.01%) rate jitter produce **zero**
  deliveries while the suppressed counter advances -- and a genuine
  traffic shift still gets through;
- every subscriber queue respects its bound throughout (slow consumers
  hold O(subscribed pairs), never O(cycles)).

Writes ``BENCH_stream.json`` for the CI artifact upload.
"""

import json
import time as _time
from dataclasses import replace
from pathlib import Path

from repro.core.bandwidth import BandwidthCalculator
from repro.core.matrix import BandwidthMatrix
from repro.core.poller import RateTable
from repro.experiments.scale import populate_rates, scale_spec
from repro.stream import (
    MatrixPublisher,
    OverflowPolicy,
    PairChanged,
    QuantileDeadbandFilter,
    SubscriptionManager,
    pair_key,
)
from repro.telemetry.quantile import P2Quantile

SUBSCRIBERS = 2000
PAIRS_PER_SUBSCRIBER = 3
QUEUE_BOUND = 8
OVERHEAD_CEILING = 0.10  # publish may cost <10% of the snapshot hot path
OVERHEAD_ROUNDS = 20
TOUCHED_PER_ROUND = 3
LEARN_ROUNDS = 16  # jitter rounds the filter may learn from
JITTER_ROUNDS = 4  # measured rounds that must deliver nothing

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_stream.json"


def _stack(spec, graph=None):
    rates = RateTable()
    populate_rates(spec, rates, time=0.0)
    calculator = BandwidthCalculator(spec, rates, stale_after=1e9, dead_after=1e12)
    matrix = BandwidthMatrix(spec, calculator, graph=graph)
    return rates, matrix


def _touch(rates, key, t, factor):
    old = rates.latest(*key)
    rates.update(
        replace(
            old,
            time=t,
            in_bytes_per_s=old.in_bytes_per_s * factor,
            out_bytes_per_s=old.out_bytes_per_s * factor,
        )
    )


def test_bench_stream_fanout_overhead_and_suppression():
    spec = scale_spec(
        switches=6, hosts_per_switch=18, arity=1, hub_pockets=2, hub_hosts=3
    )
    hosts = [n.name for n in spec.hosts()]
    assert len(hosts) >= 100, f"benchmark topology too small: {len(hosts)} hosts"

    base_rates, base_matrix = _stack(spec)
    stream_rates, stream_matrix = _stack(spec, graph=base_matrix.graph)
    publisher = MatrixPublisher(
        stream_matrix,
        manager=SubscriptionManager(),
        # weight 0.2: the estimators must unlearn the big phase-A moves
        # within the learning rounds before the jitter gate is measured
        significance=QuantileDeadbandFilter(
            q=0.9, factor=3.0, min_samples=4, weight=0.2
        ),
    )

    # 2000 subscribers, each conflating a few pairs; plus one wildcard
    # dashboard consumer, the worst case the reverse index must carry.
    all_pairs = sorted(
        pair_key(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]
    )
    for i in range(SUBSCRIBERS):
        wanted = [
            all_pairs[(i * 7 + j * 13) % len(all_pairs)]
            for j in range(PAIRS_PER_SUBSCRIBER)
        ]
        publisher.manager.subscribe(
            f"sub{i}",
            pairs=wanted,
            policy=OverflowPolicy.CONFLATE,
            bound=QUEUE_BOUND,
        )
    dashboard = publisher.manager.subscribe(
        "dashboard", policy=OverflowPolicy.CONFLATE, bound=512
    )

    # Warm both stacks (path construction, first full pass) untimed.
    base_matrix.snapshot(0.5)
    publisher.publish(0.5)

    # -- Phase A: hot-path overhead on realistic poll cycles ------------
    keys = sorted(base_rates.keys())
    t = 0.5
    base_seconds = 0.0
    stream_seconds = 0.0
    for round_no in range(OVERHEAD_ROUNDS):
        t += 2.0
        start = (round_no * TOUCHED_PER_ROUND) % len(keys)
        for offset in range(TOUCHED_PER_ROUND):
            key = keys[(start + offset) % len(keys)]
            _touch(base_rates, key, t, 1.07)
            _touch(stream_rates, key, t, 1.07)
        begin = _time.perf_counter()
        base_matrix.snapshot(t)
        base_seconds += _time.perf_counter() - begin
        begin = _time.perf_counter()
        publisher.publish(t)
        stream_seconds += _time.perf_counter() - begin
    overhead = stream_seconds / base_seconds - 1.0 if base_seconds else 0.0

    # -- Phase B: per-event delivery latency through the fan-out --------
    p50 = P2Quantile(0.5)
    p99 = P2Quantile(0.99)
    snapshot = publisher.publish(t + 0.1)
    reports = [
        (pair_key(*pair), report)
        for pair, report in sorted(snapshot.reports.items())
        if report is not None
    ]
    deliveries = 0
    for i in range(4000):
        key, report = reports[(i * 31) % len(reports)]
        event = PairChanged(
            pair=key, time=t, epoch=publisher.clock.epoch, report=report,
            available_bps=report.available_bps, used_bps=report.used_bps,
            utilization=0.5, status=report.status,
            previous_available_bps=float("nan"),
        )
        begin = _time.perf_counter()
        publisher.manager.deliver(event)
        elapsed = _time.perf_counter() - begin
        deliveries += 1
        p50.observe(elapsed)
        p99.observe(elapsed)
    dashboard.drain()

    # -- Phase C: the significance filter suppresses pure jitter --------
    for round_no in range(LEARN_ROUNDS):
        t += 2.0
        factor = 1.0001 if round_no % 2 else 0.9999
        for key in keys:
            _touch(stream_rates, key, t, factor)
        publisher.publish(t + 0.1)
    for sub in publisher.manager.subscriptions():
        sub.drain()
    delivered_before = publisher.manager.stats()["delivered"]
    suppressed_before = publisher.manager.events_suppressed
    for round_no in range(JITTER_ROUNDS):
        t += 2.0
        factor = 1.0001 if round_no % 2 else 0.9999
        for key in keys:
            _touch(stream_rates, key, t, factor)
        publisher.publish(t + 0.1)
    jitter_delivered = publisher.manager.stats()["delivered"] - delivered_before
    jitter_suppressed = publisher.manager.events_suppressed - suppressed_before

    # ...while a genuine traffic shift still gets through.
    t += 2.0
    _touch(stream_rates, keys[0], t, 5.0)
    publisher.publish(t + 0.1)
    shift_delivered = (
        publisher.manager.stats()["delivered"] - delivered_before - jitter_delivered
    )

    # -- Queue bounds held throughout -----------------------------------
    max_watermark = 0
    for sub in publisher.manager.subscriptions():
        if sub.name == "dashboard":
            continue
        assert len(sub) <= QUEUE_BOUND
        assert sub.high_watermark <= QUEUE_BOUND
        max_watermark = max(max_watermark, sub.high_watermark)

    stats = publisher.stats()
    results = {
        "hosts": len(hosts),
        "pairs": len(all_pairs),
        "subscribers": stats["subscribers"],
        "queue_bound": QUEUE_BOUND,
        "max_high_watermark": max_watermark,
        "overhead_rounds": OVERHEAD_ROUNDS,
        "base_seconds": round(base_seconds, 6),
        "stream_seconds": round(stream_seconds, 6),
        "overhead_pct": round(overhead * 100.0, 2),
        "overhead_ceiling_pct": OVERHEAD_CEILING * 100.0,
        "deliveries_timed": deliveries,
        "delivery_p50_us": round(p50.value * 1e6, 3),
        "delivery_p99_us": round(p99.value * 1e6, 3),
        "jitter_rounds": JITTER_ROUNDS,
        "jitter_delivered": jitter_delivered,
        "jitter_suppressed": jitter_suppressed,
        "shift_delivered": shift_delivered,
        "events_delivered_total": stats["delivered"],
        "events_suppressed_total": stats["suppressed"],
        "events_dropped_total": stats["dropped"],
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nstream bench: {json.dumps(results, indent=2)}")

    assert stats["subscribers"] >= SUBSCRIBERS + 1
    assert overhead < OVERHEAD_CEILING, (
        f"streaming overhead regression: publish added {overhead:.1%} to the "
        f"hot path (ceiling {OVERHEAD_CEILING:.0%}; snapshot-only "
        f"{base_seconds:.3f}s vs snapshot+publish {stream_seconds:.3f}s)"
    )
    assert jitter_delivered == 0, (
        f"significance filter leaked {jitter_delivered} events for "
        f"sub-deadband jitter"
    )
    assert jitter_suppressed > 0
    assert shift_delivered > 0, "a 5x traffic shift must still be delivered"
    assert p99.value < 0.005, (
        f"per-event delivery p99 {p99.value * 1e6:.0f}us exceeds 5ms"
    )
