"""CI gate for the scaled poll path on a 1000-host campus.

A four-pod hierarchical campus (4 pods x 5 switches x 50 hosts = 1000
end hosts, agents on the 21 switches) runs the two-level coordinator
tree: GetBulk batching, pipelined scheduling inside each shard, and
delta-encoded uplinks.  Acceptance properties:

- **Exchange economy >= 5x.**  The plane must issue at least 5x fewer
  SNMP exchanges per poll cycle than one GET per counter instance would,
  which costs exactly one exchange per polled OID per cycle (6171 at
  this scale, which is the point) and is therefore computed, not run.
- **>= 80 % uplink traffic reduction, quiescent.**  With no offered
  load, shard uplinks ship deltas (an unmoved interface as its id
  alone) whose cost per sample is at most a fifth of what a
  self-describing JSON sample document cost on the same run.
- **Leaf failover re-coverage <= 3 cycles.**  Killing a leaf
  coordinator mid-run must leave every watched path in its shard back
  to trusted reports within three poll intervals.

How long a cycle takes is the perf ledger's to measure (``bench/``,
``cycle_ms_p50``), not a gate's.
"""

import pytest

from repro.core.distributed import poll_targets
from repro.core.hierarchy import HierarchicalMonitor
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.simnet.faults import WorkerCrash
from repro.spec.builder import build_network

PODS, SWITCHES, HOSTS = 4, 5, 50  # 1000 end hosts, 21 switch agents
POLL = 2.0
STEADY_UNTIL = 30.0
STEADY_CYCLES = int(STEADY_UNTIL / POLL) + 1  # t = 0, 2, ..., 30 inclusive
EXCHANGE_RATIO_FLOOR = 5.0
# What one sample cost on this uplink as a JSON document inside JSON
# batches: 1 495 804 bytes, measured by the last version that still
# carried that encoder, for the 14 350 samples of this same run.  The
# delta encoding shipped them in 261 397 bytes, 18.2 per sample.
JSON_BYTES_PER_SAMPLE = 1_495_804 / 14_350  # 104.2
REDUCTION_FLOOR = 0.80
CRASH_AT = 10.0
RECOVER_AT = 25.0
CHAOS_UNTIL = 36.0


def _plane(whole_pool=False):
    """The campus tree.  Its pool follows its watches, unless
    ``whole_pool`` pins it through ``targets=`` to every connection: all
    21 agents polled, watched or not."""
    spec = scale_spec(
        hierarchical=PODS, switches=SWITCHES, hosts_per_switch=HOSTS,
        host_agents=False,
    )
    assert len(spec.hosts()) >= 1000, "benchmark campus too small"
    plan = hierarchy_plan(PODS, switches=SWITCHES, hosts_per_switch=HOSTS)
    build = build_network(spec)
    dm = HierarchicalMonitor(
        build, plan, poll_interval=POLL, poll_jitter=0.0, seed=0,
        max_batch=256,
        targets=poll_targets(build, spec.connections) if whole_pool else None,
    )
    return build, dm


def _exchanges(dm):
    return sum(leaf.requests_sent for leaf in dm.leaves.values())


@pytest.fixture(scope="module")
def steady_run():
    """The plane, quiescent, 16 cycles, polling all 21 agents."""
    build, dm = _plane(whole_pool=True)
    dm.start()
    build.network.run(STEADY_UNTIL)
    shipped = sum(l.shipper.bytes_shipped for l in dm.leaves.values())
    samples = sum(l.shipper.samples_shipped for l in dm.leaves.values())
    out = {
        "stats": dm.stats(),
        "exchanges_per_cycle": _exchanges(dm) / STEADY_CYCLES,
        # One GET per counter instance: an exchange per polled OID.
        "per_varbind_exchanges_per_cycle": sum(len(t.oids()) for t in dm.targets),
        "uplink_samples": samples,
        "uplink_bytes_shipped": shipped,
        "uplink_reduction": 1.0 - shipped / samples / JSON_BYTES_PER_SAMPLE,
    }
    dm.stop()
    return out


def test_bench_scale_exchange_economy(steady_run):
    bulk = steady_run["exchanges_per_cycle"]
    naive = steady_run["per_varbind_exchanges_per_cycle"]
    ratio = naive / bulk
    print(f"\nSNMP exchanges per cycle over 1000 hosts / 21 agents: "
          f"{naive:.0f} per-varbind vs {bulk:.0f} bulk+pipelined "
          f"({ratio:.1f}x fewer)")
    assert steady_run["stats"]["samples_received"] > 0
    assert ratio >= EXCHANGE_RATIO_FLOOR


def test_bench_scale_quiescent_delta_reduction(steady_run):
    reduction = steady_run["uplink_reduction"]
    stats = steady_run["stats"]
    keyframes = sum(
        v for k, v in stats.items() if k.startswith("per_shard_keyframes.")
    )
    shipped, samples = steady_run["uplink_bytes_shipped"], steady_run["uplink_samples"]
    print(f"\nuplink bytes quiescent: {shipped} for {samples} samples = "
          f"{shipped / samples:.1f} B/sample vs {JSON_BYTES_PER_SAMPLE:.1f} as JSON "
          f"({reduction:.1%} reduction, {keyframes:.0f} keyframes)")
    assert stats["decode_errors"] == 0.0
    assert keyframes >= 1
    assert reduction >= REDUCTION_FLOOR


def test_bench_scale_leaf_failover_recoverage(benchmark):
    def chaos():
        build, dm = _plane()
        dm.watch_path("p0h0_0", f"p0h{SWITCHES - 1}_{HOSTS - 1}")
        reports = []
        dm.subscribe(reports.append)
        WorkerCrash(build.network.sim, dm.leaves["mon0"],
                    at=CRASH_AT, until=RECOVER_AT)
        dm.start()
        build.network.run(CHAOS_UNTIL)
        stats = dm.stats()
        dm.stop()
        return reports, stats

    reports, stats = benchmark.pedantic(chaos, rounds=1, iterations=1)
    assert stats["failovers"] >= 1.0 and stats["rebalances"] >= 1.0
    deadline = CRASH_AT + 3 * POLL
    settled = [r for r in reports if deadline <= r.time < RECOVER_AT]
    assert settled, "no reports emitted after the re-coverage deadline"
    assert all(r.trusted for r in settled), (
        "shard not re-covered within 3 poll cycles of the leaf crash: "
        + ", ".join(f"{r.time:.1f}s={r.status}" for r in settled if not r.trusted)
    )
    gap_window = [r for r in reports if CRASH_AT + 1.0 <= r.time <= deadline]
    degraded = [r for r in gap_window if not r.trusted]
    recovered = min(r.time for r in reports if r.time > CRASH_AT and r.trusted)
    print(f"\nfirst trusted report {recovered - CRASH_AT:.1f}s after the leaf "
          f"crash (deadline {3 * POLL:.1f}s); "
          f"{len(degraded)}/{len(gap_window)} gap-window reports degraded")
    late = [r for r in reports if r.time >= RECOVER_AT + 3 * POLL]
    assert late and all(r.trusted for r in late)
