"""Tests of the benchmark harness itself (seconds, not minutes).

Run with ``python -m pytest bench/ -q`` from the repository root.
"""

from __future__ import annotations

import cProfile
import heapq
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from bench import harness, metrics, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "samples, expected", [(19, 0), (20, 50), (99, 89), (100, 90), (238, 95), (5000, 99)]
)
def test_highest_percentile_keeps_ten_samples_beyond(samples, expected):
    assert metrics.highest_percentile(samples) == expected
    if expected:
        beyond = samples - math.ceil(expected / 100.0 * samples)
        assert beyond >= 10
        # ... and the next whole percentile up would not.
        if expected < 99:
            assert samples - math.ceil((expected + 1) / 100.0 * samples) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 90) == 90
    assert sum(1 for v in values if v > metrics.percentile(values, 90)) == 10
    assert metrics.percentile(values, 50) == 50
    assert metrics.slowest_decile_mean(values) == 95.5  # mean of 91..100
    assert metrics.slowest_decile_mean([3.0, 1.0, 2.0]) == 3.0


# ----------------------------------------------------------------------
# Profile -> layer bucketing
# ----------------------------------------------------------------------
def _product_work(n):
    """Stands in for a product function: its own loop, a built-in
    (``sorted``) and a pure-Python stdlib function (``heapq.nsmallest``)."""
    data = [(i * 7919) % n for i in range(n)]
    total = 0
    for value in sorted(data):
        total += value
    return total + sum(heapq.nsmallest(50, data))


def test_bucketing_sums_to_total_and_charges_builtins_to_callers():
    profile = cProfile.Profile()
    profile.enable()
    _product_work(20000)
    profile.disable()
    stats = profile.getstats()

    def layer_of(filename):
        return "simnet" if filename == __file__ else None

    buckets = tracer.bucket_profile(stats, layer_of)
    total = sum(entry.inlinetime for entry in stats)
    assert sum(cost[0] for cost in buckets.values()) == pytest.approx(total, rel=1e-9)
    own = sum(
        entry.inlinetime for entry in stats
        if getattr(entry.code, "co_filename", None) == __file__
    )
    # sorted(), sum() and heapq's frames ran on simnet's behalf.
    assert buckets["simnet"][0] > own
    assert buckets["simnet"][0] > 0.9 * total
    # Python calls are counted for product functions only.
    assert buckets["simnet"][1] == sum(
        entry.callcount for entry in stats
        if getattr(entry.code, "co_filename", None) == __file__
    )
    assert buckets["other"][1] == 0


def test_layer_of_maps_source_files():
    prefix = "/checkout/src/repro/"
    assert tracer.layer_of(prefix + "simnet/engine.py") == "simnet"
    assert tracer.layer_of(prefix + "topology/graph.py") == "spec"
    assert tracer.layer_of(prefix + "core/poller.py") == "poller"
    assert tracer.layer_of(prefix + "core/deltas.py") == "distributed"
    assert tracer.layer_of(prefix + "core/report.py") == "dataflow"
    assert tracer.layer_of(prefix + "core/history.py") == "history"
    assert tracer.layer_of(prefix + "tsdb/codec.py") == "history"
    assert tracer.layer_of(prefix + "rm/qos.py") == "other"
    assert tracer.layer_of(prefix + "cli.py") == "other"
    assert tracer.layer_of("/usr/lib/python3.11/heapq.py") is None
    assert set(tracer._PACKAGE_LAYER.values()) | set(tracer._CORE_LAYER.values()) < set(
        tracer.LAYERS
    )


# ----------------------------------------------------------------------
# A smoke campus end to end
# ----------------------------------------------------------------------
class SmokeCampus(workloads.CampusChurn):
    PODS, SWITCHES, HOSTS_PER_SWITCH = 2, 2, 4
    WATCHES, FLOWS = 2, 3


def test_smoke_campus_digest_is_stable_and_checks_pass():
    first = harness.measure(SmokeCampus, seed=3, cycles=5, trace=False)
    second = harness.measure(SmokeCampus, seed=3, cycles=5, trace=False)
    assert first["correct"], first["failures"]
    assert first["report_digest"] == second["report_digest"]
    for key in metrics.DETERMINISTIC:
        assert first["end_to_end"][key] == second["end_to_end"][key]
    assert first["attempted"] == 5 * SmokeCampus.WATCHES and first["failed"] == 0
    other_seed = harness.measure(SmokeCampus, seed=4, cycles=5, trace=False)
    assert other_seed["report_digest"] != first["report_digest"]


def test_traced_smoke_campus_attributes_the_cycle():
    result = harness.measure(SmokeCampus, seed=3, cycles=6, trace=True)
    layer = result["per_layer"]
    assert layer["trace.coverage"] > 0.9
    shares = [layer[f"{name}.self_share"] for name in tracer.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert layer["simnet.py_calls_per_cycle"] > 0
    assert layer["stream.self_share"] == 0  # the tree has no stream layer
    line = harness.contract_metrics(result)
    assert set(line) == set(metrics.PER_LAYER)
    assert all(isinstance(m["value"], (int, float)) for m in line.values())


# ----------------------------------------------------------------------
# Attributes that are gone
# ----------------------------------------------------------------------
def test_removed_attribute_reads_null_not_an_exception():
    assert workloads.read(lambda: SimpleNamespace().nothing) is None
    assert workloads.read(lambda: {}["nothing"]) is None
    hollow = SimpleNamespace()  # a monitor with every attribute removed
    for reader in (
        workloads._flat_counters, workloads._flat_gauges, workloads._flat_sizes,
        workloads._tree_counters, workloads._tree_gauges, workloads._tree_sizes,
    ):
        assert set(reader(hollow).values()) == {None}
    assert harness._delta({"x": None}, {"x": 1}, "x") is None
    assert harness._delta({}, {}, "x") == 0.0  # layer absent from the workload
    assert harness._ratio(None, 3.0) is None
    assert tracer.function_exists("snmp/message.py", "Message.decode")
    assert not tracer.function_exists("snmp/message.py", "Message.gone")
    assert not tracer.function_exists("snmp/gone.py", "Message.decode")


# ----------------------------------------------------------------------
# BENCHMARK.json is the schema, verbatim
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_schema():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["bench"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for entry in declared["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == metrics.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == metrics.PER_LAYER
    assert len(declared["per_layer"]) <= 128
    runs = 4 + 22 * len(declared["workloads"])
    assert 1 <= declared["run_seconds"] <= 60 and runs * declared["run_seconds"] < 3420
