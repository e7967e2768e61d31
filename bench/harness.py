"""One measured run of one workload: set-up, steady window, metrics, checks.

The loop is closed: the simulator is advanced one poll interval at a
time and the next interval starts only when the previous one is done.
Host time is single-threaded, so a faster layer saves at most its self
share of a cycle.
"""

from __future__ import annotations

import gc
import resource
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.experiments.scale import SWITCH_SPEED_BPS

from bench.calib import RefClock
from bench.metrics import (
    ABSENT,
    END_TO_END,
    PER_LAYER,
    first_trusted_instant,
    percentile,
    report_digest,
    slowest_decile_mean,
)
from bench.tracer import LAYERS, PUBLIC_FUNCTIONS, Tracer, function_exists
from bench.workloads import POLL_INTERVAL

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Warm-up advances in slices this long so calibration interleaves.
WARM_SLICE = 0.05
OUT_DIR = Path(__file__).resolve().parent / "out"

Value = Optional[float]


def _span(tracer: Optional[Tracer], name: str, profile: bool = False):
    return nullcontext() if tracer is None else tracer.span(name, profile)


def set_up(cls, seed: int, cycles: int, clock: RefClock, tracer: Optional[Tracer]):
    """Build one rig and warm it up; returns it with per-phase
    ``(reference_s, raw_s)`` timings."""
    phases: Dict[str, Tuple[float, float]] = {}

    def timed(name: str, fn) -> None:
        def body():
            with _span(tracer, f"setup.{name}", profile=True):
                fn()

        ref, raw = clock.timed(body)
        before = phases.get(name, (0.0, 0.0))
        phases[name] = (before[0] + ref, before[1] + raw)

    rig = None

    def make() -> None:
        nonlocal rig
        rig = cls(seed, cycles)  # turns the seed into plain inputs
        rig.spec()

    with _span(tracer, "setup"):
        timed("spec", make)
        timed("build", rig.build)
        timed("monitor", rig.start)
        # One profile per traced phase: a traced warm-up is one slice.
        steps = 1 if tracer is not None else round(cls.WARM_UNTIL / WARM_SLICE)
        for k in range(1, steps + 1):
            until = cls.WARM_UNTIL * k / steps
            timed("warmup", lambda: rig.network.run(until))
    return rig, phases


def _delta(end: dict, start: dict, name: str) -> Value:
    """Growth of a cumulative counter; 0 for a layer the workload lacks,
    ``None`` when the attribute behind it is gone."""
    if name not in end:
        return 0.0
    if end[name] is None or start.get(name) is None:
        return None
    return float(end[name] - start[name])


def _sum(a: Value, b: Value) -> Value:
    return None if a is None or b is None else a + b


def _ratio(top: Value, bottom: Value) -> Value:
    if top is None or bottom is None:
        return None
    return top / bottom if bottom else 0.0


def measure(cls, seed: int, cycles: int, trace: bool) -> dict:
    """Run workload class ``cls`` once over ``cycles`` steady poll
    intervals and return the full result record."""
    name = cls.name
    clock = RefClock()
    tracer = Tracer() if trace else None

    # -- set-up ---------------------------------------------------------
    setups: List[Dict[str, Tuple[float, float]]] = []
    for _ in range(1 if trace else SETUPS):
        rig = None  # drop the previous network before building the next
        gc.collect()
        rig, phases = set_up(cls, seed, cycles, clock, tracer)
        setups.append(phases)
    at_warm = rig.counters()

    # -- steady window --------------------------------------------------
    gc.collect()
    ref_ms: List[float] = []
    raw_ms: List[float] = []
    peaks: Dict[str, Value] = {}
    sums: Dict[str, Value] = {}
    for i in range(cycles):
        until = cls.WARM_UNTIL + (i + 1) * POLL_INTERVAL
        profiled = trace and i % 2 == 1  # odd cycles traced, even ones not

        def step():
            with _span(tracer, f"cycle[{i}]", profile=profiled):
                rig.network.run(until)

        ref, raw = clock.timed(step)
        ref_ms.append(ref * 1e3)
        raw_ms.append(raw * 1e3)
        for key, value in rig.gauges().items():
            if value is None or peaks.get(key, 0) is None:
                peaks[key] = sums[key] = None
            else:
                peaks[key] = max(peaks.get(key, 0), value)
                sums[key] = sums.get(key, 0) + value
    at_end = rig.counters()
    sizes = rig.sizes()
    if tracer is not None:
        tracer.finish()

    # -- end-to-end -----------------------------------------------------
    steady_reports = [r for r in rig.reports if r.time > cls.WARM_UNTIL]
    untraced_ms = ref_ms[0::2] if trace else ref_ms
    untraced_raw_ms = raw_ms[0::2] if trace else raw_ms
    setup_ref = [sum(ref for ref, _ in phases.values()) for phases in setups]
    setup_raw = [sum(raw for _, raw in phases.values()) for phases in setups]
    steady = lambda key: _delta(at_end, at_warm, key)  # noqa: E731
    per_cycle = lambda key: _ratio(steady(key), cycles)  # noqa: E731
    ages = [r.freshness for r in steady_reports if r.freshness is not None]
    untrusted = sum(1 for r in steady_reports if not r.trusted)
    trusted_at = first_trusted_instant(rig.reports, len(rig.labels))
    end_to_end: Dict[str, Value] = {
        "setup_s": median(setup_ref),
        "cycle_ms_p50": median(untraced_ms),
        "cycle_ms_slowest_decile": slowest_decile_mean(untraced_ms),
        "cycle_ms_p90": percentile(untraced_ms, 90),
        "realtime_factor": len(untraced_ms) * POLL_INTERVAL / (sum(untraced_ms) / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_age_s_max": max(ages) if ages else None,
        "monitor_bytes_per_cycle": per_cycle("monitor_octets"),
        "first_trusted_report_s": None if trusted_at is None else trusted_at - cls.START_AT,
        "untrusted_report_share": untrusted / len(steady_reports) if steady_reports else None,
        "avg_error_pct": rig.avg_error_pct(),
    }
    raw = {
        "setup_s": median(setup_raw),
        "cycle_ms_p50": median(untraced_raw_ms),
        "cycle_ms_slowest_decile": slowest_decile_mean(untraced_raw_ms),
        "cycle_ms_p90": percentile(untraced_raw_ms, 90),
        "kernel_ms": clock.kernel_s * 1e3,
    }

    # -- per layer ------------------------------------------------------
    steady_sim_s = cycles * POLL_INTERVAL
    layer: Dict[str, Value] = {
        "first_trusted_report_s": end_to_end["first_trusted_report_s"],
        "avg_error_pct": end_to_end["avg_error_pct"],
        "simnet.events_setup": at_warm.get("simnet.events"),
        "simnet.frames_flooded_setup": at_warm.get("simnet.frames_flooded"),
        "simnet.events_per_cycle": per_cycle("simnet.events"),
        "simnet.frames_forwarded_per_cycle": per_cycle("simnet.frames_forwarded"),
        "simnet.nic_discards": at_end.get("simnet.nic_discards"),
        "spec.build_ms": median(
            (p["spec"][0] + p["build"][0]) * 1e3 for p in setups
        ),
        "snmp.exchanges_per_cycle": per_cycle("snmp.exchanges"),
        "snmp.varbinds_per_exchange": _ratio(
            sizes.get("snmp.varbinds_per_cycle"), per_cycle("snmp.exchanges")
        ),
        "snmp.retries_per_cycle": per_cycle("snmp.retries"),
        "snmp.timeouts_per_cycle": per_cycle("snmp.timeouts"),
        "poller.samples_per_cycle": per_cycle("poller.samples"),
        "poller.window_peak": peaks.get("poller.window_peak", 0.0),
        "poller.overruns": at_end.get("poller.overruns", 0.0),
        "integrity.samples_per_cycle": per_cycle("integrity.samples"),
        "integrity.nonclean_verdicts": steady("integrity.nonclean_verdicts"),
        "integrity.quarantined_peak": peaks.get("integrity.quarantined", 0.0),
        "distributed.batches_per_cycle": per_cycle("distributed.batches"),
        "distributed.uplink_bytes_per_cycle": per_cycle("distributed.uplink_bytes"),
        "distributed.records_advance_share": _ratio(
            steady("distributed.records_advance"), steady("distributed.records")
        ),
        "distributed.keyframes": steady("distributed.keyframes"),
        "distributed.retransmits": at_end.get("distributed.retransmits", 0.0),
        "distributed.duplicate_batches": at_end.get("distributed.duplicate_batches", 0.0),
        "distributed.gaps_detected": at_end.get("distributed.gaps_detected", 0.0),
        "distributed.decode_errors": at_end.get("distributed.decode_errors", 0.0),
        "dataflow.cache_hit_ratio": _ratio(
            steady("dataflow.cache_hits"),
            _sum(steady("dataflow.cache_hits"), steady("dataflow.recomputes")),
        ),
        "dataflow.measure_path_calls_per_cycle": None,  # traced runs only
        "dataflow.pairs": sizes.get("dataflow.pairs", 0.0),
        "dataflow.dirty_pairs_per_cycle": _ratio(
            sums.get("dataflow.dirty_pairs", 0.0), cycles
        ),
        "stream.events_delivered_per_cycle": per_cycle("stream.events_delivered"),
        "stream.events_suppressed_per_cycle": per_cycle("stream.events_suppressed"),
        "stream.events_dropped": at_end.get("stream.events_dropped", 0.0),
        "probe.trains_per_cycle": per_cycle("probe.trains"),
        "probe.timeouts": at_end.get("probe.timeouts", 0.0),
        "probe.load_share": _ratio(
            steady("probe.bytes"), steady_sim_s * SWITCH_SPEED_BPS / 8.0
        ),
        "monitor.topology_rounds": steady("monitor.topology_rounds"),
        "monitor.topology_changes": at_end.get("monitor.topology_changes", 0.0),
        "monitor.path_reroutes": steady("monitor.path_reroutes"),
        "history.bytes_per_point": _ratio(
            at_end.get("history.nbytes"), at_end.get("history.points")
        ),
    }
    if tracer is not None:
        layer.update(_traced_metrics(tracer, ref_ms))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{name}.json")

    # -- correctness ----------------------------------------------------
    failures = rig.check(
        steady_reports,
        totals=at_end,
        growth={key: steady(key) for key in at_end},
        dirty_pairs=sums.get("dataflow.dirty_pairs"),
        probe_load_share=layer["probe.load_share"],
    )
    return {
        "workload": name,
        "seed": seed,
        "cycles": cycles,
        "samples": len(untraced_ms),
        "traced": trace,
        "correct": not failures,
        "failures": failures,
        "attempted": len(steady_reports),
        "failed": untrusted,
        "report_digest": report_digest(rig.reports),
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": {key: layer.get(key) for key in PER_LAYER},
    }


def _traced_metrics(tracer: Tracer, ref_ms: List[float]) -> Dict[str, Value]:
    """Per-layer self time and calls from the odd (profiled) cycles."""
    spans = tracer.profiled("cycle[")
    traced_wall = sum(span.duration for span in spans)
    self_s = {layer: sum(s.layers[layer][0] for s in spans) for layer in LAYERS}
    total_self = sum(self_s.values())
    untraced_mean = sum(ref_ms[0::2]) / len(ref_ms[0::2])
    out: Dict[str, Value] = {
        "trace.coverage": total_self / traced_wall,
        "trace.overhead_ratio": median(ref_ms[1::2]) / median(ref_ms[0::2]),
    }
    for layer in LAYERS:
        share = self_s[layer] / total_self
        out[f"{layer}.self_share"] = share
        # What the layer costs in an untraced cycle, were its share of
        # the profile its share of the cycle.
        out[f"{layer}.self_ms_per_cycle"] = share * untraced_mean
        out[f"{layer}.py_calls_per_cycle"] = sum(
            s.layers[layer][1] for s in spans
        ) / len(spans)
    for metric, (suffix, qualname, scale) in PUBLIC_FUNCTIONS.items():
        calls = sum(s.functions[metric][0] for s in spans if metric in s.functions)
        total = sum(s.functions[metric][1] for s in spans if metric in s.functions)
        if not function_exists(suffix, qualname):
            out[metric] = None  # the name is gone
        else:
            out[metric] = total / calls * scale if calls else 0.0  # 0: never called
        if metric == "dataflow.measure_path_us":
            out["dataflow.measure_path_calls_per_cycle"] = calls / len(spans)
    return out


def contract_metrics(result: dict) -> Dict[str, dict]:
    """The ``metrics`` object of the driver's result line."""
    if result["traced"]:
        return {
            key: {
                "value": ABSENT if result["per_layer"][key] is None else result["per_layer"][key],
                "unit": unit,
            }
            for key, (unit, _) in PER_LAYER.items()
        }
    return {
        key: {"value": result["end_to_end"][key], "unit": unit}
        for key, (unit, _, _) in END_TO_END.items()
    }
