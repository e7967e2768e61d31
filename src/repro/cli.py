"""Command-line interface.

Installed as the ``repro`` console script::

    repro validate topology.net              # parse + validate a spec file
    repro show topology.net                  # normalised spec + graph facts
    repro experiment fig4 --seed 1           # regenerate a paper artefact
    repro monitor topology.net --host L --watch S1:N1 \\
          --load L:N1:200:10:40 --until 60 --chart
    repro history --load L:N1:200:10:40      # held reports + range queries
    repro integrity --corrupt S1:random:10 --until 30   # trust + quarantine
    repro stream --load L:N1:300:5:30 --threshold S1:N1:500   # push events
    repro discover topology.net --host L     # SNMP topology discovery
    repro topology redundant.net --host A --fail-uplink sw1:sw2
                                             # STP view + uplink failover

Every subcommand works on simulated time and returns a conventional exit
code (0 ok, 1 failure, 2 usage), so the tool scripts cleanly.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro._numpy import np
from repro.analysis.charts import render_pair
from repro.core.history import HISTORY_HORIZON_S, PathSeries
from repro.core.monitor import NetworkMonitor
from repro.simnet.network import NetworkError
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.spec.parser import ParseError, parse_file
from repro.spec.lexer import LexError
from repro.spec.validate import validate_spec
from repro.spec.writer import write_spec
from repro.topology.graph import TopologyGraph
from repro.topology.model import TopologyError

EXPERIMENTS = ("fig4", "fig5", "fig6", "table2")
# The numeric ``PathReport`` fields ``repro history`` prints and aggregates.
HISTORY_FIELDS = ("used_bps", "available_bps", "capacity_bps", "confidence")

# A spec file that cannot be read, parsed, validated or built: exit 1.
# (SpecValidationError is a TopologyError.)
_SPEC_ERRORS = (ParseError, LexError, TopologyError, OSError)
# A command line that names something the network does not have, or
# spells an argument wrong: exit 2.  (MonitorError, MatrixError,
# StreamError, QueryError and ProbeError are ValueErrors.)
_USAGE_ERRORS = (ValueError, KeyError, NetworkError)
_NEED_HOST = "--host is required with a spec file"
_NEED_WATCH = "at least one --watch SRC:DST is required"


def _seconds(text: str) -> float:
    """A simulated duration: a finite number, zero or more."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"wants a finite number of seconds >= 0, got {text!r}"
        )
    return value


def _scenario_args(
    until: float = 60.0, host: bool = True, watch: bool = True
) -> argparse.ArgumentParser:
    """The arguments every monitoring subcommand shares, as an argparse
    parent: which network, who monitors it, what is watched, what load
    runs over it, and for how long."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "specfile", nargs="?", default=None,
        help="topology spec (default: the paper's Figure-3 testbed)",
    )
    if host:
        parent.add_argument(
            "--host", default=None,
            help="host running the monitor (default: L on the built-in testbed)",
        )
    if watch:
        parent.add_argument(
            "--watch", action="append", default=[], metavar="SRC:DST",
            help="host pair to watch (repeatable; default on the testbed: S1:N1)",
        )
    parent.add_argument(
        "--load", action="append", default=[], metavar="SRC:DST:KBPS:T0:T1",
        help="UDP load to generate (repeatable)",
    )
    parent.add_argument("--until", type=_seconds, default=until, help="simulated seconds")
    parent.add_argument("--interval", type=float, default=2.0, help="poll interval")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNMP network-QoS monitor (IPPS 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a topology spec file")
    p_validate.add_argument("specfile")

    p_show = sub.add_parser("show", help="print the normalised spec and graph facts")
    p_show.add_argument("specfile")

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--seed", type=int, default=0)

    p_mon = sub.add_parser(
        "monitor", parents=[_scenario_args()], help="monitor paths on a specified network"
    )
    p_mon.add_argument("--chart", action="store_true", help="render ASCII charts")

    p_tel = sub.add_parser(
        "telemetry", parents=[_scenario_args()],
        help="run a monitoring scenario and print the monitor's own telemetry",
    )
    p_tel.add_argument(
        "--qos", action="append", default=[], metavar="SRC:DST:MIN_KBPS",
        help="QoS floor on a path; enables the RM middleware (repeatable)",
    )
    p_tel.add_argument(
        "--format", choices=("text", "prometheus", "json"), default="text",
        help="output format (text includes a Prometheus section)",
    )

    p_hist = sub.add_parser(
        "history", parents=[_scenario_args()],
        help="run a monitoring scenario and inspect the reports history keeps",
    )
    p_hist.add_argument(
        "--retention", type=float, default=HISTORY_HORIZON_S, metavar="S",
        help="keep each path's reports of its last S simulated seconds "
             f"(default {HISTORY_HORIZON_S:g})",
    )
    p_hist.add_argument(
        "--range", dest="range_", default=None, metavar="SRC:DST",
        help="print the held reports for one watched path",
    )
    p_hist.add_argument(
        "--start", type=float, default=-math.inf, help="range start time"
    )
    p_hist.add_argument("--end", type=float, default=math.inf, help="range end time")
    p_hist.add_argument(
        "--field", choices=HISTORY_FIELDS, default="used_bps",
        help="report field for --window aggregation (default used_bps)",
    )
    p_hist.add_argument(
        "--window", type=float, default=None, metavar="S",
        help="aggregate the --range query into S-second windows",
    )
    p_hist.add_argument(
        "--agg", choices=("min", "max", "mean", "last"), default="mean",
        help="aggregate for --window (default mean)",
    )

    p_int = sub.add_parser(
        "integrity", parents=[_scenario_args()],
        help="run a monitoring scenario and report measurement-integrity state",
    )
    p_int.add_argument(
        "--corrupt", action="append", default=[], metavar="AGENT:MODE:T0[:T1]",
        help="inject counter corruption on an agent "
             "(mode: random, stuck, or scaled; repeatable)",
    )
    p_int.add_argument(
        "--cross-check", action="store_true",
        help="poll both ends of two-ended connections and compare",
    )
    p_int.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )

    p_dist = sub.add_parser(
        "distributed", parents=[_scenario_args(until=40.0, host=False)],
        help="run the fault-tolerant distributed monitoring plane",
    )
    p_dist.add_argument(
        "--coordinator", default=None,
        help="host receiving worker reports (default: L on the testbed)",
    )
    p_dist.add_argument(
        "--worker", action="append", default=[], metavar="HOST",
        help="polling worker host (repeatable; default on the testbed: "
             "L, S1 and S2)",
    )
    p_dist.add_argument(
        "--crash", action="append", default=[], metavar="WORKER:T0[:T1]",
        help="crash a worker at T0, restarting at T1 (repeatable)",
    )
    p_dist.add_argument(
        "--hierarchy", type=int, default=0, metavar="PODS",
        help="run the two-level coordinator tree over a generated "
             "PODS-pod campus topology instead of a flat plane "
             "(ignores specfile/--coordinator/--worker)",
    )
    p_dist.add_argument(
        "--pod-switches", type=int, default=2, metavar="N",
        help="switches per pod with --hierarchy (default 2)",
    )
    p_dist.add_argument(
        "--pod-hosts", type=int, default=4, metavar="N",
        help="hosts per switch with --hierarchy (default 4)",
    )
    p_dist.add_argument(
        "--window", type=int, default=8, metavar="N",
        help="max in-flight poll units per worker, 0 = unbounded (default 8)",
    )

    p_stream = sub.add_parser(
        "stream", parents=[_scenario_args(until=40.0, watch=False)],
        help="subscribe to streaming matrix events and continuous queries",
    )
    p_stream.add_argument(
        "--pair", action="append", default=[], metavar="SRC:DST",
        help="host pair to subscribe to (repeatable; default: every pair)",
    )
    p_stream.add_argument(
        "--policy", choices=("drop_oldest", "conflate", "block"),
        default="drop_oldest", help="queue overflow policy",
    )
    p_stream.add_argument(
        "--bound", type=int, default=256, help="subscriber queue bound"
    )
    p_stream.add_argument(
        "--significance",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="adaptive significance filtering (--no-significance delivers "
        "every change on every dirty pair)",
    )
    p_stream.add_argument(
        "--threshold", action="append", default=[],
        metavar="SRC:DST:MIN_KBPS[:SAMPLES]",
        help="continuous query: fire when available < MIN_KBPS for "
        ">= SAMPLES consecutive samples (default 2; repeatable)",
    )
    p_stream.add_argument(
        "--percentile", action="append", default=[],
        metavar="SRC:DST:P:UTIL",
        help="continuous query: fire when the pP utilization estimate "
        "over --window exceeds UTIL (0..1; repeatable)",
    )
    p_stream.add_argument(
        "--window", type=float, default=60.0,
        help="percentile query look-back window in seconds",
    )
    p_stream.add_argument(
        "--events", type=int, default=40,
        help="print at most this many events (the rest are summarised)",
    )

    p_probe = sub.add_parser(
        "probe", parents=[_scenario_args(until=40.0)],
        help="active probe trains cross-validated against passive reports",
    )
    p_probe.add_argument(
        "--budget", type=float, default=0.02,
        help="probe load ceiling as a fraction of the narrowest link",
    )
    p_probe.add_argument("--count", type=int, default=16, help="probes per train")
    p_probe.add_argument(
        "--payload", type=int, default=1472, help="probe payload bytes"
    )
    p_probe.add_argument(
        "--timeout", type=float, default=1.0,
        help="seconds before an incomplete train is abandoned",
    )
    p_probe.add_argument(
        "--rtt", action="store_true",
        help="also run an RTT probe session (UDP echo) over each watch",
    )

    p_disc = sub.add_parser("discover", help="SNMP topology discovery + verification")
    p_disc.add_argument("specfile")
    p_disc.add_argument("--host", required=True, help="host running discovery")
    p_disc.add_argument("--until", type=_seconds, default=60.0)

    p_topo = sub.add_parser(
        "topology",
        help="live topology view: STP port roles/states, active paths, failover",
    )
    p_topo.add_argument("specfile")
    p_topo.add_argument("--host", required=True, help="host running the monitor")
    p_topo.add_argument("--until", type=_seconds, default=12.0)
    p_topo.add_argument(
        "--fail-uplink",
        metavar="A:B[:AT]",
        default=None,
        help="kill the currently active uplink between switches A and B "
        "(at time AT, default halfway through the run) and show the "
        "re-converged state",
    )

    p_matrix = sub.add_parser("matrix", help="all-pairs bandwidth matrix")
    p_matrix.add_argument("specfile")
    p_matrix.add_argument("--host", required=True, help="host running the monitor")
    p_matrix.add_argument(
        "--load", action="append", default=[], metavar="SRC:DST:KBPS:T0:T1",
        help="UDP load to generate (repeatable)",
    )
    p_matrix.add_argument("--until", type=_seconds, default=20.0)
    p_matrix.add_argument(
        "--metric", choices=("available", "used", "utilization"), default="available"
    )
    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_validate(args) -> int:
    try:
        spec = parse_file(args.specfile)
    except _SPEC_ERRORS as exc:
        return _fail(exc, 1)
    issues = validate_spec(spec, strict=False)
    for issue in issues:
        print(issue)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        print(f"{len(errors)} error(s)", file=sys.stderr)
        return 1
    print(f"ok: {len(spec.nodes)} nodes, {len(spec.connections)} connections, "
          f"{len(issues)} warning(s)")
    return 0


def cmd_show(args) -> int:
    try:
        spec = parse_file(args.specfile)
        validate_spec(spec, strict=True)
    except _SPEC_ERRORS as exc:
        return _fail(exc, 1)
    print(write_spec(spec), end="")
    graph = TopologyGraph(spec)
    print(f"# hosts: {', '.join(n.name for n in spec.hosts())}")
    print(f"# devices: {', '.join(n.name for n in spec.devices()) or '(none)'}")
    print(f"# connected: {graph.is_connected()}, loops: {graph.has_cycle()}")
    snmp = [n.name for n in spec.nodes if n.snmp_enabled]
    print(f"# snmp-enabled: {', '.join(snmp) or '(none)'}")
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import fig4, fig5, fig6, table2

    module = {"fig4": fig4, "fig5": fig5, "fig6": fig6, "table2": table2}[args.name]
    module.main(seed=args.seed)
    return 0


def _fail(error, code: int) -> int:
    print(f"error: {error}", file=sys.stderr)
    return code


def _fields(text: str, option: str, shape: str, *counts: int) -> List[str]:
    """The ``:``-separated fields of one option value, ``counts`` of them."""
    parts = text.split(":")
    if len(parts) not in counts or not all(parts):
        raise ValueError(f"{option} wants {shape}, got {text!r}")
    return parts


def _parse_watch(text: str):
    src, dst = _fields(text, "--watch", "SRC:DST", 2)
    return src, dst


def _parse_load(text: str):
    src, dst, rate, t0, t1 = _fields(text, "--load", "SRC:DST:KBPS:T0:T1", 5)
    return src, dst, float(rate), float(t0), float(t1)


def _open(args, host, watches, needs=None):
    """The network a monitoring subcommand runs on, who monitors it and
    what is watched: ``(build, host, watches)``, or the exit code once
    the error has been printed.

    Without a spec file that is the paper's Figure-3 testbed, monitored
    from L, watching S1:N1 unless the command line says otherwise.  A
    spec file has no such defaults: every ``(message, value)`` in
    ``needs`` (default: ``host`` and ``watches``) must have a value.
    """
    from repro.experiments.testbed import MONITOR_HOST, build_testbed

    try:
        if args.specfile is None:
            return build_testbed(), host or MONITOR_HOST, watches or ["S1:N1"]
        build = build_network(parse_file(args.specfile))
    except _SPEC_ERRORS as exc:
        return _fail(exc, 1)
    if needs is None:
        needs = [(_NEED_HOST, host), (_NEED_WATCH, watches)]
    for message, value in needs:
        if not value:
            return _fail(message, 2)
    return build, host, watches


def _start_loads(build, loads) -> None:
    """Start one UDP pulse per ``--load SRC:DST:KBPS:T0:T1``."""
    for text in loads:
        src, dst, rate, t0, t1 = _parse_load(text)
        StaircaseLoad(
            build.network.host(src),
            build.network.ip_of(dst),
            StepSchedule.pulse(t0, t1, rate * KBPS),
        ).start()


def cmd_monitor(args) -> int:
    opened = _open(args, args.host, args.watch)
    if isinstance(opened, int):
        return opened
    build, host, watches = opened
    try:
        monitor = NetworkMonitor(build, host, poll_interval=args.interval)
        labels = [monitor.watch_path(*_parse_watch(w)) for w in watches]
        _start_loads(build, args.load)
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    monitor.start()
    build.network.run(args.until)
    for label in labels:
        if label not in monitor.history:
            print(f"{label}: 0 reports")
            continue
        series = monitor.history.series(label)
        used = series.used()
        avail = series.available()
        print(f"{label}: {len(series)} reports; used max "
              f"{used.max() / 1000:.1f} KB/s, available min "
              f"{avail.min() / 1000:.1f} KB/s")
        if args.chart:
            from repro.experiments.scenarios import SeriesPair

            pair = SeriesPair(
                label=label,
                times=series.times(),
                measured_kbps=used / 1000.0,
                generated_kbps=np.zeros(len(series)),
            )
            print(render_pair(pair, title=f"measured used bandwidth on {label}"))
    stats = monitor.stats()
    print(f"snmp: {stats['snmp_requests']:.0f} requests, "
          f"{stats['snmp_timeouts']:.0f} timeouts")
    return 0


def _parse_qos(text: str):
    src, dst, kbps = _fields(text, "--qos", "SRC:DST:MIN_KBPS", 3)
    return src, dst, float(kbps)


def _print_histogram_table(family, unit_scale: float, unit: str) -> None:
    header = (
        f"{'':>12} {'count':>7} {'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}"
    )
    print(header)
    for label_values, child in family.children():
        who = label_values[0] if label_values else "(all)"
        qs = child.quantiles()
        cells = " ".join(
            f"{qs[q] * unit_scale:>8.3f}{unit}" for q in (0.5, 0.9, 0.99)
        )
        peak = child.max * unit_scale if child.count else float("nan")
        print(f"{who:>12} {child.count:>7d} {cells} {peak:>8.3f}{unit}")


def cmd_telemetry(args) -> int:
    from repro.rm.middleware import RmMiddleware
    from repro.rm.qos import QosRequirement
    from repro.telemetry import json_snapshot, prometheus_text

    opened = _open(args, args.host, args.watch, needs=[
        (_NEED_HOST, args.host),
        ("at least one --watch SRC:DST (or --qos) is required",
         args.watch or args.qos),
    ])
    if isinstance(opened, int):
        return opened
    build, host, watches = opened
    try:
        monitor = NetworkMonitor(build, host, poll_interval=args.interval)
        for watch in watches:
            monitor.watch_path(*_parse_watch(watch))
        requirements = [
            QosRequirement(
                name=f"{src}->{dst}", src=src, dst=dst,
                min_available_bps=kbps * 1000.0,
            )
            for src, dst, kbps in (_parse_qos(q) for q in args.qos)
        ]
        if requirements:
            RmMiddleware(monitor, requirements)
        _start_loads(build, args.load)
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    monitor.start()
    build.network.run(args.until)

    telemetry = monitor.telemetry
    if args.format == "prometheus":
        print(prometheus_text(telemetry.registry), end="")
        return 0
    if args.format == "json":
        print(json_snapshot(telemetry))
        return 0

    registry = telemetry.registry
    print(f"telemetry after {build.network.now:.1f} simulated seconds\n")
    print("SNMP round-trip time per agent:")
    _print_histogram_table(registry.get("snmp_rtt_seconds"), 1000.0, "ms")
    print("\nPoll cycle duration:")
    _print_histogram_table(registry.get("poll_cycle_seconds"), 1000.0, "ms")
    if "report_staleness_seconds" in registry:
        print("\nReport staleness:")
        _print_histogram_table(registry.get("report_staleness_seconds"), 1.0, "s ")
    print("\nEvent counts:")
    print(telemetry.events.format_counts())
    if telemetry.tracer.slow:
        print("\nSlow spans (> poll interval):")
        print(telemetry.tracer.format_slow())
    print("\nMonitor stats:")
    for key, value in monitor.stats().items():
        print(f"{key:>24}: {value:.0f}")
    hits = monitor.calculator.cache_hits
    recomputes = monitor.calculator.recomputes
    total = hits + recomputes
    if total:
        print(f"\nDataflow cache: {hits}/{total} measurement(s) served "
              f"from cache ({hits / total * 100.0:.1f}% hit rate)")
    print("\n--- Prometheus export ---")
    print(prometheus_text(registry), end="")
    return 0


def _window_aggregate(times, values, window: float, agg: str):
    """``(window starts, aggregates)`` of ``values`` over ``window``-second
    buckets aligned to multiples of ``window``; empty buckets are absent."""
    if not len(times):
        return times, values
    buckets = np.floor(times / window)
    starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
    ends = np.r_[starts[1:], len(values)]
    if agg == "last":
        out = values[ends - 1]
    elif agg == "mean":
        out = np.add.reduceat(values, starts) / (ends - starts)
    else:
        out = {"min": np.minimum, "max": np.maximum}[agg].reduceat(values, starts)
    return buckets[starts] * window, out


def cmd_history(args) -> int:
    opened = _open(args, args.host, args.watch)
    if isinstance(opened, int):
        return opened
    build, host, watches = opened
    try:
        monitor = NetworkMonitor(
            build, host, poll_interval=args.interval,
            history_retention_s=args.retention,
        )
        labels = [monitor.watch_path(*_parse_watch(w)) for w in watches]
        _start_loads(build, args.load)
        label = args.range_
        if label is not None and label not in labels:
            label = label.replace(":", "<->")  # SRC:DST names its watch label
            if label not in labels:
                raise ValueError(f"no watched path {args.range_!r} (have {labels})")
        if args.window is not None and not args.window > 0:
            raise ValueError(f"window must be positive, got {args.window!r}")
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    monitor.start()
    build.network.run(args.until)

    history = monitor.history

    def held(name: str) -> PathSeries:
        return history.series(name) if name in history else PathSeries(name, [])

    print(f"history after {build.network.now:.1f} simulated seconds "
          f"(horizon {history.retention_s:g} s)\n")
    print(f"{'path':>14} {'reports':>8} {'dropped':>8} {'first':>8} {'last':>8}")
    for name in labels:
        series = held(name)
        span = (f"{series.reports[0].time:>8.2f} {series.reports[-1].time:>8.2f}"
                if series.reports else f"{'-':>8} {'-':>8}")
        print(f"{name:>14} {len(series):>8d} {series.dropped:>8d} {span}")
    print(f"{'(total)':>14} {history.reports_held:>8d} "
          f"{history.reports_dropped:>8d}")

    if label is not None:
        series = held(label).between(args.start, args.end)
        print(f"\n{label}:")
        if args.window is not None:
            values = np.array(
                [getattr(r, args.field) for r in series.reports], dtype=np.float64
            )
            starts, out = _window_aggregate(
                series.times(), values, args.window, args.agg
            )
            print(f"{'window':>10} {args.agg + '(' + args.field + ')':>24}")
            for t, v in zip(starts, out):
                print(f"{t:>10.1f} {v:>24.1f}")
        else:
            print(f"{'time':>10} " + " ".join(f"{n:>14}" for n in HISTORY_FIELDS)
                  + f" {'status':>12}")
            for r in series.reports:
                cells = " ".join(f"{getattr(r, n):>14.1f}" for n in HISTORY_FIELDS)
                print(f"{r.time:>10.2f} {cells} {r.status:>12}")
    return 0


def _parse_corrupt(text: str):
    agent, mode, t0, *t1 = _fields(text, "--corrupt", "AGENT:MODE:T0[:T1]", 3, 4)
    return agent, mode, float(t0), float(t1[0]) if t1 else None


def cmd_integrity(args) -> int:
    import json as json_module

    from repro.simnet.faults import CounterCorruption, FaultError, StuckCounters
    from repro.telemetry.events import (
        COUNTER_WRAP_RISK,
        CROSS_CHECK_MISMATCH,
        INTEGRITY_VIOLATION,
        QUARANTINE_ENTER,
        QUARANTINE_EXIT,
    )

    opened = _open(args, args.host, args.watch)
    if isinstance(opened, int):
        return opened
    build, host, watches = opened
    try:
        monitor = NetworkMonitor(
            build, host, poll_interval=args.interval,
            cross_check=args.cross_check,
        )
        for watch in watches:
            monitor.watch_path(*_parse_watch(watch))
        _start_loads(build, args.load)
        for corrupt_text in args.corrupt:
            agent_name, mode, t0, t1 = _parse_corrupt(corrupt_text)
            if agent_name not in build.agents:
                raise ValueError(f"no SNMP agent on {agent_name!r}")
            agent = build.agents[agent_name]
            if mode == "stuck":
                StuckCounters(
                    build.network.sim, agent, at=t0, until=t1,
                    events=monitor.telemetry.events,
                )
            else:
                CounterCorruption(
                    build.network.sim, agent, at=t0, until=t1, mode=mode,
                    events=monitor.telemetry.events,
                )
    except _USAGE_ERRORS + (FaultError,) as exc:
        return _fail(exc, 2)
    monitor.start()
    build.network.run(args.until)

    pipeline = monitor.integrity
    if pipeline is None:
        return _fail("integrity pipeline is disabled", 1)
    status = pipeline.status()
    bus = monitor.telemetry.events
    event_counts = {
        kind: bus.count(kind)
        for kind in (INTEGRITY_VIOLATION, CROSS_CHECK_MISMATCH,
                     QUARANTINE_ENTER, QUARANTINE_EXIT, COUNTER_WRAP_RISK)
    }
    stats = monitor.stats()
    integrity_stats = {
        key: stats[key]
        for key in ("integrity_violations", "integrity_rejected",
                    "integrity_quarantined", "cross_check_mismatches", "samples")
    }

    if args.format == "json":
        print(json_module.dumps(
            {"status": status, "events": event_counts, "stats": integrity_stats},
            indent=2,
        ))
        return 0

    print(f"integrity after {build.network.now:.1f} simulated seconds\n")
    if status["interfaces"]:
        print(f"{'interface':>14} {'trust':>7} {'state':>12} "
              f"{'violations':>11} {'suspects':>9}")
        for row in status["interfaces"]:
            name = f"{row['node']}:{row['if_index']}"
            state = "QUARANTINED" if row["quarantined"] else (
                "wrap-risk" if row["wrap_risk"] else "ok")
            print(f"{name:>14} {row['trust']:>7.2f} {state:>12} "
                  f"{row['violations']:>11d} {row['suspects']:>9d}")
    else:
        print("no integrity verdicts recorded (all samples clean)")
    if status["pairs"]:
        print("\ncross-checked pairs:")
        for row in status["pairs"]:
            streak = row["mismatch_streak"]
            tail = f"  [mismatch streak {streak}]" if streak else ""
            print(f"  {row['pair']}{tail}")
    print("\nintegrity events:")
    for kind, count in event_counts.items():
        print(f"{kind:>24}: {count}")
    print("\nintegrity stats:")
    for key, value in integrity_stats.items():
        print(f"{key:>24}: {value:.0f}")
    return 0


def cmd_discover(args) -> int:
    from repro.core.discovery import TopologyDiscoverer, snmp_candidates
    from repro.simnet.network import BROADCAST_IP
    from repro.snmp.manager import SnmpManager

    try:
        build = build_network(parse_file(args.specfile))
    except _SPEC_ERRORS as exc:
        return _fail(exc, 1)
    spec, net = build.spec, build.network
    net.run(1.0)
    for host in net.hosts.values():
        host.create_socket().sendto(10, (BROADCAST_IP, 520))
    net.run(2.0)
    try:
        manager = SnmpManager(net.host(args.host))
    except Exception as exc:
        return _fail(exc, 2)
    box = {}
    TopologyDiscoverer(manager, snmp_candidates(build)).discover(
        lambda result: box.update(result=result)
    )
    net.run(net.now + args.until)
    if "result" not in box:
        return _fail("discovery did not complete in time", 1)
    result = box["result"]
    for att in result.attachments:
        stations = list(att.known_nodes) + [str(m) for m in att.unknown_macs]
        shared = " [shared]" if att.shared_segment else ""
        print(f"{att.switch} port {att.port}: {', '.join(stations)}{shared}")
    findings = result.verify_against(spec)
    for finding in findings:
        print(finding)
    mismatches = [f for f in findings if f.startswith(("missing", "mismatch"))]
    return 1 if mismatches else 0


def cmd_topology(args) -> int:
    from itertools import combinations

    from repro.core.traversal import NoPathError, find_path, pair_redundant
    from repro.simnet.faults import FaultError, LinkFailure
    from repro.telemetry.events import PATH_REROUTED, TOPOLOGY_CHANGED

    fail_between = None
    fail_at = None
    if args.fail_uplink is not None:
        try:
            a, b, *at = _fields(args.fail_uplink, "--fail-uplink", "A:B[:AT]", 2, 3)
            fail_at = float(at[0]) if at else args.until / 2.0
        except ValueError as exc:
            return _fail(exc, 2)
        fail_between = (a, b)
    try:
        build = build_network(parse_file(args.specfile))
    except _SPEC_ERRORS as exc:
        return _fail(exc, 1)
    try:
        monitor = NetworkMonitor(build, args.host, poll_jitter=0.0)
        monitor.enable_topology_sync()
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    spec, net = build.spec, build.network
    graph = monitor.graph
    hosts = [n.name for n in spec.hosts()]
    for a, b in combinations(hosts, 2):
        monitor.watch_path(a, b)  # watched pairs get reroute events
    net.announce_hosts(at=1.0)
    monitor.start(at=2.0)
    if fail_between is not None:
        a, b = fail_between
        net.run(max(fail_at - 0.1, net.now))
        uplinks = [
            c
            for c in spec.connections
            if {c.end_a.node, c.end_b.node} == {a, b}
        ]
        blocked = graph.blocked_connections()
        active = [c for c in uplinks if c not in blocked]
        if not active:
            return _fail(f"no active uplink between {a!r} and {b!r}", 1)
        try:
            LinkFailure.between(
                net, a, b, at=fail_at,
                index=uplinks.index(active[0]),
                events=monitor.telemetry.events,
            )
        except FaultError as exc:
            return _fail(exc, 1)
        print(f"failing active uplink {active[0]} at {fail_at:.1f}s")
    net.run(args.until)

    print(f"\n== spanning tree at {net.now:.1f}s ==")
    stp_switches = [
        (name, net.switches[name])
        for name in sorted(net.switches)
        if net.switches[name].stp is not None
    ]
    if not stp_switches:
        print("(no STP-enabled switches)")
    for name, switch in stp_switches:
        root = " (root bridge)" if switch.stp.is_root else ""
        print(f"{name}{root}:")
        for if_index, role, state in switch.stp.port_table():
            print(f"  port{if_index}: {role:<10} {state}")
    blocked = graph.blocked_connections()
    print(
        "blocked connections: "
        + (", ".join(str(c) for c in blocked) if blocked else "none")
    )

    print(f"\n== active paths (topology epoch {graph.topology_epoch}) ==")
    for a, b in combinations(hosts, 2):
        try:
            path = find_path(graph, a, b)
        except NoPathError:
            print(f"{a} <-> {b}: UNREACHABLE")
            continue
        flag = "redundant" if pair_redundant(graph, a, b, path) else "single-path"
        print(f"{a} <-> {b} [{flag}]: " + " | ".join(str(c) for c in path))

    events = monitor.telemetry.events
    changes = events.count(TOPOLOGY_CHANGED)
    reroutes = events.count(PATH_REROUTED)
    print(f"\n{changes} topology change(s), {reroutes} path reroute(s)")
    for event in events.events(PATH_REROUTED):
        attrs = event.attrs
        print(
            f"  [{event.time:.1f}s] {attrs['watch']}: {attrs['old_path']}"
            f" ==> {attrs['new_path']}"
        )
    return 0


def cmd_matrix(args) -> int:
    from repro.core.matrix import BandwidthMatrix

    try:
        build = build_network(parse_file(args.specfile))
    except _SPEC_ERRORS as exc:
        return _fail(exc, 1)
    try:
        monitor = NetworkMonitor(build, args.host)
        _start_loads(build, args.load)
        matrix = BandwidthMatrix(build.spec, monitor.calculator, graph=monitor.graph)
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    monitor.start()
    build.network.run(args.until)
    snapshot = matrix.snapshot(time=build.network.now)
    print(snapshot.format_table(args.metric))
    worst = snapshot.worst_pair()
    if worst is not None:
        a, b, available = worst
        print(f"\ntightest pair: {a} <-> {b} "
              f"({available / 1000:.1f} KB/s available)")
    calc = monitor.calculator
    total = calc.cache_hits + calc.recomputes
    rate = (calc.cache_hits / total * 100.0) if total else 0.0
    print(f"\ndataflow: {calc.cache_hits} cache hit(s), "
          f"{calc.recomputes} recompute(s) ({rate:.1f}% hit rate), "
          f"{matrix.dirty_pairs_last} dirty pair(s) in last snapshot")
    return 0


def _parse_threshold(text: str):
    src, dst, kbps, *samples = _fields(
        text, "--threshold", "SRC:DST:MIN_KBPS[:SAMPLES]", 3, 4
    )
    return src, dst, float(kbps), int(samples[0]) if samples else 2


def _parse_percentile(text: str):
    src, dst, p, util = _fields(text, "--percentile", "SRC:DST:P:UTIL", 4)
    return src, dst, float(p), float(util)


def cmd_stream(args) -> int:
    from repro.stream import OverflowPolicy, PercentileQuery, ThresholdQuery

    # No --pair subscribes to every pair, on a spec file too.
    opened = _open(args, args.host, args.pair, needs=[(_NEED_HOST, args.host)])
    if isinstance(opened, int):
        return opened
    build, host, _ = opened
    try:
        if args.events < 0:
            raise ValueError(f"--events must be >= 0, got {args.events!r}")
        monitor = NetworkMonitor(build, host, poll_interval=args.interval)
        publisher = monitor.enable_streaming(significance=args.significance)
        pairs = [_parse_watch(p) for p in args.pair] or None
        subscription = publisher.manager.subscribe(
            "cli",
            pairs=pairs,
            policy=OverflowPolicy(args.policy),
            bound=args.bound,
        )
        for i, text in enumerate(args.threshold):
            src, dst, kbps, samples = _parse_threshold(text)
            publisher.register_query(
                ThresholdQuery(
                    f"threshold{i}:{src}<->{dst}",
                    metric="available",
                    op="<",
                    threshold=kbps * 1000.0,
                    for_samples=samples,
                    pairs=[(src, dst)],
                ),
                "cli",
            )
        for i, text in enumerate(args.percentile):
            src, dst, p, util = _parse_percentile(text)
            publisher.register_query(
                PercentileQuery(
                    f"p{round(p * 100)}:{src}<->{dst}",
                    p=p,
                    window_s=args.window,
                    interval_s=args.interval,
                    threshold=util,
                    pairs=[(src, dst)],
                ),
                "cli",
            )
        _start_loads(build, args.load)
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    monitor.start()
    build.network.run(args.until)

    events = subscription.drain()
    print(f"stream after {build.network.now:.1f} simulated seconds: "
          f"{len(events)} pending event(s) "
          f"[policy {args.policy}, bound {args.bound}]\n")
    for event in events[: args.events]:
        print(event)
    if len(events) > args.events:
        print(f"... and {len(events) - args.events} more")
    stats = publisher.stats()
    print("\nstream counters:")
    for key in ("subscribers", "delivered", "suppressed", "dropped",
                "cycles", "epoch", "queries", "filter_resets"):
        print(f"{key:>16}: {stats[key]}")
    sub_stats = subscription.stats()
    print("\nsubscription 'cli': "
          f"delivered {sub_stats['delivered']}, dropped {sub_stats['dropped']}, "
          f"conflated {sub_stats['conflated']}, "
          f"high watermark {sub_stats['high_watermark']}")
    return 0


def _parse_crash(text: str):
    worker, t0, *t1 = _fields(text, "--crash", "WORKER:T0[:T1]", 2, 3)
    return worker, float(t0), float(t1[0]) if t1 else None


def cmd_distributed(args) -> int:
    from repro.core.distributed import DistributedMonitor
    from repro.simnet.faults import WorkerCrash

    hierarchy = args.hierarchy
    if hierarchy:
        from repro.core.hierarchy import HierarchicalMonitor
        from repro.experiments.scale import hierarchy_plan, scale_spec

        shape = dict(switches=args.pod_switches, hosts_per_switch=args.pod_hosts)
        try:
            build = build_network(
                scale_spec(hierarchical=hierarchy, host_agents=False, **shape)
            )
            plan = hierarchy_plan(hierarchy, **shape)
        except ValueError as exc:  # the shape on the command line
            return _fail(exc, 2)
        coordinator = plan["root"]
        watches = args.watch or [
            f"p0h0_0:p{hierarchy - 1}h{args.pod_switches - 1}_{args.pod_hosts - 1}"
        ]
    else:
        opened = _open(args, args.coordinator, args.watch, needs=[
            ("--coordinator and at least one --worker are required "
             "with a spec file", args.coordinator and args.worker),
            (_NEED_WATCH, args.watch),
        ])
        if isinstance(opened, int):
            return opened
        build, coordinator, watches = opened
    options = dict(poll_interval=args.interval, pipeline_window=args.window)
    try:
        if hierarchy:
            dm = HierarchicalMonitor(build, plan, **options)
        else:
            workers = args.worker or ["L", "S1", "S2"]
            dm = DistributedMonitor(build, coordinator, workers, **options)
        labels = [dm.watch_path(*_parse_watch(w)) for w in watches]
        _start_loads(build, args.load)
        for crash_text in args.crash:
            worker, t0, t1 = _parse_crash(crash_text)
            WorkerCrash(
                build.network.sim, dm.workers[worker], at=t0, until=t1,
                events=dm.telemetry.events,
            )
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    dm.start()
    build.network.run(args.until)

    print(f"distributed plane after {build.network.now:.1f} simulated seconds")
    print(f"coordinator {coordinator}; workers: "
          + ", ".join(f"{w} [{s}]" for w, s in sorted(dm.worker_states().items())))
    print("\nassignments:")
    for worker in sorted(dm.workers):
        targets = ", ".join(dm.targets_of(worker)) or "(spare)"
        print(f"  {worker:>8}: {targets}")
    if dm.leases.transitions:
        print("\nlease transitions:")
        for transition in dm.leases.transitions:
            print(f"  {transition}")
    if hierarchy:
        print("\nshard economics:")
        for name in sorted(dm.leaves):
            leaf = dm.leaves[name]
            shipper = leaf.shipper
            ratio = (
                f"{shipper.keyframes_shipped}/{shipper.batches_shipped}"
                if shipper.batches_shipped else "0/0"
            )
            per_sample = shipper.bytes_shipped / max(1, shipper.samples_shipped)
            print(f"  {name:>8}: {leaf.requests_sent} SNMP exchanges, "
                  f"uplink keyframes/batches {ratio}, "
                  f"{per_sample:.1f} uplink bytes/sample, "
                  f"pipeline window peak {leaf.window_peak}")
    elif args.window:
        print("\npipeline windows:")
        for name in sorted(dm.workers):
            poller = dm.workers[name].poller
            print(f"  {name:>8}: peak {poller.window_peak}, "
                  f"deferred {poller.window_deferred}, "
                  f"overruns {poller.window_overruns}")
    print("\nwatched paths:")
    for label in labels:
        if label not in dm.history:
            print(f"  {label}: 0 reports")
            continue
        series = dm.history.series(label)
        trusted = sum(1 for r in series.reports if r.trusted)
        used = series.used()
        print(f"  {label}: {len(series)} reports ({trusted} trusted), "
              f"used max {used.max() / 1000:.1f} KB/s")
    print("\nplane counters:")
    for key, value in sorted(dm.stats().items()):
        print(f"  {key:<32} {value:g}")
    return 0


def cmd_probe(args) -> int:
    from repro.core.latency import PathProber
    from repro.simnet.sockets import EchoService

    opened = _open(args, args.host, args.watch)
    if isinstance(opened, int):
        return opened
    build, host, watches = opened
    rtt_sessions = []
    try:
        monitor = NetworkMonitor(build, host, poll_interval=args.interval)
        labels = [monitor.watch_path(*_parse_watch(w)) for w in watches]
        prober = monitor.enable_probing(
            budget_fraction=args.budget,
            count=args.count,
            payload_size=args.payload,
            timeout=args.timeout,
        )
        _start_loads(build, args.load)
        if args.rtt:
            for watch in watches:
                src, dst = _parse_watch(watch)
                EchoService(build.network.host(dst))
                session = PathProber(
                    build.network.host(src), build.network.ip_of(dst)
                )
                rtt_sessions.append((f"{src}<->{dst}", session))
                session.start()
    except _USAGE_ERRORS as exc:
        return _fail(exc, 2)
    monitor.start()
    build.network.run(args.until)

    print(f"probe plane after {build.network.now:.1f} simulated seconds "
          f"[budget {args.budget:.1%}, "
          f"round interval {prober.round_interval:.2f}s]\n")
    print("latest trains:")
    for label in labels:
        report = prober.reports.get(label)
        print(f"  {report.summary()}" if report is not None
              else f"  {label}: no train completed")
    if args.rtt:
        print("\nrtt sessions:")
        for label, session in rtt_sessions:
            stats = session.stats
            if stats is None or not len(stats.rtts_s):
                print(f"  {label}: no echoes returned")
            else:
                print(f"  {label}: rtt min/mean/max "
                      f"{stats.min_s * 1000:.2f}/{stats.mean_s * 1000:.2f}/"
                      f"{stats.max_s * 1000:.2f} ms, loss {stats.loss_rate:.0%}, "
                      f"jitter {stats.jitter_s * 1e6:.0f}us")
    print("\ncross-validation:")
    findings = prober.findings()
    if not findings:
        print("  active and passive planes agree on every watched path")
    for finding in findings:
        print(f"  {finding}")
    print("\nprobe counters:")
    for key, value in sorted(prober.stats().items()):
        if key in ("trains_per_path", "active_disagreements"):
            continue
        print(f"  {key:<24} {value}")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "show": cmd_show,
    "experiment": cmd_experiment,
    "monitor": cmd_monitor,
    "telemetry": cmd_telemetry,
    "history": cmd_history,
    "integrity": cmd_integrity,
    "distributed": cmd_distributed,
    "discover": cmd_discover,
    "topology": cmd_topology,
    "matrix": cmd_matrix,
    "stream": cmd_stream,
    "probe": cmd_probe,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
