"""Option-rot protection: the repo counting its own knobs.

A constructor option is justified by a *product* caller that sets it:
code under ``src/`` outside the module that defines it, ``examples/``,
``benchmarks/`` or ``bench/``.  One that only ``tests/`` set, or nobody,
is a constant -- and where its other value selected a code path, that
path goes with it (PR 16's rule, tree-wide since PR 23).

The census: every ``__init__`` parameter with a default on every public
class under ``src/repro``, plus every defaulted field of a public
``*Config`` dataclass.  A *setter* is any call that passes the name by
keyword; matching by name over-counts across classes, so an option this
finds unset really is.  Survivors live in :data:`ALLOWED`, each with the
reason it stays, and the list can only shrink.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PRODUCT = ("src", "examples", "benchmarks", "bench")

_SIM = "simulator model parameter: tests tune the magnitude to exercise the model"
_ORACLE = "the oracle tests/sample_reference.py reads it; retires with the path it mirrors"
_SEAM = "test seam"

#: ``"Class.param": reason`` for every option no product caller sets.
ALLOWED = {
    "AsciiChart.width": "set by render_pair in its own module, for the experiment reports",
    "AsciiChart.height": "set by render_pair in its own module, for the experiment reports",
    "AsciiChart.y_label": "set by render_pair in its own module, for the experiment reports",
    "BandwidthCalculator.link_state": f"{_SEAM}: the monitor assigns the attribute when traps go on",
    "SampleShipper.keyframe_every": "tests shorten it to see periodic keyframes (PR 16 ruled on the plane's)",
    "DistributedMonitor.report_offset": "validated timing parameter of the public monitor; tests move it",
    "NetworkMonitor.report_offset": "validated timing parameter of the public monitor; tests move it",
    "AgentHealthTracker.recovery_successes": "health-ladder threshold: tests pin it beside the two that are set",
    "Scenario.chatter_rate": "0 switches the background chatter off for exact-rate tests",
    "IntegrityConfig.rate_tolerance": _ORACLE,
    "IntegrityConfig.stuck_after": _ORACLE,
    "IntegrityConfig.stuck_decays_trust": _ORACLE,
    "IntegrityConfig.speed_rel_tolerance": _ORACLE,
    "IntegrityConfig.violation_decay": _ORACLE,
    "IntegrityConfig.suspect_decay": _ORACLE,
    "IntegrityConfig.recover_step": _ORACLE,
    "IntegrityConfig.quarantine_below": _ORACLE,
    "IntegrityConfig.release_above": _ORACLE,
    "IntegrityConfig.cross_rel_tolerance": _ORACLE,
    "IntegrityConfig.cross_abs_floor_bps": _ORACLE,
    "IntegrityConfig.offender_window_polls": _ORACLE,
    "ApplicationRuntime.headroom": "validated QoS margin; tests raise it to force a violation",
    "RmMiddleware.advise_reallocation": "two tests pin the advice-off path; ROADMAP item 9 decides",
    "RmMiddleware.stream": "two tests pin the bit-identity of stream and poll delivery; item 9 decides",
    "IPv4Allocator.prefix_len": "passed positionally by Network and the address tests",
    "Link.prop_delay": _SIM,
    "Link.max_queue_bytes": _SIM,
    "Bpdu.tc_hops": "a field of the BPDU on the wire, set by SpanningTree in its own module",
    "StaircaseLoad.dscp": "marks a flow's class; the Parked per-class u_i needs it",
    "PoissonLoad.dscp": "marks a flow's class; the Parked per-class u_i needs it",
    "RtoEstimator.initial": "set by SnmpManager in its own module (its ``timeout``)",
    "RtoEstimator.min_rto": "the estimator's clamp; tests open it to check the arithmetic",
    "RtoEstimator.max_rto": "the estimator's clamp; tests open it to check the arithmetic",
    "SnmpManager.version": "SNMPv1 interoperability, exercised by the agent and bulk tests",
    "SnmpManager.retries": "chaos tests vary the give-up point",
    "DeadbandFilter.absolute_bps": "a subscriber's own filter: its parameters are the subscriber's",
    "DeadbandFilter.relative": "a subscriber's own filter: its parameters are the subscriber's",
    "QuantileDeadbandFilter.floor_bps": "a subscriber's own filter: its parameters are the subscriber's",
    "EventBus.capacity": f"{_SEAM}: the ring bound is checked with a small one",
    "Tracer.capacity": f"{_SEAM}: the ring bound is checked with a small one",
    "Histogram.quantiles": "which quantiles a family tracks; the export tests use it",
    "SealedChunk.predicted": "set by HeadChunk.seal in its own module: part of the chunk, not a knob",
}

#: Lower it whenever an entry goes; never raise it.
CEILING = 42


def _options():
    """``{"Class.param": defining file}`` for the whole census."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            names = []
            for item in node.body:
                if (
                    node.name.endswith("Config")
                    and isinstance(item, ast.AnnAssign)
                    and item.value is not None
                ):
                    names.append(item.target.id)
                elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    positional = args.posonlyargs + args.args
                    names += [a.arg for a in positional[len(positional) - len(args.defaults):]]
                    names += [
                        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None
                    ]
            for name in names:
                found[f"{node.name}.{name}"] = path
    return found


def _keywords_by_file():
    """Every name passed by keyword, per product file."""
    passed = {}
    for top in PRODUCT:
        for path in (ROOT / top).rglob("*.py"):
            passed[path] = {
                kw.arg
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                for kw in node.keywords
                if kw.arg
            }
    return passed


@functools.cache
def _census():
    """(every option, those no product file but their own sets)."""
    options, passed = _options(), _keywords_by_file()
    unset = {
        option
        for option, home in options.items()
        if not any(
            option.split(".")[1] in names
            for path, names in passed.items()
            if path != home
        )
    }
    return options, unset


def test_no_constructor_option_without_a_product_caller():
    options, unset = _census()
    print(f"\noptions census: {len(options)} settable / {len(unset)} unset-by-product")
    unexplained = sorted(unset - set(ALLOWED))
    assert not unexplained, (
        f"{unexplained}: no caller under {PRODUCT} outside the defining module "
        "sets these; make each a constant (and delete the path its other value "
        "selected) or give the reason it stays in ALLOWED"
    )


def test_the_allowlist_only_shrinks():
    _, unset = _census()
    stale = sorted(set(ALLOWED) - unset)
    assert not stale, f"{stale}: gone or set by a product caller now; drop the entry"
    assert len(ALLOWED) <= CEILING
