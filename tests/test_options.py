"""Rot protection: the repo counting its own knobs, names and dependencies.

A constructor option is justified by a *product* caller that sets it:
code under ``src/`` outside the module that defines it, ``examples/``,
``benchmarks/`` or ``bench/``.  One that only ``tests/`` set, or nobody,
is a constant -- and where its other value selected a code path, that
path goes with it (PR 16's rule, tree-wide since PR 23).

The options census: every ``__init__`` parameter with a default on every
public class under ``src/repro``, plus every defaulted field of a public
``*Config`` dataclass.  A *setter* is any call that passes the name by
keyword; matching by name over-counts across classes, so an option this
finds unset really is.  Survivors live in :data:`ALLOWED`, each with the
reason it stays, and the list can only shrink.

A public name is justified the same way, by a product file that reaches
it.  The names census: every public module-level function and class
under ``src/repro``, plus every public method and property of a public
class.  A *reference* is the identifier as a ``Name``, an ``Attribute``,
an import alias or a string literal (which covers ``getattr`` and stats
keys); a package ``__init__`` re-export, an ``__all__`` entry and a
docstring are not references.  Reachability is a fixed point from the
product's top-level code: a reference made inside a definition counts
only once that definition is itself reached, so a name used only by
dead code is dead too.  A method is reached by its name from anywhere
once its class is, which keeps overrides; by-name matching over-counts,
so a name this finds unreached really is.  Survivors live in
:data:`ALLOWED_NAMES`, under :data:`NAMES_CEILING`.
"""

import ast
import functools
import os
import subprocess
import sys
import textwrap
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
CEILING = 41


def _parse_product(root):
    """``{path: module AST}`` for every product file under ``root``."""
    return {
        path: ast.parse(path.read_text())
        for top in PRODUCT
        for path in sorted((root / top).rglob("*.py"))
    }


@functools.cache
def _product():
    """The product's ASTs, parsed once for both censuses."""
    return _parse_product(ROOT)


def _options():
    """``{"Class.param": defining file}`` for the whole census."""
    found = {}
    for path, tree in _product().items():
        if not path.is_relative_to(SRC):
            continue
        for node in ast.walk(tree):
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
    return {
        path: {
            kw.arg
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg
        }
        for path, tree in _product().items()
    }


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


# ----------------------------------------------------------------------
# Public names
# ----------------------------------------------------------------------
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_TRUTH = "ground truth: tests hold an estimator or a fast path to it"
_VIEW = "read-only view the tests observe the model through"
_FAULT = (
    "chaos-suite fault injector: the one seeded fault schedule the chaos "
    "suites are to share will be its product caller"
)
_LINK_SEAM = f"{_SEAM}: flips a connection's state without a trap"

#: ``"module.Name"`` or ``"module.Class.member"``: reason, for every
#: public name no product file reaches.
ALLOWED_NAMES = {
    "analysis.stats.exact_quantile": _TRUTH,
    "analysis.stats.exact_quantiles": _TRUTH,
    "analysis.stats.quantile_rank_error": _TRUTH,
    "experiments.scale.populate_rates": "fills a campus-sized rate table for the dataflow and stream tests without a run",
    "core.monitor.NetworkMonitor.enable_oper_status_tracking": "documented capability with tests: the poll-based link-state backstop for lost traps",
    "core.linkstate.LinkStateRegistry.apply_oper_status": "the backstop's sink, reached only by enable_oper_status_tracking",
    "core.linkstate.LinkStateRegistry.down_connections": _VIEW,
    "core.linkstate.LinkStateRegistry.mark_down": _LINK_SEAM,
    "core.linkstate.LinkStateRegistry.mark_up": _LINK_SEAM,
    "core.report.PathReport.complete": _VIEW,
    "probe.stats.ProbeReport.complete": _VIEW,
    "rm.qos.QosRequirement.from_spec": "the qospath-to-requirement bridge its module documents; the CLI and examples build requirements directly",
    "simnet.engine.PeriodicTask.stopped": _VIEW,
    "simnet.engine.Simulator.pending_count": _VIEW,
    "simnet.faults.Flap": _FAULT,
    "simnet.faults.NetworkPartition": _FAULT,
    "simnet.faults.PacketLoss": _FAULT,
    "simnet.faults.SpeedMisreport": _FAULT,
    "simnet.hub.Hub.attached_ports": _VIEW,
    "simnet.link.Link.peer_of": "reached only by Interface.connected_peer",
    "simnet.nic.Interface.connected_peer": _VIEW,
    "simnet.packet.ReassemblyBuffer.pending_groups": _VIEW,
    "simnet.trafficgen.StepSchedule.staircase": "the paper's climb as a constructor; Figure 4 holds its first level twice as long, so it writes the breakpoints out",
    "snmp.datatypes.TimeTicks.delta_seconds": "the datatype's wrap-aware arithmetic; tests pin the wrap",
    "snmp.datatypes.TimeTicks.to_seconds": "the datatype's unit conversion; tests read uptimes in seconds",
    "stream.manager.SubscriptionManager.unsubscribe": "the inverse of subscribe: a subscriber may leave",
    "stream.queries.ContinuousQuery.firing": _VIEW,
    "stream.significance.DeadbandFilter": "a subscriber's fixed deadband, documented beside the adaptive one; no product subscriber picks it",
    "stream.significance.QuantileDeadbandFilter.noise_floor": _VIEW,
    "tsdb.db.TSDB.downsampled": _VIEW,
    "tsdb.downsample.DownsampledSeries.samples_absorbed": _VIEW,
}

#: Lower it whenever an entry goes; never raise it.
NAMES_CEILING = 31


def _public_names(trees, src):
    """``{key: (definition nodes, key of the owning class or None)}``.

    A property and its setter are two nodes under one key.
    """
    found = {}
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            key = f"{module}.{node.name}"
            found[key] = ([node], None)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, _DEFINITIONS) and not item.name.startswith("_"):
                    nodes, _ = found.setdefault(f"{key}.{item.name}", ([], key))
                    nodes.append(item)
    return found


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _references(tree, is_init, owner):
    """``(context, identifier)`` for every reference in one module.

    The context is the key of the innermost census definition the
    reference sits in (None at top level or in private code outside one).
    """
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    stack = [(tree, None)]
    while stack:
        node, context = stack.pop()
        context = owner.get(id(node), context)
        if _is_all(node) or (is_init and isinstance(node, (ast.Import, ast.ImportFrom))):
            continue
        if isinstance(node, ast.Name):
            yield context, node.id
        elif isinstance(node, ast.Attribute):
            yield context, node.attr
        elif isinstance(node, ast.alias):
            yield context, node.name.rpartition(".")[2]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            yield context, node.value
        stack.extend((child, context) for child in ast.iter_child_nodes(node))


def _reachability(trees, src):
    """(every public name, those no product file reaches)."""
    names = _public_names(trees, src)
    owner = {id(node): key for key, (nodes, _) in names.items() for node in nodes}
    made_in = {}
    for path, tree in trees.items():
        for context, identifier in _references(tree, path.name == "__init__.py", owner):
            made_in.setdefault(context, set()).add(identifier)
    reached, referenced = set(), set(made_in.get(None, ()))
    grew = True
    while grew:
        grew = False
        for key, (_, cls) in names.items():
            if key in reached or (cls is not None and cls not in reached):
                continue
            if key.rpartition(".")[2] in referenced:
                reached.add(key)
                referenced |= made_in.get(key, set())
                grew = True
    unreached = {
        key
        for key, (_, cls) in names.items()
        if key not in reached and (cls is None or cls in reached)
    }
    return set(names), unreached


@functools.cache
def _names_census():
    return _reachability(_product(), SRC)


def test_no_public_name_without_a_product_reference():
    names, unreached = _names_census()
    print(f"\nnames census: {len(names)} public / {len(unreached)} unreached-by-product")
    unexplained = sorted(unreached - set(ALLOWED_NAMES))
    assert not unexplained, (
        f"{unexplained}: nothing under {PRODUCT} reaches these (a reference from "
        "tests/, a docstring, an __init__ re-export, an __all__ entry or a name "
        "that is itself unreached does not count); delete each or give the "
        "reason it stays in ALLOWED_NAMES"
    )


def test_the_names_allowlist_only_shrinks():
    _, unreached = _names_census()
    stale = sorted(set(ALLOWED_NAMES) - unreached)
    assert not stale, f"{stale}: gone or reached by the product now; drop the entry"
    assert len(ALLOWED_NAMES) <= NAMES_CEILING


def test_the_names_census_on_a_tiny_tree(tmp_path):
    def write(relative, text):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    write("src/pkg/__init__.py", '''
        from pkg.mod import exported
        __all__ = ["listed"]
    ''')
    write("src/pkg/mod.py", '''
        def used():
            """documented_only"""
            return 1

        def dead():
            return only_from_dead()

        def only_from_dead():
            return 2

        def exported(): ...
        def listed(): ...
        def documented_only(): ...
        def by_getattr(): ...

        class Kept:
            def method(self):
                return self.method()  # its own definition: no reference
    ''')
    write("examples/run.py", '''
        from pkg import mod
        mod.used()
        getattr(mod, "by_getattr")()
        mod.Kept()
    ''')
    names, unreached = _reachability(_parse_product(tmp_path), tmp_path / "src" / "pkg")
    assert "mod.Kept.method" in names
    assert unreached == {
        "mod.dead", "mod.only_from_dead", "mod.exported", "mod.listed",
        "mod.documented_only", "mod.Kept.method",
    }


def test_every_module_imports_without_networkx():
    """``networkx`` is no dependency: every module imports with it blocked."""
    script = """
import pkgutil, sys
sys.modules["networkx"] = None
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(module.name)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
