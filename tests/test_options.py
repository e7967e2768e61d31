"""Rot protection: the repo counting its own knobs, names and dependencies.

An option is justified by *product* callers that need it: code under
``src/`` outside the module that defines it, ``examples/``,
``benchmarks/`` or ``bench/``.  One that only ``tests/`` set, or nobody,
is a constant -- and where its other value selected a code path, that
path goes with it.  So is one the product sets to a single value: one
value in use is a constant.

The options census: every ``__init__`` parameter with a default on every
public class under ``src/repro``, every defaulted field of a public
``*Config`` dataclass, and every defaulted parameter of the monitor's
``enable_*`` methods.  Each product call is resolved to what it runs:
``C(...)``, ``mod.C(...)``, ``C.__init__(self, ...)``, ``cls(...)`` in
a classmethod of ``C`` and, in a subclass, ``super().__init__(...)`` to
``C`` (or to the base whose ``__init__`` it inherits), and
``x.enable_...(...)`` to the monitor's method.  Its
arguments are bound to that signature, so a keyword sets ``C.p`` only at
a call that resolves to ``C``.  Keywords a ``**kwargs`` forwarder does
not name reach the call it passes its ``**kwargs`` on to -- directly, or
through a ``dict(kwargs, ...)`` kept in a local or on ``self``.  A
literal argument is a value; any other expression is *open*; an omitted
option takes its default; and a ``**expr`` the census cannot trace makes
every option of that call open, so the census never flags wrongly.

An option is *unset* when no product call passes it, and
*single-valued* when every product call gives it the same literal,
counting its default wherever a call omits it.  Survivors of either
rule live in :data:`ALLOWED`, each with the reason it stays, and the
list can only shrink.

A public name is justified the same way, by a product file that reaches
it.  The names census: every public module-level function and class
under ``src/repro``, plus every public method and property of a public
class.  A *reference* is the identifier as a ``Name``, an ``Attribute``,
an import alias or a string literal (which covers ``getattr`` and stats
keys); a package ``__init__`` re-export, an ``__all__`` entry and a
docstring are not references.  A bare ``Name`` reaches module-level
names only: a local variable that shares a method's name calls nothing.  Reachability is a fixed point from the
product's top-level code: a reference made inside a definition counts
only once that definition is itself reached, so a name used only by
dead code is dead too.  A method is reached by its name from anywhere
once its class is, which keeps overrides; by-name matching over-counts,
so a name this finds unreached really is.  Survivors live in
:data:`ALLOWED_NAMES`, under :data:`NAMES_CEILING`.

Last, every telemetry metric family is declared with its help text at
exactly one site, so two sites cannot drift apart.
"""

import ast
import collections
import dataclasses
import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PRODUCT = ("src", "examples", "benchmarks", "bench")
#: The module whose ``enable_*`` methods the options census covers.
MONITOR = SRC / "core" / "monitor.py"

_SIM = "simulator model parameter: tests tune the magnitude to exercise the model"
_ORACLE = "the oracle tests/sample_reference.py reads it; retires with the path it mirrors"
_TARGET = "which interface a fault lies about is the scenario's; tests aim it at one port"

#: ``"Class.param"`` or ``"Class.enable_x.param"``: reason, for every
#: option no product caller sets or the product sets to one value.
ALLOWED = {
    "SampleShipper.keyframe_every": "tests shorten it to see periodic keyframes (PR 16 ruled on the plane's)",
    "DistributedMonitor.report_offset": "validated timing parameter of the public monitor; tests move it",
    "NetworkMonitor.report_offset": "validated timing parameter of the public monitor; tests move it",
    "NetworkMonitor.telemetry": "the cost-of-watching guard measures the monitor with telemetry off",
    "DistributedMonitor.integrity": "tests read the plane's shipped rates with the gauntlet off",
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
    "IntegrityConfig.cross_breach_count": _ORACLE,
    "IntegrityConfig.offender_window_polls": _ORACLE,
    "ApplicationRuntime.headroom": "validated QoS margin; tests raise it to force a violation",
    "ApplicationRuntime.auto_move": "tests pin the advice-only runtime beside the moving one; item 9 decides",
    "RmMiddleware.advise_reallocation": "two tests pin the advice-off path; ROADMAP item 9 decides",
    "RmMiddleware.stream": "two tests pin the bit-identity of stream and poll delivery; item 9 decides",
    "Link.prop_delay": _SIM,
    "Link.max_queue_bytes": _SIM,
    "Bpdu.tc_hops": "a field of the BPDU on the wire, set by SpanningTree in its own module",
    "StaircaseLoad.dscp": "marks a flow's class; the Parked per-class u_i needs it",
    "CounterCorruption.if_index": _TARGET,
    "StuckCounters.if_index": _TARGET,
    "RtoEstimator.min_rto": "the estimator's clamp; tests open it to check the arithmetic",
    "RtoEstimator.max_rto": "the estimator's clamp; tests open it to check the arithmetic",
    "SnmpManager.version": "SNMPv1 interoperability, exercised by the agent and bulk tests",
    "SnmpManager.retries": "chaos tests vary the give-up point",
    "QuantileDeadbandFilter.floor_bps": "a subscriber's own filter: its parameters are the subscriber's",
}

#: Lower it whenever an entry goes; never raise it.
CEILING = 34


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


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
#: A value the census cannot read as one literal.
OPEN = "<open>"


@dataclasses.dataclass(eq=False)
class _Callable:
    """What a call can resolve to: a constructor or a method."""

    key: str  # "Class", or "Class.method"
    path: Path  # the defining module
    params: list  # [(name, default node or None)], ``self`` dropped
    positional: int  # how many of ``params`` a positional argument reaches
    counted: bool  # its defaulted parameters are census options
    #: ``(targets, _Args)`` of every call this one passes its ``**kwargs`` to.
    forwards: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class _Args:
    """One call's arguments: positional nodes, keyword nodes, open or not."""

    positional: list
    keywords: dict
    open: bool


def _is_dataclass(node):
    return any(
        _base_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _signature(method):
    """``(params, positional count)`` of a method, ``self`` dropped."""
    args = method.args
    positional = (args.posonlyargs + args.args)[1:]
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    params = [(a.arg, d) for a, d in zip(positional, defaults)]
    params += [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return params, len(positional)


def _base_name(expr):
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def _dict_source(expr, kwarg):
    """``(forwards kwarg?, {name: node})`` of ``dict(...)`` or ``{...}``,
    or None when the census cannot read its keys."""
    if isinstance(expr, ast.Call) and _base_name(expr.func) == "dict":
        spread, keywords = list(expr.args), expr.keywords
        if any(kw.arg is None for kw in keywords):
            return None
        named = {kw.arg: kw.value for kw in keywords}
    elif isinstance(expr, ast.Dict):
        spread = [value for key, value in zip(expr.keys, expr.values) if key is None]
        pairs = [(key, value) for key, value in zip(expr.keys, expr.values) if key is not None]
        if not all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k, _ in pairs):
            return None
        named = {key.value: value for key, value in pairs}
    else:
        return None
    if len(spread) > 1 or any(not (isinstance(s, ast.Name) and s.id == kwarg) for s in spread):
        return None
    return bool(spread), named


class _Index:
    """Every callable under ``src`` and the calls into them."""

    def __init__(self, trees, src, monitor):
        self.classes = collections.defaultdict(list)  # name -> [(ClassDef, path)]
        self.methods = collections.defaultdict(list)  # name -> [_Callable]
        self.of_function = {}  # id(FunctionDef) -> _Callable it is the body of
        self.self_dicts = collections.defaultdict(list)  # attr -> [(dict expr, FunctionDef)]
        for path, tree in trees.items():
            for node, _, function in _scoped(tree):
                if isinstance(node, ast.ClassDef) and path.is_relative_to(src):
                    self.classes[node.name].append((node, path))
                elif (
                    isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and _base_name(node.targets[0].value) == "self"
                    and function is not None
                ):
                    self.self_dicts[node.targets[0].attr].append((node.value, function))
        self.constructor = {}  # id(ClassDef) -> _Callable of its own __init__
        for name, defs in self.classes.items():
            public = not name.startswith("_")
            for node, path in defs:
                init = next(
                    (i for i in node.body if isinstance(i, ast.FunctionDef) and i.name == "__init__"),
                    None,
                )
                if init is not None:
                    params, positional = _signature(init)
                    self.constructor[id(node)] = self.of_function[id(init)] = _Callable(
                        name, path, params, positional, public
                    )
                elif _is_dataclass(node):
                    fields = [
                        (i.target.id, i.value) for i in node.body
                        if isinstance(i, ast.AnnAssign) and isinstance(i.target, ast.Name)
                    ]
                    self.constructor[id(node)] = _Callable(
                        name, path, fields, len(fields), public and name.endswith("Config")
                    )
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or item.name == "__init__":
                        continue
                    counted = public and path == monitor and item.name.startswith("enable_")
                    if counted or item.args.kwarg is not None:
                        params, positional = _signature(item)
                        self.methods[item.name].append(
                            self.of_function.setdefault(
                                id(item),
                                _Callable(f"{name}.{item.name}", path, params, positional, counted),
                            )
                        )

    def constructors(self, name, seen=frozenset()):
        """The ``__init__`` a call of class ``name`` runs, inherited or own."""
        found = []
        for node, _ in self.classes.get(name, ()):
            if id(node) in self.constructor:
                found.append(self.constructor[id(node)])
                continue
            for base in node.bases:
                base = _base_name(base)
                if base and base not in seen:
                    found += self.constructors(base, seen | {name})
                    if found:
                        break
        return found

    def resolve(self, call, cls):
        """``(callables, leading positional arguments to skip)``."""
        func = call.func
        if isinstance(func, ast.Name) and func.id == "cls" and cls is not None:
            return self.constructors(cls.name), 0  # in a classmethod
        if isinstance(func, ast.Name):
            return self.constructors(func.id), 0
        if not isinstance(func, ast.Attribute):
            return [], 0
        if func.attr != "__init__":
            return self.constructors(func.attr) + self.methods.get(func.attr, []), 0
        if isinstance(func.value, ast.Call) and _base_name(func.value.func) == "super":
            for base in cls.bases if cls is not None else ():
                found = self.constructors(_base_name(base))
                if found:
                    return found, 0
            return [], 0
        return self.constructors(_base_name(func.value)), 1

    def trace(self, expr, function):
        """``(forwarder or None, {name: node})`` of a ``**expr``, or None."""
        kwarg = function.args.kwarg.arg if function is not None and function.args.kwarg else None
        if isinstance(expr, ast.Name) and expr.id == kwarg:
            forwarder = self.of_function.get(id(function))
            return (forwarder, {}) if forwarder is not None else None
        if isinstance(expr, ast.Name) and function is not None:
            sources = [
                (stmt.value, function) for stmt in ast.walk(function)
                if isinstance(stmt, ast.Assign)
                and [getattr(t, "id", None) for t in stmt.targets] == [expr.id]
            ]
        elif isinstance(expr, ast.Attribute) and _base_name(expr.value) == "self":
            sources = self.self_dicts.get(expr.attr, [])
        else:
            return None
        if len(sources) != 1:
            return None
        value, home = sources[0]
        read = _dict_source(value, home.args.kwarg.arg if home.args.kwarg else None)
        if read is None:
            return None
        forwards, named = read
        if not forwards:
            return None, named
        forwarder = self.of_function.get(id(home))
        return (forwarder, named) if forwarder is not None else None


def _scoped(tree):
    """``(node, enclosing class, enclosing function)`` for every node; a
    definition is its own enclosing class or function."""
    stack = [(tree, None, None)]
    while stack:
        node, cls, function = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        yield node, cls, function
        stack.extend((child, cls, function) for child in ast.iter_child_nodes(node))


def _literal(node, default=False):
    """A hashable stand-in for the one value ``node`` always has, or OPEN."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return ("default", ast.unparse(node)) if default else OPEN
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _option_census(trees, src, monitor):
    """``(options, unset, single-valued)``, each a set of option keys."""
    index = _Index(trees, src, monitor)
    calls = []
    for path, tree in trees.items():
        for call, cls, function in _scoped(tree):
            if not isinstance(call, ast.Call):
                continue
            targets, skip = index.resolve(call, cls)
            if not targets:
                continue
            args = _Args(list(call.args[skip:]), {}, False)
            forwarder = None
            for kw in call.keywords:
                if kw.arg is not None:
                    args.keywords[kw.arg] = kw.value
                    continue
                traced = index.trace(kw.value, function)
                if traced is None:
                    args.open = True
                else:
                    forwarder = traced[0] or forwarder
                    args.keywords.update(traced[1])
            # A call that passes on its function's own parameters runs, with
            # their values, wherever that function is called.
            owner = index.of_function.get(id(function))
            if forwarder is None and owner is not None:
                own = {name for name, _ in owner.params}
                if any(
                    isinstance(node, ast.Name) and node.id in own
                    for node in args.positional + list(args.keywords.values())
                ):
                    forwarder = owner
            if forwarder is not None:
                forwarder.forwards.append((targets, args))
            else:
                calls.append((path, targets, args))

    values = collections.defaultdict(list)  # option -> [(path, value, passed?)]
    reached = set()  # callables some product call runs, in any module

    def apply(target, args, path, env, depth):
        """Bind one call; ``env`` is what the caller's parameters hold."""

        def evaluate(node):  # -> (value, passed by the product?)
            if isinstance(node, tuple):
                return node  # evaluated a level up
            if isinstance(node, ast.Name) and node.id in env:
                return env[node.id]
            return _literal(node), True

        reached.add(target.key)
        names = [name for name, _ in target.params]
        bound, extra = {}, {}
        for i, arg in enumerate(args.positional[: target.positional]):
            if isinstance(arg, ast.Starred):
                bound.update(dict.fromkeys(names[i : target.positional], (OPEN, True)))
                break
            bound[names[i]] = evaluate(arg)
        for name, node in args.keywords.items():
            (bound if name in names else extra)[name] = evaluate(node)
        inner_env = {}
        for name, default in target.params:
            if name in bound:
                inner_env[name] = bound[name]
            elif args.open:
                inner_env[name] = (OPEN, True)
            else:
                inner_env[name] = (OPEN if default is None else _literal(default, True), False)
            if target.counted and default is not None:
                values[f"{target.key}.{name}"].append((path, *inner_env[name]))
        for targets, inner in target.forwards if depth < 8 else ():
            merged = _Args(inner.positional, {**inner.keywords, **extra}, inner.open or args.open)
            for forwarded in targets:
                apply(forwarded, merged, path, inner_env, depth + 1)

    for path, targets, args in calls:
        for target in targets:
            apply(target, args, path, {}, 0)

    options, homes = set(), {}
    for defs in index.classes.values():
        for node, _ in defs:
            own = index.constructor.get(id(node))
            for target in [own] + [
                index.of_function.get(id(i)) for i in node.body if isinstance(i, ast.FunctionDef)
            ]:
                if target is not None and target.counted:
                    for name, default in target.params:
                        if default is not None:
                            options.add(f"{target.key}.{name}")
                            homes[f"{target.key}.{name}"] = target.path
    unset, single = set(), set()
    # What no product call constructs at all is the names census's to judge.
    for option in (o for o in options if o.rpartition(".")[0] in reached):
        seen = [(value, passed) for path, value, passed in values[option] if path != homes[option]]
        distinct = {value for value, _ in seen}
        if not any(passed for _, passed in seen):
            unset.add(option)
        elif len(distinct) == 1 and OPEN not in distinct:
            single.add(option)
    return options, unset, single


@functools.cache
def _census():
    return _option_census(_product(), SRC, MONITOR)


def test_no_constructor_option_without_a_product_caller():
    options, unset, single = _census()
    print(
        f"\noptions census: {len(options)} settable / {len(unset)} unset / "
        f"{len(single)} single-valued"
    )
    unexplained = sorted(unset - set(ALLOWED))
    assert not unexplained, (
        f"{unexplained}: no call under {PRODUCT} outside the defining module "
        "passes these; make each a constant (and delete the path its other value "
        "selected) or give the reason it stays in ALLOWED"
    )


def test_no_option_the_product_sets_to_one_value():
    _, _, single = _census()
    unexplained = sorted(single - set(ALLOWED))
    assert not unexplained, (
        f"{unexplained}: every call under {PRODUCT} outside the defining module "
        "gives these the same literal (a default counts where a call omits it); "
        "make each that constant (and delete the path its other values selected) "
        "or give the reason it stays in ALLOWED"
    )


def test_the_allowlist_only_shrinks():
    _, unset, single = _census()
    stale = sorted(set(ALLOWED) - unset - single)
    assert not stale, f"{stale}: gone, or passed more than one value now; drop the entry"
    assert len(ALLOWED) <= CEILING


def test_the_options_census_on_a_tiny_tree(tmp_path):
    def write(relative, text):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    write("src/pkg/mod.py", '''
        class Widget:
            def __init__(self, size=1, colour="red", shape="square", weight=1.0): ...

        class Other:
            def __init__(self, size=1): ...

        class Base:
            def __init__(self, depth=0): ...

        class Back:
            def __init__(self, owner, batch=8): ...

        class Front:
            def __init__(self, **shipping):
                self.back = Back(self, **shipping)

        class Unused:
            def __init__(self, knob=1): ...
    ''')
    write("src/pkg/child.py", '''
        from pkg.mod import Base

        class Child(Base):
            def __init__(self):
                super().__init__(depth=2)
    ''')
    write("examples/run.py", '''
        from pkg import mod
        from pkg.mod import Widget

        mod.Widget(1, colour=input())
        Widget(size=2, colour=input())
        Widget(weight=2.0, colour=input())
        mod.Front(batch=4)
        mod.Other()
    ''')
    src = tmp_path / "src" / "pkg"
    options, unset, single = _option_census(_parse_product(tmp_path), src, src / "monitor.py")
    assert options == {
        "Widget.size", "Widget.colour", "Widget.shape", "Widget.weight",
        "Other.size", "Base.depth", "Back.batch", "Unused.knob",
    }
    # Other.size: ``size=`` reached Widget only.  Widget.shape: only its
    # default.  Widget.size and .weight: two literals each, a default
    # counting where omitted.  Widget.colour: open.  Unused: never called.
    assert unset == {"Other.size", "Widget.shape"}
    # Base.depth through super().__init__, Back.batch through Front's **shipping.
    assert single == {"Base.depth", "Back.batch"}


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

#: ``"module.Name"`` or ``"module.Class.member"``: reason, for every
#: public name no product file reaches.
ALLOWED_NAMES = {
    "analysis.stats.exact_quantile": _TRUTH,
    "analysis.stats.exact_quantiles": _TRUTH,
    "analysis.stats.quantile_rank_error": _TRUTH,
    "core.monitor.NetworkMonitor.enable_oper_status_tracking": "documented capability with tests: the poll-based link-state backstop for lost traps",
    "core.linkstate.LinkStateRegistry.apply_oper_status": "the backstop's sink, reached only by enable_oper_status_tracking",
    "core.linkstate.LinkStateRegistry.down_connections": _VIEW,
    "rm.qos.QosRequirement.from_spec": "the qospath-to-requirement bridge its module documents; the CLI and examples build requirements directly",
    "simnet.engine.PeriodicTask.stopped": _VIEW,
    "simnet.engine.Simulator.pending_count": _VIEW,
    "simnet.faults.Flap": _FAULT,
    "simnet.faults.NetworkPartition": _FAULT,
    "simnet.faults.PacketLoss": _FAULT,
    "simnet.faults.SpeedMisreport": _FAULT,
    "simnet.packet.ReassemblyBuffer.pending_groups": _VIEW,
    "simnet.trafficgen.StepSchedule.staircase": "the paper's climb as a constructor; Figure 4 holds its first level twice as long, so it writes the breakpoints out",
    "snmp.datatypes.TimeTicks.delta_seconds": "the datatype's wrap-aware arithmetic; tests pin the wrap",
    "snmp.datatypes.TimeTicks.to_seconds": "the datatype's unit conversion; tests read uptimes in seconds",
    "stream.manager.SubscriptionManager.unsubscribe": "the inverse of subscribe: a subscriber may leave",
    "stream.queries.ContinuousQuery.firing": _VIEW,
    "stream.significance.QuantileDeadbandFilter.noise_floor": _VIEW,
}

#: Lower it whenever an entry goes; never raise it.
NAMES_CEILING = 20


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
    """``(context, identifier, bare)`` for every reference in one module.

    The context is the key of the innermost census definition the
    reference sits in (None at top level or in private code outside one);
    ``bare`` says the reference is a ``Name``, which only a module-level
    name can answer to (a local variable that shares a method's name is
    no caller of the method).
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
            yield context, node.id, True
        elif isinstance(node, ast.Attribute):
            yield context, node.attr, False
        elif isinstance(node, ast.alias):
            yield context, node.name.rpartition(".")[2], False
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            yield context, node.value, False
        stack.extend((child, context) for child in ast.iter_child_nodes(node))


def _reachability(trees, src):
    """(every public name, those no product file reaches)."""
    names = _public_names(trees, src)
    owner = {id(node): key for key, (nodes, _) in names.items() for node in nodes}
    made_in = {}  # context -> (every identifier, those made other than bare)
    for path, tree in trees.items():
        for context, identifier, bare in _references(tree, path.name == "__init__.py", owner):
            every, qualified = made_in.setdefault(context, (set(), set()))
            every.add(identifier)
            if not bare:
                qualified.add(identifier)
    reached = set()
    referenced, qualified = (set(ids) for ids in made_in.get(None, ((), ())))
    grew = True
    while grew:
        grew = False
        for key, (_, cls) in names.items():
            if key in reached or (cls is not None and cls not in reached):
                continue
            if key.rpartition(".")[2] in (referenced if cls is None else qualified):
                reached.add(key)
                every, attributes = made_in.get(key, ((), ()))
                referenced.update(every)
                qualified.update(attributes)
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
            size = 1  # a local, not Kept.size
            return size

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

            def size(self): ...
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
        "mod.documented_only", "mod.Kept.method", "mod.Kept.size",
    }


def test_every_module_imports_without_networkx():
    """``networkx`` is no dependency: every module imports with it blocked.
    Nor does importing one load numpy: it loads on the first array."""
    script = """
import pkgutil, sys
sys.modules["networkx"] = None
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(module.name)
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
assert not loaded, f"importing repro loaded {loaded[:5]}"
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


# ----------------------------------------------------------------------
# Metric families
# ----------------------------------------------------------------------
_DECLARE = ("counter", "gauge", "histogram")


def _help_sites(trees, src):
    """``{family name: ["module.py:line", ...]}``: every registry call under
    ``src`` that declares a family with (non-empty) help text.  A name is a
    string literal or a module-level constant holding one."""
    sites = collections.defaultdict(list)
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        constants = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DECLARE and node.args
            ):
                continue
            helps = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "help"]
            if not helps or (isinstance(helps[0], ast.Constant) and not helps[0].value):
                continue  # no help text: a fetch of the family, not a declaration
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                name = name.value
            elif isinstance(name, ast.Name) and name.id in constants:
                name = constants[name.id]
            else:
                continue  # a computed name (an f-string per state or key)
            sites[name].append(f"{path.relative_to(src)}:{node.lineno}")
    return sites


def test_every_metric_family_has_its_help_text_at_one_site():
    twice = {name: where for name, where in _help_sites(_product(), SRC).items() if len(where) > 1}
    assert not twice, (
        f"{twice}: declare each family with its help text once, and fetch it "
        "elsewhere with registry.get(name)"
    )
