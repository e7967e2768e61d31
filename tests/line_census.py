"""The line census: which lines of ``src/repro`` no product entry reaches.

Run from the repository root (a script, not a test module)::

    python tests/line_census.py [-j JOBS]

The names census in ``tests/test_options.py`` finds a public name that no
product code calls; it cannot see a branch, a record kind or a message
handler that has a product caller and is never taken.  This census runs
the product's own entries under a line tracer, each in a fresh process
with the tracer started before ``repro`` is imported:

- ``bench.harness.measure`` on the four ledger workloads at seed 0: 20
  steady cycles on the campus and the mesh, and the testbed's ledger
  length of 148 (its Table-2 check needs the full staircase);
- the twelve ``examples/*.py``, run as ``__main__``;
- the Figure 4-6 and Table 2 benchmark modules, ``--benchmark-disable``;
- every ``repro.cli.main(argv)`` call made by a test module, traced only
  inside the call.

A file's *executable* lines are those its compiled code objects name in
``co_lines()``, docstrings excepted.  An *error* line is one inside a
``raise``, inside an ``except`` handler, or inside an ``if`` or ``else``
block that ends in a ``raise``: input validation, which stays.  The
census prints, per file, the unreached runs of the other lines, and fails
when a file's count of them rises above its entry in :data:`UNREACHED`,
when the total exceeds :data:`UNREACHED_CEILING`, or when an entry names
a file that has none left.  Both numbers may only fall, as
``NAMES_CEILING`` does: a line that no entry reaches is reached by a new
entry, or it goes.

Counts are those of CPython 3.11's line tables; another version compiles
some lines differently.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import runpy
import subprocess
import sys
import tempfile
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_ERRORS = "error handling: a reject counted, reported or returned rather than raised"
_FAULTS = "fault path: item 6(a)'s fault schedule is to become its product entry"
_SIZE = "input-size path: fragments, long lists, multi-byte lengths, ports that wrap"
_SPEC = "spec-language section or topology shape no shipped spec uses"
_SURFACE = "operator surface: a repr, accessor, query or export read by an operator or a test"
_LIFECYCLE = "lifecycle edge: a stop, restart, repeated call, stalled subscriber or late event"

#: ``"path under src/repro": (count, reason)``: the unreached non-error
#: lines each file may keep, and why they stay.  Lower an entry whenever
#: its count falls; never raise one.
UNREACHED: Dict[str, Tuple[int, str]] = {
    "analysis/charts.py": (1, _ERRORS),
    "analysis/stats.py": (11, _SURFACE),
    "cli.py": (20, _ERRORS),
    "core/bandwidth.py": (11, _FAULTS),
    "core/dataflow.py": (1, _SURFACE),
    "core/deltas.py": (17, _FAULTS),
    "core/discovery.py": (29, _ERRORS),
    "core/distributed.py": (76, _FAULTS),
    "core/health.py": (2, _FAULTS),
    "core/hierarchy.py": (5, _LIFECYCLE),
    "core/history.py": (2, _SURFACE),
    "core/latency.py": (2, _ERRORS),
    "core/linkstate.py": (17, _FAULTS),
    "core/matrix.py": (30, _SURFACE),
    "core/monitor.py": (26, _LIFECYCLE),
    "core/poller.py": (31, _FAULTS),
    "core/report.py": (5, _SURFACE),
    "core/topology_sync.py": (32, _FAULTS),
    "core/traversal.py": (12, _ERRORS),
    "experiments/scale.py": (12, _SPEC),
    "integrity/crosscheck.py": (13, _FAULTS),
    "integrity/pipeline.py": (24, _FAULTS),
    "integrity/quarantine.py": (10, _FAULTS),
    "integrity/validators.py": (22, _FAULTS),
    "probe/crossval.py": (57, _FAULTS),
    "probe/scheduler.py": (14, _FAULTS),
    "probe/stats.py": (7, _ERRORS),
    "probe/train.py": (4, _ERRORS),
    "rm/applications.py": (5, _LIFECYCLE),
    "rm/detector.py": (22, _LIFECYCLE),
    "rm/diagnosis.py": (13, _FAULTS),
    "rm/middleware.py": (11, _LIFECYCLE),
    "rm/qos.py": (14, _SPEC),
    "simnet/address.py": (21, _SURFACE),
    "simnet/engine.py": (10, _LIFECYCLE),
    "simnet/faults.py": (80, _FAULTS),
    "simnet/host.py": (22, _SIZE),
    "simnet/hub.py": (10, _FAULTS),
    "simnet/link.py": (7, _SURFACE),
    "simnet/mgmt.py": (1, _SURFACE),
    "simnet/network.py": (7, _SURFACE),
    "simnet/nic.py": (9, _SURFACE),
    "simnet/packet.py": (82, _SIZE),
    "simnet/sockets.py": (4, _SURFACE),
    "simnet/stp.py": (28, _FAULTS),
    "simnet/switch.py": (12, _FAULTS),
    "simnet/trafficgen.py": (10, _LIFECYCLE),
    "snmp/agent.py": (22, _ERRORS),
    "snmp/ber.py": (7, _SIZE),
    "snmp/datatypes.py": (21, _SURFACE),
    "snmp/errors.py": (5, _ERRORS),
    "snmp/manager.py": (53, _ERRORS),
    "snmp/message.py": (1, _SIZE),
    "snmp/mib.py": (13, _SURFACE),
    "snmp/oid.py": (3, _SURFACE),
    "snmp/pdu.py": (7, _SURFACE),
    "snmp/trap.py": (9, _ERRORS),
    "spec/builder.py": (27, _SPEC),
    "spec/lexer.py": (26, _SPEC),
    "spec/parser.py": (41, _SPEC),
    "spec/validate.py": (32, _ERRORS),
    "spec/writer.py": (23, _SPEC),
    "stream/events.py": (18, _SURFACE),
    "stream/manager.py": (14, _SURFACE),
    "stream/publisher.py": (36, _LIFECYCLE),
    "stream/queries.py": (10, _SURFACE),
    "stream/significance.py": (4, _SURFACE),
    "stream/subscription.py": (17, _LIFECYCLE),
    "telemetry/events.py": (12, _SURFACE),
    "telemetry/export.py": (6, _SURFACE),
    "telemetry/hub.py": (4, _SURFACE),
    "telemetry/metrics.py": (11, _SURFACE),
    "telemetry/quantile.py": (1, _ERRORS),
    "telemetry/trace.py": (27, _SURFACE),
    "topology/graph.py": (1, _SURFACE),
    "topology/model.py": (7, _SPEC),
}

#: The total of the above; lower it whenever the total falls, never raise it.
UNREACHED_CEILING = 1319

#: Steady cycles per ledger workload.
WORKLOAD_CYCLES = {
    "testbed_staircase": 148,
    "campus_quiescent": 20,
    "campus_churn": 20,
    "mesh_flat": 20,
}
BENCHMARKS = ("test_bench_fig4.py", "test_bench_fig5.py", "test_bench_fig6.py", "test_bench_table2.py")


# ----------------------------------------------------------------------
# What a file could run
# ----------------------------------------------------------------------
def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _span(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _ends_in_raise(block: List[ast.stmt]) -> bool:
    return bool(block) and isinstance(block[-1], ast.Raise)


def file_lines(path: Path) -> Tuple[Set[int], Set[int], Dict[int, str]]:
    """``(executable, error lines, {first line: name} of its functions)``."""
    source = path.read_text()
    code = compile(source, str(path), "exec")
    executable: Set[int] = set()
    functions: Dict[int, str] = {}
    for obj in _code_objects(code):
        executable.update(line for _, _, line in obj.co_lines() if line)
        if obj is not code and not obj.co_name.startswith("<"):
            functions[obj.co_firstlineno] = obj.co_qualname
    docstrings: Set[int] = set()
    errors: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(_span(first))
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            errors.update(_span(node))
        elif isinstance(node, ast.If):
            for block in (node.body, node.orelse):
                if _ends_in_raise(block):
                    errors.update(line for stmt in block for line in _span(stmt))
    return executable - docstrings, errors, functions


# ----------------------------------------------------------------------
# What an entry ran
# ----------------------------------------------------------------------
class LineTracer:
    """``sys.settrace`` over the files under one directory.

    A code object is traced line by line until every line it has was seen
    once, and not at all after that, so a hot loop costs its first turn.
    Every code object met is kept alive, so an id is never reused.
    """

    def __init__(self, src: Path) -> None:
        self.prefix = str(src) + os.sep
        self._codes: Dict[int, tuple] = {}  # id -> (code, lines, unseen, local tracer)
        self._before = None

    def _learn(self, code: types.CodeType) -> tuple:
        if not code.co_filename.startswith(self.prefix):
            known = (code, None, None, None)
        else:
            lines = frozenset(line for _, _, line in code.co_lines() if line)
            unseen = set(lines)

            def local(frame, event, arg):
                if event == "line":
                    unseen.discard(frame.f_lineno)
                    if not unseen:
                        return None
                return local

            known = (code, lines, unseen, local)
        self._codes[id(code)] = known
        return known

    def _global(self, frame, event, arg):
        known = self._codes.get(id(frame.f_code))
        if known is None:
            known = self._learn(frame.f_code)
        return known[3] if known[2] else None

    def start(self) -> None:
        self._before = sys.gettrace()
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(self._before)

    def run(self, fn: Callable[[], object]) -> object:
        self.start()
        try:
            return fn()
        finally:
            self.stop()

    def reached(self) -> Dict[str, Set[int]]:
        """Lines seen, by file."""
        found: Dict[str, Set[int]] = {}
        for code, lines, unseen, _local in self._codes.values():
            if lines is not None:
                found.setdefault(code.co_filename, set()).update(lines - unseen)
        return found

    def entered(self) -> Dict[str, Set[int]]:
        """First lines of the code objects entered, by file."""
        found: Dict[str, Set[int]] = {}
        for code, lines, _unseen, _local in self._codes.values():
            if lines is not None:
                found.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return found


def entries() -> List[Tuple[str, str]]:
    """``(kind, argument)`` of every product entry."""
    return (
        [("workload", name) for name in WORKLOAD_CYCLES]
        + [("example", str(path)) for path in sorted((ROOT / "examples").glob("*.py"))]
        + [("benchmark", str(ROOT / "benchmarks" / name)) for name in BENCHMARKS]
        + [("cli", str(ROOT / "tests"))]
    )


def _cli_test_modules(tests: Path) -> List[str]:
    return [
        str(path) for path in sorted(tests.glob("test_*.py"))
        if "from repro.cli import main" in path.read_text()
    ]


def _pytest(args: List[str]) -> None:
    import pytest

    code = pytest.main(args + ["-q", "-p", "no:cacheprovider"])
    if code != 0:
        raise SystemExit(f"pytest {' '.join(args)} exited {code}")


def run_entry(kind: str, argument: str, tracer: LineTracer) -> None:
    """Run one entry in this process, tracing what it runs of ``repro``."""
    if kind == "cli":
        # Traced while imported and inside each call, however a test
        # module imports it.
        command = tracer.run(lambda: importlib.import_module("repro.cli")).main

        def main(argv=None):
            return tracer.run(lambda: command(argv))

        sys.modules["repro.cli"].main = main
        _pytest(_cli_test_modules(Path(argument)))
        return
    tracer.start()
    try:
        if kind == "workload":
            from bench.harness import measure
            from bench.workloads import WORKLOADS

            measure(WORKLOADS[argument], 0, WORKLOAD_CYCLES[argument], False)
        elif kind == "example":
            sys.argv = [argument]
            runpy.run_path(argument, run_name="__main__")
        else:
            _pytest([argument, "--benchmark-disable"])
    finally:
        tracer.stop()


def _run_child(kind: str, argument: str, out: Path) -> None:
    tracer = LineTracer(SRC)
    run_entry(kind, argument, tracer)
    out.write_text(json.dumps({
        "reached": {path: sorted(lines) for path, lines in tracer.reached().items()},
        "entered": {path: sorted(lines) for path, lines in tracer.entered().items()},
    }))


def _spawn(entry: Tuple[str, str], scratch: Path, index: int) -> dict:
    kind, argument = entry
    out = scratch / f"{index}.json"
    env = dict(
        os.environ, PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", kind, argument, str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        tail = "\n".join((done.stdout + done.stderr).splitlines()[-30:])
        raise SystemExit(f"entry {kind} {argument} failed ({done.returncode}):\n{tail}")
    return json.loads(out.read_text())


# ----------------------------------------------------------------------
# The census
# ----------------------------------------------------------------------
def census(
    src: Path, reached: Dict[str, Set[int]], entered: Dict[str, Set[int]]
) -> Dict[str, dict]:
    """Per file under ``src``, by its relative path: the executable lines,
    the unreached ones split into error and other lines, and the names of
    the functions never entered."""
    result: Dict[str, dict] = {}
    for path in sorted(src.rglob("*.py")):
        executable, errors, functions = file_lines(path)
        unreached = executable - reached.get(str(path), set())
        result[path.relative_to(src).as_posix()] = {
            "executable": executable,
            "error": unreached & errors,
            "other": unreached - errors,
            "functions": sorted(
                name for line, name in functions.items()
                if line not in entered.get(str(path), ())
            ),
        }
    return result


def verdict(
    counts: Dict[str, int], allowed: Dict[str, Tuple[int, str]], ceiling: int
) -> List[str]:
    """What fails: a file over its entry, the total over the ceiling, an
    entry with nothing left to allow."""
    problems = [
        f"{path}: {count} unreached lines, {allowed.get(path, (0,))[0]} allowed -- "
        "reach them from a product entry, or delete them"
        for path, count in sorted(counts.items())
        if count > allowed.get(path, (0,))[0]
    ]
    problems += [
        f"{path}: no unreached line left; drop its entry"
        for path in sorted(allowed) if not counts.get(path)
    ]
    total = sum(counts.values())
    if total > ceiling:
        problems.append(f"{total} unreached lines in all, over UNREACHED_CEILING = {ceiling}")
    return problems


def runs(lines: Set[int], executable: Set[int]) -> str:
    """``lines`` as runs of consecutive executable lines: ``"12-19, 40"``."""
    order = sorted(executable)
    spans: List[List[int]] = []
    for index, line in enumerate(order):
        if line not in lines:
            continue
        if spans and index and order[index - 1] == spans[-1][1]:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _merge(results: List[dict], key: str) -> Dict[str, Set[int]]:
    merged: Dict[str, Set[int]] = {}
    for result in results:
        for path, lines in result[key].items():
            merged.setdefault(path, set()).update(lines)
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-j", "--jobs", type=int, default=2, help="entries run at once")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _run_child(args.child[0], args.child[1], Path(args.child[2]))
        return 0
    todo = entries()
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(args.jobs) as pool:
        results = list(pool.map(_spawn, todo, [Path(scratch)] * len(todo), range(len(todo))))
    files = census(SRC, _merge(results, "reached"), _merge(results, "entered"))
    executable = sum(len(f["executable"]) for f in files.values())
    error = sum(len(f["error"]) for f in files.values())
    counts = {path: len(f["other"]) for path, f in files.items() if f["other"]}
    total = sum(counts.values())
    functions = sum(len(f["functions"]) for f in files.values())
    for path, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{path}: {count}  l. {runs(files[path]['other'], files[path]['executable'])}")
    print(
        f"line census: {executable} executable / {error + total} unreached"
        f" / {error} of them error handling / {total} others"
        f" / {functions} functions never entered ({len(todo)} entries)"
    )
    problems = verdict(counts, UNREACHED, UNREACHED_CEILING)
    for problem in problems:
        print("FAIL", problem)
    lower = {p: c for p, c in counts.items() if c < UNREACHED.get(p, (0,))[0]}
    if lower or total < UNREACHED_CEILING:
        print(f"may fall: {sorted(lower.items())}; UNREACHED_CEILING to {total}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
