"""The benchmark's one command.

Driver contract (one workload, one process, one JSON result line)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Ledger (every workload, fresh subprocess each, repeats interleaved
A B C D, A B C D, ...; written to ``bench/out/ledger.json``)::

    python3 bench/run.py [--seed N] [--repeats R] [--traced]
    python3 bench/run.py --selftest

``python -m bench.run`` with ``PYTHONPATH=src`` is the same program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
FULL_PREFIX = "full-result: "
DEFAULT_SEED, HELD_OUT_SEED = 0, 7
RUN_SECONDS = 10


def _bootstrap() -> None:
    """Make ``repro`` and ``bench`` importable and pin the hash seed."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no product to measure: {ROOT / 'src' / 'repro'} is missing")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order, and so timing, must not vary run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))  # importing bench adds src/


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args) -> int:
    """Driver contract: measure, print every metric, end with the result line."""
    from bench import harness
    from bench.metrics import END_TO_END, LEDGER_ONLY, PER_LAYER, highest_percentile
    from bench.workloads import WORKLOADS, steady_cycles

    cls = WORKLOADS[args.workload]
    cycles = steady_cycles(cls.CYCLES_PER_10S, args.seconds)
    assert highest_percentile(cycles) >= 90, "the steady window must support a p90"
    result = harness.measure(cls, args.seed, cycles, bool(args.trace))
    print(
        f"{result['workload']} seed={result['seed']} cycles={result['cycles']} "
        f"samples={result['samples']} digest={result['report_digest'][:16]}"
    )
    if result["traced"]:
        for key, (unit, _) in PER_LAYER.items():
            print(f"  {key:42s} {_fmt(result['per_layer'][key]):>14s} {unit}")
    else:
        for key, (unit, _, _) in {**END_TO_END, **LEDGER_ONLY}.items():
            raw = result["raw"].get(key)
            note = f"   (raw wall {_fmt(raw)})" if raw is not None else ""
            print(f"  {key:42s} {_fmt(result['end_to_end'][key]):>14s} {unit}{note}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(FULL_PREFIX + json.dumps(result))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": harness.contract_metrics(result),
            }
        )
    )
    return 0 if result["correct"] else 1


def _spawn(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh interpreter; returns its full result record."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
        ],
        capture_output=True, text=True, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    for line in done.stdout.splitlines():
        if line.startswith(FULL_PREFIX):
            result = json.loads(line[len(FULL_PREFIX):])
            break
    else:
        sys.exit(f"bench: {workload} produced no result:\n{done.stdout}\n{done.stderr}")
    for failure in result["failures"]:
        print(f"  {workload}: CHECK FAILED: {failure}")
    return result


def run_set(seed: int, repeats: int, seconds: float, traced: bool) -> Dict[str, dict]:
    """All four workloads, one after another, ``repeats`` times over;
    each metric's value is the median over repeats."""
    from bench.metrics import END_TO_END, LEDGER_ONLY, quartiles
    from bench.workloads import WORKLOADS

    runs: Dict[str, List[dict]] = {name: [] for name in WORKLOADS}
    for repeat in range(repeats):
        for name in WORKLOADS:
            print(f"[seed {seed} repeat {repeat + 1}/{repeats}] {name} ...", flush=True)
            runs[name].append(_spawn(name, seed, seconds, trace=False))
    out: Dict[str, dict] = {}
    for name, results in runs.items():
        entry = {
            "seed": seed,
            "cycles": results[0]["cycles"],
            "correct": all(r["correct"] for r in results),
            "report_digest": sorted({r["report_digest"] for r in results}),
            "end_to_end": {},
            "per_layer": results[0]["per_layer"],
        }
        for key in {**END_TO_END, **LEDGER_ONLY}:
            values = [r["end_to_end"][key] for r in results]
            if any(v is None for v in values):
                entry["end_to_end"][key] = None
                continue
            q1, q2, q3 = quartiles(values)
            entry["end_to_end"][key] = {
                "value": q2, "q1": q1, "q3": q3, "runs": len(values),
                "samples_per_run": results[0]["samples"],
            }
            raws = [r["raw"][key] for r in results if key in r["raw"]]
            if raws:
                entry["end_to_end"][key]["raw_wall"] = quartiles(raws)[1]
        if traced:
            print(f"[seed {seed} traced] {name} ...", flush=True)
            entry["per_layer"] = _spawn(name, seed, seconds, trace=True)["per_layer"]
        out[name] = entry
    return out


def print_set(results: Dict[str, dict]) -> None:
    from bench.metrics import END_TO_END, LEDGER_ONLY, PER_LAYER

    names = list(results)
    print(f"\n{'metric':42s}" + "".join(f"{n:>20s}" for n in names) + "  unit")
    for key, (unit, _, _) in {**END_TO_END, **LEDGER_ONLY}.items():
        cells = [results[n]["end_to_end"][key] for n in names]
        print(
            f"{key:42s}"
            + "".join(f"{_fmt(c and c['value']):>20s}" for c in cells)
            + f"  {unit}"
        )
    for key, (unit, _) in PER_LAYER.items():
        cells = [results[n]["per_layer"][key] for n in names]
        if all(c is None for c in cells):
            continue  # traced-only metrics in an untraced ledger
        print(f"{key:42s}" + "".join(f"{_fmt(c):>20s}" for c in cells) + f"  {unit}")
    for name in names:
        print(f"report_digest {name}: {', '.join(results[name]['report_digest'])}")


def compare_sets(first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """Two sets of the same code and seed: every end-to-end metric within
    its bound, every Deterministic figure and exact count identical."""
    from bench.metrics import DETERMINISTIC, END_TO_END, LEDGER_ONLY

    problems = []
    for name in first:
        a, b = first[name], second[name]
        if a["report_digest"] != b["report_digest"] or len(a["report_digest"]) != 1:
            problems.append(f"{name}: report_digest differs between runs")
        for key, (_, _, bound) in {**END_TO_END, **LEDGER_ONLY}.items():
            x, y = a["end_to_end"][key], b["end_to_end"][key]
            if x is None and y is None:
                continue
            x, y = x["value"], y["value"]
            if key in DETERMINISTIC:
                if x != y:
                    problems.append(f"{name}.{key}: deterministic, but {x} != {y}")
            elif abs(y - x) > bound * abs(x):
                problems.append(
                    f"{name}.{key}: {x:.6g} vs {y:.6g} differ by more than {bound:.0%}"
                )
        for key, x in a["per_layer"].items():
            if key.endswith(".py_calls_per_cycle") and x != b["per_layer"][key]:
                problems.append(f"{name}.{key}: {x} != {b['per_layer'][key]}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="steady window length; 10 is the ledger's size")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--traced", action="store_true",
                        help="ledger: add a traced run per workload")
    parser.add_argument("--selftest", action="store_true",
                        help="two full sets on seeds 0 and 7 must agree")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.workload is not None:
        from bench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
        return run_one(args)

    from bench.harness import OUT_DIR

    ledger = {"seconds": args.seconds, "repeats": args.repeats, "sets": []}
    problems: List[str] = []
    seeds = (DEFAULT_SEED, HELD_OUT_SEED) if args.selftest else (args.seed,)
    for seed in seeds:
        sets = [
            run_set(seed, args.repeats, args.seconds, traced=args.traced or args.selftest)
            for _ in range(2 if args.selftest else 1)
        ]
        for results in sets:
            print_set(results)
            ledger["sets"].append(results)
            problems += [
                f"{name}: correctness checks failed"
                for name, entry in results.items() if not entry["correct"]
            ]
        if args.selftest:
            problems += compare_sets(*sets)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    for problem in sorted(set(problems)):
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
