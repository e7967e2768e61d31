"""Perf ledger: one speed-normalised benchmark over four named workloads.

See ``bench/README.md`` for the metric glossary and ``BENCHMARK.json`` at
the repository root for the contract the driver runs.
"""

import sys
from pathlib import Path

# The product is measured from the checkout's source tree, never from an
# installed copy; this is what lets ``python3 bench/run.py``, ``python -m
# bench.run`` and ``pytest bench/`` all work without PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
