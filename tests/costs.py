"""Cost guards without a wall clock: count Python-level calls instead.

A function's Python-call count is exact and repeats bit for bit, so a
test can bound the cost of a hot path on any box, however noisy.
"""

import gc
import sys
from collections import Counter


def call_counts(fn, by_file: bool = False) -> Counter:
    """Python-level calls made while ``fn`` runs, by function name.

    ``by_file`` keys them ``(source file, function name)`` instead, for a
    guard that must tell one module's ``begin`` or ``__init__`` from
    another's.  The collector is held off meanwhile: ``gc.callbacks``
    hooks (hypothesis installs one) are Python calls that come and go
    with memory pressure.
    """
    calls: Counter = Counter()

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename, code.co_name) if by_file else code.co_name] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def python_calls(fn) -> int:
    """Total Python-level calls made while ``fn`` runs."""
    return sum(call_counts(fn).values())
