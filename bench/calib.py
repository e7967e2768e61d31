"""Speed normalisation: a fixed pure-Python kernel timed beside every slice.

The box this benchmark runs on is shared: the *same* code's median cycle
wall swings by tens of percent between back-to-back runs.  Every timed
slice is therefore divided by the wall time of a calibration kernel run
just before it and multiplied by :data:`KERNEL_REF_S`, which turns host
seconds into *reference* seconds -- the time the slice would have taken
had the box run the kernel at its reference speed.

The kernel must never call product code (a faster product would then
cancel out of its own measurement).  It mixes the two things the
simulator's inner loops do -- heap push/pop of small tuples with dict
writes (interpreter-bound) and pointer chasing over an object graph
larger than the L2 cache (memory-bound) -- because a neighbour's load
slows those two by different factors and the workloads sit in between.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from statistics import median
from typing import Callable, Deque, List, Tuple

#: What one kernel run costs on the reference box, by definition.
KERNEL_REF_S = 0.010
#: A calibration older than this (host seconds) is refreshed before the
#: next slice; short slices share one, long slices each get their own.
MAX_AGE_S = 0.1
#: Slices are normalised by the median of this many latest kernel runs,
#: which damps the kernel's own noise while still tracking drift.
SMOOTH = 3

_GRAPH_NODES = 1 << 16
_ITERATIONS = 9000


class _Node:
    __slots__ = ("key", "value", "peer")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = float(key)
        self.peer = None


def _lcg(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def build_graph() -> Tuple[List[_Node], dict]:
    """The kernel's working set: nodes in scrambled memory order."""
    nodes = [_Node(i) for i in range(_GRAPH_NODES)]
    x = 1
    for i in range(_GRAPH_NODES - 1, 0, -1):  # Fisher-Yates on an LCG
        x = _lcg(x)
        j = x % (i + 1)
        nodes[i], nodes[j] = nodes[j], nodes[i]
    return nodes, {node.key: node for node in nodes}


def kernel(graph: Tuple[List[_Node], dict]) -> float:
    """One calibration run; the return value keeps the loop observable."""
    nodes, by_key = graph
    mask = _GRAPH_NODES - 1
    heap: list = []
    small: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    acc = 0.0
    x = 12345
    for i in range(_ITERATIONS):
        x = _lcg(x)
        node = nodes[x & mask]
        peer = by_key[(x >> 7) & mask]
        node.peer = peer
        acc += peer.value
        push(heap, (x, i, node))
        small[x & 1023] = i
        if i & 1:
            pop(heap)
    return acc + len(heap) + len(small)


class RefClock:
    """Times callables in reference seconds (and raw host seconds)."""

    def __init__(self) -> None:
        self._graph = build_graph()
        self._recent: Deque[float] = deque(maxlen=SMOOTH)
        self._calibrated_at = float("-inf")
        self.kernel_runs = 0

    def calibrate(self) -> float:
        # The kernel allocates, and a collection it happens to trigger
        # costs whatever the *workload's* heap makes it cost.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel(self._graph)
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self._recent.append(end - start)
        self._calibrated_at = end
        self.kernel_runs += 1
        return end - start

    @property
    def kernel_s(self) -> float:
        """Host seconds one kernel run costs right now (smoothed)."""
        return median(self._recent)

    def timed(self, fn: Callable[[], object]) -> Tuple[float, float]:
        """Run ``fn``; return ``(reference_seconds, raw_host_seconds)``."""
        if time.perf_counter() - self._calibrated_at > MAX_AGE_S:
            self.calibrate()
        start = time.perf_counter()
        fn()
        raw = time.perf_counter() - start
        return raw / self.kernel_s * KERNEL_REF_S, raw
