"""Spans around the benchmark's own calls, and profile self time by layer.

A span is (name, start, end, parent), kept in memory and written out
when the benchmark ends.  A *profiled* span also runs ``cProfile`` over
its body and buckets every function's self time and call count by the
source file it lives in -> layer.  Time spent in built-ins, the standard
library and the benchmark itself is charged to the layer that called it,
through the profile's caller edges, so the buckets sum to the profile's
total.

Nothing here patches the product: layers are told apart by file path
only, so a later change may rename any private entry point it likes.

cProfile charges a fixed cost to every call, so call-heavy Python code
looks slower than it is next to code that spends its time inside one
built-in; shares found here locate candidates, they do not size gains.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

LAYERS = (
    "simnet", "spec", "snmp", "poller", "integrity", "distributed", "dataflow",
    "monitor", "stream", "probe", "history", "telemetry", "other",
)

_PACKAGE_LAYER = {
    "simnet": "simnet", "spec": "spec", "topology": "spec", "snmp": "snmp",
    "integrity": "integrity", "stream": "stream", "probe": "probe",
    "tsdb": "history", "telemetry": "telemetry",
}
_CORE_LAYER = {
    "poller": "poller", "counters": "poller", "health": "poller",
    "distributed": "distributed", "hierarchy": "distributed", "deltas": "distributed",
    "bandwidth": "dataflow", "matrix": "dataflow", "dataflow": "dataflow",
    "traversal": "dataflow", "report": "dataflow",
    "monitor": "monitor", "linkstate": "monitor", "discovery": "monitor",
    "topology_sync": "monitor", "latency": "monitor",
    "history": "history",
}
_PRODUCT_MARKER = "/src/repro/"

#: Public functions whose mean cumulative time per call is reported:
#: metric name -> (source file under src/repro, qualified name, unit scale).
PUBLIC_FUNCTIONS = {
    "snmp.decode_ms": ("snmp/message.py", "Message.decode", 1e3),
    "snmp.encode_ms": ("snmp/message.py", "Message.encode", 1e3),
    "integrity.inspect_us": ("integrity/pipeline.py", "IntegrityPipeline.inspect", 1e6),
    "dataflow.measure_path_us": (
        "core/bandwidth.py", "BandwidthCalculator.measure_path", 1e6,
    ),
    "dataflow.snapshot_ms": ("core/matrix.py", "BandwidthMatrix.snapshot", 1e3),
    "stream.publish_ms": ("stream/publisher.py", "MatrixPublisher.publish", 1e3),
}


_FUNCTION_METRIC = {
    (suffix, qualname): metric
    for metric, (suffix, qualname, _) in PUBLIC_FUNCTIONS.items()
}


def _product_path(filename: str) -> Optional[str]:
    """``filename`` relative to ``src/repro/``; ``None`` off-product."""
    filename = filename.replace("\\", "/")
    at = filename.rfind(_PRODUCT_MARKER)
    return None if at < 0 else filename[at + len(_PRODUCT_MARKER):]


def layer_of(filename: str) -> Optional[str]:
    """The layer a product source file belongs to; ``None`` off-product."""
    path = _product_path(filename)
    if path is None:
        return None
    package, _, rest = path.partition("/")
    if not rest:
        return "other"  # cli.py, __init__.py
    if package == "core":
        return _CORE_LAYER.get(rest.rsplit("/", 1)[-1].removesuffix(".py"), "other")
    return _PACKAGE_LAYER.get(package, "other")


def _filename(code) -> Optional[str]:
    return getattr(code, "co_filename", None)  # built-ins are plain strings


def bucket_profile(
    stats: Iterable, layer_of: Callable[[str], Optional[str]] = layer_of
) -> Dict[str, List[float]]:
    """``{layer: [self_seconds, python_calls]}`` from ``Profile.getstats()``.

    A product function's self time goes to its own layer.  Anything else
    is split over its callers in proportion to the self time each caller
    edge carries, recursively; what nobody in the product called (the
    benchmark's own frames, profiler bookkeeping) lands in ``other``.
    """
    entries = list(stats)
    own: Dict[object, Optional[str]] = {}
    callers: Dict[object, List[Tuple[object, float, int]]] = {}
    for entry in entries:
        name = _filename(entry.code)
        own[entry.code] = layer_of(name) if name is not None else None
        for edge in entry.calls or ():
            callers.setdefault(edge.code, []).append(
                (entry.code, edge.inlinetime, edge.callcount)
            )

    shares: Dict[object, Dict[str, float]] = {}
    resolving = set()

    def share_of(code) -> Dict[str, float]:
        layer = own.get(code)
        if layer is not None:
            return {layer: 1.0}
        if code in shares:
            return shares[code]
        if code in resolving:
            return {"other": 1.0}  # recursion among off-product frames
        resolving.add(code)
        edges = callers.get(code, ())
        weights = [max(inline, 0.0) for _, inline, _ in edges]
        if not sum(weights):
            weights = [float(count) for _, _, count in edges]
        total = sum(weights)
        out: Dict[str, float] = {}
        if total:
            for (caller, _, _), weight in zip(edges, weights):
                for layer, part in share_of(caller).items():
                    out[layer] = out.get(layer, 0.0) + part * weight / total
        else:
            out = {"other": 1.0}
        resolving.discard(code)
        shares[code] = out
        return out

    buckets = {layer: [0.0, 0] for layer in LAYERS}
    for entry in entries:
        for layer, part in share_of(entry.code).items():
            buckets.setdefault(layer, [0.0, 0])[0] += entry.inlinetime * part
        layer = own.get(entry.code)
        if layer is not None:
            buckets.setdefault(layer, [0.0, 0])[1] += entry.callcount
    return buckets


def function_costs(stats: Iterable) -> Dict[str, Tuple[int, float]]:
    """``{metric: (calls, cumulative_seconds)}`` for :data:`PUBLIC_FUNCTIONS`
    found in one profile; a function that is gone is simply absent."""
    found: Dict[str, Tuple[int, float]] = {}
    for entry in stats:
        name = _filename(entry.code)
        path = _product_path(name) if name is not None else None
        if path is None:
            continue
        metric = _FUNCTION_METRIC.get((path, entry.code.co_qualname))
        if metric is not None:
            found[metric] = (entry.callcount, entry.totaltime)
    return found


def function_exists(suffix: str, qualname: str) -> bool:
    """Whether ``qualname`` is still defined in ``src/repro/<suffix>``."""
    module = "repro." + suffix.removesuffix(".py").replace("/", ".")
    try:
        found = importlib.import_module(module)
        for part in qualname.split("."):
            found = getattr(found, part)
    except (ImportError, AttributeError):
        return False
    return True


class Span:
    __slots__ = ("name", "start", "end", "parent", "profile", "layers", "functions")

    def __init__(self, name: str, parent: Optional[int]) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.profile: Optional[cProfile.Profile] = None
        self.layers: Optional[Dict[str, List[float]]] = None
        self.functions: Dict[str, Tuple[int, float]] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent,
        }
        if self.layers is not None:
            out["layers"] = {
                layer: {"self_s": cost[0], "py_calls": cost[1]}
                for layer, cost in self.layers.items()
            }
        return out


class Tracer:
    """In-memory span recorder; profiles are reduced by :meth:`finish`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, profile: bool = False) -> Iterator[Span]:
        span = Span(name, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        if profile:
            span.profile = cProfile.Profile()
        span.start = time.perf_counter()
        if profile:
            span.profile.enable()
        try:
            yield span
        finally:
            if profile:
                span.profile.disable()
            span.end = time.perf_counter()
            self._open.pop()

    def finish(self) -> None:
        """Bucket every profile taken (kept out of the timed spans)."""
        for span in self.spans:
            if span.profile is not None:
                stats = span.profile.getstats()
                span.layers = bucket_profile(stats)
                span.functions = function_costs(stats)
                span.profile = None

    def profiled(self, prefix: str) -> List[Span]:
        return [
            s for s in self.spans if s.layers is not None and s.name.startswith(prefix)
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s.as_dict() for s in self.spans], indent=1) + "\n")
