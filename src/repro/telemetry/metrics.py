"""Metric primitives and the registry the monitor publishes through.

Three primitives, deliberately prometheus-shaped:

- :class:`Counter` -- a monotonically increasing count (requests sent,
  timeouts, reports emitted).
- :class:`Gauge` -- a value that goes both ways (agents currently
  healthy).  A gauge may be *function-backed*: reading it evaluates a
  callable, so state that already lives elsewhere (the health tracker)
  is sampled at collection time instead of being mirrored on every
  change.
- :class:`Histogram` -- a streaming distribution summary: count, sum,
  min, max and the quantiles :data:`QUANTILES`, tracked incrementally in
  O(1) memory (see :mod:`repro.telemetry.quantile`), never a sample buffer.

Metrics are created through :class:`MetricsRegistry`, which owns the
namespace, deduplicates families, and supports labels::

    reg = MetricsRegistry()
    rtt = reg.histogram("snmp_rtt_seconds", "poll RTT", labelnames=("agent",))
    rtt.labels(agent="S1").observe(0.0017)
    reg.value("snmp_rtt_seconds", agent="S1")  # -> quantile/summary dict

Registration is get-or-create: asking twice for the same family returns
the same object, so independently-constructed components (manager,
poller, monitor) can share one registry without coordination.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.telemetry.quantile import P2Quantile

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

QUANTILES = (0.5, 0.9, 0.99)  # what every histogram tracks


class MetricError(ValueError):
    """Raised for invalid metric names, labels, or kind mismatches."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter increments must be >= 0, got {amount!r}")
        self._value += amount

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge:
    """A value that can rise and fall, or track a callable."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value: float = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._fn = None
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read ``fn()`` at every collection instead of a stored value."""
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value


class Histogram:
    """Streaming distribution summary with incremental quantiles."""

    __slots__ = ("count", "sum", "min", "max", "_estimators")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._estimators = {q: P2Quantile(q) for q in QUANTILES}

    def observe(self, x: float) -> None:
        self.count += 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        for est in self._estimators.values():
            est.observe(x)

    def quantile(self, q: float) -> float:
        """Current estimate for a tracked quantile (NaN when empty)."""
        try:
            return self._estimators[q].value
        except KeyError:
            raise MetricError(
                f"quantile {q!r} not tracked; tracked: {sorted(self._estimators)}"
            ) from None

    def quantiles(self) -> Dict[float, float]:
        return {q: est.value for q, est in sorted(self._estimators.items())}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    @property
    def value(self) -> Dict[str, object]:
        """Summary dict (what ``MetricsRegistry.value`` returns)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "mean": self.mean,
            "quantiles": self.quantiles(),
        }


class MetricFamily:
    """One named metric and its labelled children.

    A family with no ``labelnames`` has exactly one (anonymous) child and
    takes the child's methods as its own, so unlabelled metrics read
    naturally -- ``reg.counter("poll_cycles_total").inc()`` -- and cost
    what the child costs: ``family.inc`` *is* ``child.inc``, one call.
    That binding is per instance, which is why the class has no
    ``__slots__`` (an instance attribute cannot share a name with a
    method of a slotted class); a family is created once per metric
    name, so the attribute table is paid a few hundred times a process.
    """

    #: What an unlabelled family takes from its child, where the child's
    #: kind has it.  ``value`` and ``count`` are read, not called: they
    #: stay properties below.
    _CHILD_METHODS = (
        "inc", "dec", "set", "set_function", "observe", "quantile", "quantiles",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        make: Callable[[], object],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self._make = make
        self._children: Dict[Tuple[str, ...], object] = {}
        self._default = None if labelnames else make()
        for method in self._CHILD_METHODS:
            bound = getattr(self._default, method, None)
            if bound is not None:
                setattr(self, method, bound)

    # -- labelled access ------------------------------------------------
    def labels(self, **labels: str) -> object:
        if not self.labelnames:
            raise MetricError(f"metric {self.name!r} takes no labels")
        try:
            key = tuple(str(labels[ln]) for ln in self.labelnames)
        except KeyError as missing:
            raise MetricError(
                f"metric {self.name!r} needs labels {self.labelnames}, got "
                f"{sorted(labels)}"
            ) from missing
        if len(labels) != len(self.labelnames):
            extra = set(labels) - set(self.labelnames)
            raise MetricError(f"unexpected labels {sorted(extra)} for {self.name!r}")
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label-values, child) pairs; one ``((), child)`` when unlabelled."""
        if not self.labelnames:
            return [((), self._default)]
        return sorted(self._children.items())

    # -- unlabelled access ----------------------------------------------
    def _only(self):
        if self._default is None:
            raise MetricError(
                f"metric {self.name!r} is labelled by {self.labelnames}; "
                f"use .labels(...)"
            )
        return self._default

    def __getattr__(self, name: str):
        """Reached only for a name ``__init__`` did not bind: a child's
        method asked of a labelled family (a :class:`MetricError` that
        says to use ``.labels``) or of a child whose kind lacks it."""
        if name in MetricFamily._CHILD_METHODS:
            return getattr(self._only(), name)
        raise AttributeError(name)

    @property
    def count(self) -> int:
        return self._only().count

    @property
    def value(self):
        return self._only().value


class MetricsRegistry:
    """Owns the metric namespace; everything exportable lives here."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration (get-or-create)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help, labelnames, Counter)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "gauge", help, labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        return self._register(name, "histogram", help, labelnames, Histogram)

    def _register(self, name, kind, help, labelnames, make) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for ln in labelnames:
            if not _LABEL_RE.match(ln):
                raise MetricError(f"invalid label name {ln!r} on {name!r}")
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != labelnames:
                raise MetricError(
                    f"metric {name!r} already registered as {family.kind} with "
                    f"labels {family.labelnames}; cannot re-register as {kind} "
                    f"with {labelnames}"
                )
            return family
        family = MetricFamily(name, kind, help or name, labelnames, make)
        self._families[name] = family
        return family

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def get(self, name: str) -> MetricFamily:
        try:
            return self._families[name]
        except KeyError:
            raise MetricError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def value(self, name: str, **labels: str):
        """Current value of one metric child (tests and ``stats()``)."""
        family = self.get(name)
        child = family.labels(**labels) if labels else family._only()
        return child.value

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of every family and child."""
        out: Dict[str, object] = {}
        for family in self.families():
            entries = []
            for label_values, child in family.children():
                entries.append(
                    {
                        "labels": dict(zip(family.labelnames, label_values)),
                        "value": child.value,
                    }
                )
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "values": entries,
            }
        return out
