"""Measurement records handed from the monitor to its consumers.

These are the "network metrics regarding data communication information"
the paper's monitor provides to the DeSiDeRaTa middleware: per-connection
used/available bandwidth along a watched path, the path's end-to-end
available bandwidth (the minimum), and the bottleneck connection.

Every report also carries its **data freshness**: how old the rate
samples behind it are (``freshness``), a 0..1 ``confidence`` derived
from those ages and agent health, a ``degraded`` flag when any figure
rests on stale or missing data, and an ``unavailable`` flag when the
path's numbers cannot be trusted at all (a fully-dead source).  An
unavailable report answers ``available_bps`` with NaN rather than
serving the last rate it happened to see as if it were current --
consumers driving adaptation must know the difference between "little
bandwidth" and "no idea".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.topology.model import ConnectionSpec, InterfaceRef


@dataclass(slots=True, unsafe_hash=True)
class ConnectionMeasurement:
    """One connection's bandwidth figures at one instant.

    A value, never mutated once built, but slotted rather than ``frozen``
    (``InterfaceRates``'s reason): the calculator builds one per
    connection each time its inputs or its report instant move.
    ``available_bps`` is derived from the fields when the measurement is
    built, once, and read as a plain attribute by every path report that
    crosses the connection; it takes no part in equality or hashing.
    """

    connection: ConnectionSpec
    capacity_bps: float  # m_i: static bandwidth (ifSpeed / spec)
    used_bps: float  # u_i: measured traffic, after the hub/switch rule
    source: Optional[InterfaceRef]  # polled endpoint (None: unmeasured)
    rule: str  # "switch" | "hub" | "down" | "unmeasured"
    sample_time: Optional[float] = None  # when the underlying sample landed
    sample_interval: Optional[float] = None  # seconds the sample covers
    sample_age: Optional[float] = None  # report time minus sample time
    stale: bool = False  # sample older than the monitor's staleness bound
    quarantined: bool = False  # counter source held by the integrity pipeline
    degraded_source: bool = False  # distributed plane knows newer data was lost
    available_bps: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a_i = m_i - u_i, floored at zero; a downed link offers nothing.
        if self.rule == "down":
            self.available_bps = 0.0
        else:
            self.available_bps = max(0.0, self.capacity_bps - self.used_bps)

    @property
    def utilization(self) -> float:
        return min(1.0, self.used_bps / self.capacity_bps) if self.capacity_bps else 0.0

    @property
    def measured(self) -> bool:
        return self.rule != "unmeasured"


@dataclass(slots=True, unsafe_hash=True)
class PathReport:
    """End-to-end bandwidth for one watched host pair at one instant.

    ``available_bps`` is the paper's ``A = min(a_1, ..., a_n)``;
    ``used_bps`` is the largest per-connection traffic along the path,
    which is the "measured traffic between hosts" the paper plots in
    Figures 4-6.

    A value, slotted rather than ``frozen`` like
    :class:`ConnectionMeasurement`.  ``available_bps`` is taken once,
    when the report is built -- composed by the calculator, built by
    hand or copied by ``dataclasses.replace`` alike -- and is then a
    plain attribute: the stream publisher reads it twice per matrix pair
    per cycle.  Like every derived figure it takes no part in equality
    or hashing.
    """

    src: str
    dst: str
    time: float
    connections: Tuple[ConnectionMeasurement, ...]
    name: Optional[str] = None
    # Data-quality annotations (see the module docstring).  Defaults are
    # the optimistic ones so hand-built reports behave as before.
    freshness: Optional[float] = None  # age of the stalest backing sample
    confidence: float = 1.0  # 1.0 all-fresh .. 0.0 no usable data
    degraded: bool = False  # some figure rests on stale/missing data
    unavailable: bool = False  # no trustworthy figures at all
    # Physical redundancy of the pair: >= 2 simple paths exist, so a
    # single link failure on the measured (active) path is survivable.
    # Distinguishes "degraded but protected" from "single point of
    # failure" for the resource manager.
    redundant: bool = False
    available_bps: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.connections and self.src != self.dst:
            raise ValueError(f"empty path report between distinct hosts {self.src}->{self.dst}")
        if self.unavailable:
            # A dead path has *unknown* availability; NaN refuses to let a
            # stale minimum masquerade as a live measurement.
            self.available_bps = float("nan")
            return
        least = float("inf")  # what an empty path offers
        for m in self.connections:
            available = m.available_bps
            if available < least:
                least = available
        self.available_bps = least

    @property
    def complete(self) -> bool:
        """True when every connection on the path was measurable."""
        return all(m.measured for m in self.connections)

    @property
    def status(self) -> str:
        """"fresh" | "degraded" | "unavailable" -- the report's trust level."""
        if self.unavailable:
            return "unavailable"
        return "degraded" if self.degraded else "fresh"

    @property
    def trusted(self) -> bool:
        """True only for a fully-fresh report free of quarantined sources.

        This is the flag QoS consumers should gate adaptation on: a
        degraded or unavailable report, or one whose figures lean on an
        interface the integrity pipeline quarantined, is not evidence.
        """
        return not self.degraded and not self.unavailable and not self.any_quarantined

    @property
    def any_quarantined(self) -> bool:
        """True when any connection's counter source sits in quarantine."""
        return any(m.quarantined for m in self.connections)

    @property
    def quarantined_connections(self) -> Tuple[ConnectionMeasurement, ...]:
        return tuple(m for m in self.connections if m.quarantined)

    @property
    def used_bps(self) -> float:
        measured = [m.used_bps for m in self.connections if m.measured]
        return max(measured) if measured else 0.0

    @property
    def capacity_bps(self) -> float:
        """The path's static bandwidth: the smallest connection capacity."""
        if not self.connections:
            return float("inf")
        return min(m.capacity_bps for m in self.connections)

    @property
    def bottleneck(self) -> Optional[ConnectionMeasurement]:
        """The connection with the least available bandwidth."""
        if not self.connections:
            return None
        return min(self.connections, key=lambda m: m.available_bps)

    @property
    def label(self) -> str:
        return self.name if self.name else f"{self.src}<->{self.dst}"

    def summary(self) -> str:
        """One-line human-readable rendering for logs and examples."""
        if self.unavailable:
            return (
                f"[{self.time:9.3f}s] {self.label}: UNAVAILABLE "
                f"(no fresh data; stalest sample "
                f"{'never seen' if self.freshness is None else f'{self.freshness:.1f}s old'})"
            )
        parts = [
            f"[{self.time:9.3f}s] {self.label}:",
            f"used {self.used_bps / 1000:8.1f} KB/s,",
            f"available {self.available_bps / 1000:8.1f} KB/s",
        ]
        bottleneck = self.bottleneck
        if bottleneck is not None:
            parts.append(f"(bottleneck {bottleneck.connection})")
        if self.degraded:
            parts.append(f"[DEGRADED confidence={self.confidence:.2f}]")
        if self.any_quarantined:
            parts.append(f"[QUARANTINED x{len(self.quarantined_connections)}]")
        return " ".join(parts)
