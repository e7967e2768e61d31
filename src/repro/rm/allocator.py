"""Reallocation advice: place the application where the network can feed it.

DeSiDeRaTa reacts to QoS violations by reallocating application processes
to different hosts.  With network metrics available (the point of the
paper), the allocator can rank candidate hosts by the *measured available
bandwidth* of the communication path each placement would use, and skip
any placement whose path still crosses the diagnosed bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.bandwidth import BandwidthCalculator
from repro.core.report import PathReport
from repro.core.traversal import NoPathError, find_path
from repro.rm.diagnosis import BottleneckDiagnosis
from repro.topology.model import ConnectionSpec, DeviceKind, TopologySpec


@dataclass(frozen=True)
class PlacementAdvice:
    """One candidate placement, with its predicted path quality."""

    host: str
    report: PathReport  # measured state of the path this placement uses
    avoids_bottleneck: bool

    @property
    def available_bps(self) -> float:
        return self.report.available_bps


class ReallocationAdvisor:
    """Ranks alternative endpoint hosts for a violated path.

    The moving end is the *destination* by convention (DeSiDeRaTa moves
    the consumer process); ``advise`` keeps the source fixed and evaluates
    every other host as a new home for the destination application.
    """

    def __init__(self, spec: TopologySpec, calculator: BandwidthCalculator) -> None:
        self.spec = spec
        self.calculator = calculator

    def candidate_hosts(self, exclude: Sequence[str]) -> List[str]:
        excluded = set(exclude)
        return [
            node.name
            for node in self.spec.nodes
            if node.kind is DeviceKind.HOST and node.name not in excluded
        ]

    def advise(
        self,
        src: str,
        current_dst: str,
        diagnosis: Optional[BottleneckDiagnosis] = None,
        min_available_bps: float = 0.0,
        time: float = 0.0,
    ) -> List[PlacementAdvice]:
        """Ranked placements for the application currently on ``current_dst``.

        Best first: placements avoiding the bottleneck outrank those that
        do not; ties break on measured available bandwidth.  Placements
        below ``min_available_bps`` are dropped entirely, and so are those
        the monitor has no figures for (:func:`_unmeasured`).
        """
        bottleneck_conn: Optional[ConnectionSpec] = None
        if diagnosis is not None:
            bottleneck_conn = diagnosis.bottleneck.connection
        advice: List[PlacementAdvice] = []
        for host in self.candidate_hosts(exclude=[src, current_dst]):
            try:
                path = find_path(self.spec, src, host)
            except NoPathError:
                continue
            report = self.calculator.measure_path(
                path, src, host, time=time, name=f"advise:{src}->{host}"
            )
            if _unmeasured(report) or report.available_bps < min_available_bps:
                continue
            avoids = bottleneck_conn is None or all(
                conn is not bottleneck_conn
                and conn.endpoints() != bottleneck_conn.endpoints()
                for conn in path
            )
            advice.append(
                PlacementAdvice(host=host, report=report, avoids_bottleneck=avoids)
            )
        advice.sort(key=lambda a: (not a.avoids_bottleneck, -a.available_bps, a.host))
        return advice


def _unmeasured(report: PathReport) -> bool:
    """True when the path is unavailable, or crosses a connection whose
    counter source has no sample.  Such a connection reads as idle (its
    whole capacity free), which is no evidence for a placement: a tree
    plane polls only the connections its watches read, so most paths to
    other hosts cross some it never samples."""
    return report.unavailable or any(
        m.source is not None and m.sample_time is None and m.rule != "down"
        for m in report.connections
    )
