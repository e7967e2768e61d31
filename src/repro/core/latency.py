"""Path latency measurement -- the first item of the paper's future work.

"Future work includes measurement of network latency, ..." (§5).  Two
complementary techniques are implemented:

**Model-based estimation** (:class:`LatencyEstimator`) -- from the same
SNMP measurements the bandwidth monitor already collects.  For each
connection the one-way latency is estimated as transmission time of an
MTU-sized frame plus propagation plus an M/M/1-style queueing term driven
by the measured utilisation::

    d_i = tx + prop + tx * rho_i / (1 - rho_i)     (rho capped < 1)

and the path estimate is the sum over its connections.  Hubs contribute
their store-and-forward repeat time as well.  This needs no new traffic,
matching the paper's philosophy of reusing the monitoring substrate.

**Probe-based measurement** (:class:`PathProber`) -- true RTTs observed by
timestamped UDP probes to the destination's ECHO service (RFC 862), the
network-level ground truth the estimator can be validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro._numpy import np
from repro.core.bandwidth import BandwidthCalculator
from repro.core.traversal import find_path
from repro.probe.stats import ProbeStats  # shared result model with repro.probe
from repro.simnet.host import Host
from repro.simnet.link import DEFAULT_PROP_DELAY
from repro.simnet.packet import IPV4_HEADER_SIZE, UDP_HEADER_SIZE
from repro.simnet.sockets import ECHO_PORT
from repro.simnet.switch import SWITCH_FORWARD_LATENCY
from repro.topology.model import DeviceKind, TopologySpec

FRAME_BYTES = 1500  # the frame whose transmission time a hop is charged
MAX_UTILISATION = 0.97  # cap rho so the M/M/1 term stays finite
ECHO_INTERVAL = 0.2  # seconds between a session's echo probes
ECHO_TIMEOUT = 1.0  # how long after the last probe its echo may still land


@dataclass(frozen=True)
class LatencyEstimate:
    """Model-based one-way latency for a path, with its breakdown."""

    src: str
    dst: str
    total_s: float
    per_connection_s: tuple
    queueing_s: float

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3


class LatencyEstimator:
    """Estimate path latency from the bandwidth monitor's measurements."""

    def __init__(
        self, spec: TopologySpec, calculator: BandwidthCalculator
    ) -> None:
        self.spec = spec
        self.calculator = calculator

    def estimate_path(self, src: str, dst: str) -> LatencyEstimate:
        path = find_path(self.spec, src, dst)
        per_conn: List[float] = []
        queueing_total = 0.0
        charged_hubs: set = set()
        for conn in path:
            capacity_bps = self.spec.effective_bandwidth(conn)  # bits/s
            tx = FRAME_BYTES * 8.0 / capacity_bps
            hub = self.calculator.hub_of(conn)
            if hub is not None and hub in charged_hubs:
                # Second connection of the same shared medium: the frame
                # crosses the hub once, so only propagation is added.
                per_conn.append(DEFAULT_PROP_DELAY)
                continue
            measurement = self.calculator.measure_connection(conn)
            rho = min(measurement.utilization, MAX_UTILISATION)
            queueing = tx * rho / (1.0 - rho)
            hop = tx + DEFAULT_PROP_DELAY + queueing
            # Store-and-forward devices add their own forwarding cost once
            # per traversed device; attribute it to the inbound connection.
            for end in conn.endpoints():
                kind = self.spec.node(end.node).kind
                if kind is DeviceKind.SWITCH:
                    hop += SWITCH_FORWARD_LATENCY / 2.0  # split across its two links
                elif kind is DeviceKind.HUB:
                    hop += tx  # store-and-forward repeat time
                    charged_hubs.add(end.node)
            per_conn.append(hop)
            queueing_total += queueing
        return LatencyEstimate(
            src=src,
            dst=dst,
            total_s=float(sum(per_conn)),
            per_connection_s=tuple(per_conn),
            queueing_s=queueing_total,
        )


# ProbeStats now lives in repro.probe.stats (imported above) so the RTT
# prober and the probe trains share one result model.


class PathProber:
    """Measure true RTTs with timestamped UDP probes to an ECHO service.

    The destination host must run :class:`~repro.simnet.sockets.
    EchoService`.  Probes carry a sequence number; RTTs are recorded on
    the echo's arrival, one probe every :data:`ECHO_INTERVAL`.
    ``on_complete`` fires :data:`ECHO_TIMEOUT` after the last probe.
    """

    def __init__(
        self,
        src: Host,
        dst_ip,
        count: int = 10,
        payload_size: int = 64,
        on_complete: Optional[Callable[[ProbeStats], None]] = None,
    ) -> None:
        if count < 1:
            raise ValueError("need at least one probe")
        self.src = src
        self.dst_ip = dst_ip
        self.count = count
        self.payload_size = payload_size
        self.on_complete = on_complete
        self.sim = src.sim
        self.socket = src.create_socket()
        self.socket.on_receive = self._on_echo
        self._send_times: Dict[int, float] = {}
        self._rtts: List[float] = []
        self._next_seq = 0
        self.stats: Optional[ProbeStats] = None

    def start(self) -> None:
        self.sim.schedule(0.0, self._send_next)

    def _send_next(self) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._send_times[seq] = self.sim.now
        payload = seq.to_bytes(4, "big") + b"\x00" * max(0, self.payload_size - 4)
        self.socket.sendto(payload, (self.dst_ip, ECHO_PORT))
        if self._next_seq < self.count:
            self.sim.schedule(ECHO_INTERVAL, self._send_next)
        else:
            self.sim.schedule(ECHO_TIMEOUT, self._finish)

    def _on_echo(self, payload, size, src_ip, src_port) -> None:
        if payload is None or len(payload) < 4:
            return
        seq = int.from_bytes(payload[:4], "big")
        sent_at = self._send_times.pop(seq, None)
        if sent_at is None:
            return  # duplicate or late echo
        self._rtts.append(self.sim.now - sent_at)

    def _finish(self) -> None:
        self.stats = ProbeStats(
            sent=self.count,
            received=len(self._rtts),
            rtts_s=np.array(self._rtts, dtype=float),
        )
        if self.on_complete is not None:
            self.on_complete(self.stats)
