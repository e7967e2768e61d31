"""Traffic sources: the paper's UDP load generator and background noise.

Section 4.2 of the paper: "a simple network load generator program was
developed.  It sends data streams to a designated host at a given speed.
The data are sent as UDP packets to the DISCARD port (UDP port number 9)
... The real speed of traffic generated by the program is slightly larger
than the specified value due to the extra bytes of UDP and IP headers."

:class:`StaircaseLoad` reproduces that generator: its *rate* parameter is
the application payload rate (the paper's "generated load"), and the wire
carries payload + 28 bytes of UDP/IP headers per datagram -- about 1.9 %
extra at the default 1472-byte payload (1500-byte MTU).

:class:`BackgroundChatter` stands in for the testbed's ambient LAN noise
(the paper measured 0.824 KB/s at zero generated load and subtracted it as
"background" in Table 2).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.simnet.address import IPv4Address
from repro.simnet.engine import Event, Simulator
from repro.simnet.host import Host
from repro.simnet.network import BROADCAST_IP
from repro.simnet.sockets import DISCARD_PORT

DEFAULT_PAYLOAD = 1472  # bytes; 1500-byte MTU minus IP+UDP headers
KBPS = 1000.0  # the paper's "Kbytes/second" (decimal kilobytes)


class TrafficError(ValueError):
    """Raised for malformed schedules or rates."""


@dataclass(frozen=True)
class Step:
    """One breakpoint of a piecewise-constant rate schedule."""

    time: float
    rate_bps: float  # payload bytes per second

    def __post_init__(self) -> None:
        if self.time < 0:
            raise TrafficError(f"negative step time {self.time!r}")
        if self.rate_bps < 0:
            raise TrafficError(f"negative rate {self.rate_bps!r}")


class StepSchedule:
    """A piecewise-constant payload-rate schedule.

    ``steps`` is a sequence of ``(time_s, rate_bytes_per_s)`` pairs; the
    rate before the first step is 0.  Use :meth:`staircase` to build the
    paper's Figure-4 pattern declaratively.
    """

    def __init__(self, steps: Sequence[Tuple[float, float]]) -> None:
        parsed = [Step(t, r) for t, r in steps]
        times = [s.time for s in parsed]
        if times != sorted(times):
            raise TrafficError("schedule breakpoints must be non-decreasing")
        if len(set(times)) != len(times):
            raise TrafficError("duplicate schedule breakpoints")
        self.steps: List[Step] = parsed
        self._times = times

    @classmethod
    def staircase(
        cls,
        start: float,
        initial_rate: float,
        increment: float,
        hold: float,
        n_steps: int,
        end: float,
    ) -> "StepSchedule":
        """The paper's §4.3.1 pattern: climb by ``increment`` every
        ``hold`` seconds for ``n_steps`` levels, then stop at ``end``."""
        if n_steps < 1:
            raise TrafficError("staircase needs at least one step")
        steps = [(start, initial_rate)]
        for i in range(1, n_steps):
            steps.append((start + i * hold, initial_rate + i * increment))
        if end <= steps[-1][0]:
            raise TrafficError("staircase end precedes its last level")
        steps.append((end, 0.0))
        return cls(steps)

    @classmethod
    def pulse(cls, start: float, end: float, rate: float) -> "StepSchedule":
        """A single on/off window (the Fig. 5 and Fig. 6 loads)."""
        if end <= start:
            raise TrafficError("pulse end must follow its start")
        return cls([(start, rate), (end, 0.0)])

    def rate_at(self, t: float) -> float:
        """Payload rate in effect at time ``t`` (bytes/second)."""
        idx = bisect_right(self._times, t) - 1
        return self.steps[idx].rate_bps if idx >= 0 else 0.0

    @property
    def breakpoints(self) -> List[float]:
        return list(self._times)


class StaircaseLoad:
    """The paper's UDP load generator, driven by a :class:`StepSchedule`.

    Datagrams of ``payload_size`` bytes are emitted back-to-back at the
    scheduled payload rate (inter-packet gap = payload/rate).  Rate changes
    re-pace the stream immediately.
    """

    def __init__(
        self,
        src: Host,
        dst_ip: IPv4Address,
        schedule: StepSchedule,
        payload_size: int = DEFAULT_PAYLOAD,
        dscp: int = 0,
    ) -> None:
        if payload_size <= 0:
            raise TrafficError(f"non-positive payload size {payload_size!r}")
        if not 0 <= dscp <= 63:
            raise TrafficError(f"DSCP out of range: {dscp!r}")
        self.src = src
        self.dst_ip = dst_ip
        self.schedule = schedule
        self.payload_size = payload_size
        self.dscp = dscp
        self.socket = src.create_socket()
        self.socket.tos = dscp << 2
        self.sim: Simulator = src.sim
        self.datagrams_sent = 0
        self.payload_octets_sent = 0
        self._send_handle: Optional[Event] = None
        self._started = False
        # Breakpoints not yet armed, last first: one is pending at a time.
        self._ahead: List[float] = []

    def start(self) -> None:
        """Arm the schedule.  Safe to call once, before or during a run."""
        if self._started:
            raise TrafficError("load generator already started")
        self._started = True
        self._ahead = [t for t in reversed(self.schedule.breakpoints) if t >= self.sim.now]
        if self._ahead:
            self.sim.schedule_at(self._ahead.pop(), self._repace, True)
        self._repace()

    def stop(self) -> None:
        """Silence the generator regardless of the schedule."""
        if self._send_handle is not None:
            self.sim.cancel(self._send_handle)
            self._send_handle = None
        self.schedule = StepSchedule([(self.sim.now, 0.0)])

    @property
    def current_rate(self) -> float:
        return self.schedule.rate_at(self.sim.now)

    def _repace(self, at_breakpoint: bool = False) -> None:
        # A breakpoint arms the next one, even after stop().
        if at_breakpoint and self._ahead:
            self.sim.schedule_at(self._ahead.pop(), self._repace, True)
        if self._send_handle is not None:
            self.sim.cancel(self._send_handle)
        self._send_handle = None
        rate = self.current_rate
        if rate > 0:
            # First datagram of the new rate goes out one gap from now,
            # like a token bucket that was just emptied.
            self._send_handle = self.sim.schedule(self.payload_size / rate, self._send_one)

    def _send_one(self) -> None:
        self._send_handle = None
        rate = self.current_rate
        if rate <= 0:
            return
        self.socket.sendto(self.payload_size, (self.dst_ip, DISCARD_PORT))
        self.datagrams_sent += 1
        self.payload_octets_sent += self.payload_size
        self._send_handle = self.sim.schedule(self.payload_size / rate, self._send_one)


class BackgroundChatter:
    """Ambient LAN noise: small datagrams between random host pairs.

    ``aggregate_rate_bps`` is the total mean payload rate across all pairs.
    A fraction of the datagrams are broadcast, as real LAN background
    (ARP, NetBIOS, routing chatter) largely is.  Fully seeded.
    """

    CHATTER_PORT = 520  # unclaimed; receivers count it as udp_no_port
    PAYLOAD_RANGE = (60, 400)  # bytes, drawn uniformly per datagram
    BROADCAST_FRACTION = 0.3

    def __init__(
        self,
        hosts: Sequence[Host],
        aggregate_rate_bps: float,
        seed: int = 0,
    ) -> None:
        if len(hosts) < 2:
            raise TrafficError("chatter needs at least two hosts")
        if aggregate_rate_bps <= 0:
            raise TrafficError(f"non-positive chatter rate {aggregate_rate_bps!r}")
        self.hosts = list(hosts)
        self.rng = random.Random(seed)
        mean_payload = sum(self.PAYLOAD_RANGE) / 2.0
        self.mean_interval = mean_payload / aggregate_rate_bps
        self.sim = self.hosts[0].sim
        self._sockets = {h.name: h.create_socket() for h in self.hosts}
        self.datagrams_sent = 0
        self.octets_sent = 0
        self._stopped = False
        self.sim.schedule(self.rng.expovariate(1.0 / self.mean_interval), self._send_one)

    def stop(self) -> None:
        self._stopped = True

    def _send_one(self) -> None:
        if self._stopped:
            return
        src = self.rng.choice(self.hosts)
        size = self.rng.randint(*self.PAYLOAD_RANGE)
        if self.rng.random() < self.BROADCAST_FRACTION:
            dst_ip = BROADCAST_IP
        else:
            candidates = [h for h in self.hosts if h is not src]
            dst_ip = self.rng.choice(candidates).primary_ip
        self._sockets[src.name].sendto(size, (dst_ip, self.CHATTER_PORT))
        self.datagrams_sent += 1
        self.octets_sent += size
        self.sim.schedule(self.rng.expovariate(1.0 / self.mean_interval), self._send_one)
