"""UDP probe trains: the active measurement primitive.

An iperf-style burst: :class:`ProbeTrain` sends a short train of
sequence-numbered, timestamped UDP datagrams back-to-back from a source
host to the :class:`ProbeSink` service on the destination.  The sink
records each probe's arrival; after a timeout window the train reduces
the arrivals to one :class:`~repro.probe.stats.ProbeReport`:

- **achievable throughput** from receiver-side dispersion (the train
  leaves the source back-to-back, so the spacing it arrives with is the
  bottleneck's service rate -- and under cross-traffic, the residual
  share the path can actually give a new flow);
- **one-way loss** by sequence-gap accounting;
- **RFC 3550 interarrival jitter** over one-way transit times.

Probe packets are DSCP-marked (:data:`PROBE_DSCP`, Expedited Forwarding)
so per-interface ToS counters can separate measurement traffic from
workload -- which is how probe load is held to its overhead budget
rather than perturbing what it measures.

The train *always* completes: the reducing callback is scheduled at
start, unconditionally, so lost probes, downed links, and dead hosts
yield a (lossy or abandoned) report after the timeout instead of a
wedged scheduler.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro._numpy import np
from repro.probe.stats import (
    ProbeReport,
    dispersion_bps,
    interarrival_jitter,
    sequence_loss,
)
from repro.simnet.host import Host
from repro.simnet.packet import IPV4_HEADER_SIZE, UDP_HEADER_SIZE

#: Well-known probe sink port (the classic iperf default).
PROBE_PORT = 5001
#: Probe traffic is marked Expedited Forwarding (DSCP 46).
PROBE_DSCP = 46
PROBE_TOS = PROBE_DSCP << 2
#: Arrivals trimmed from a train's front: they may reflect an empty-queue
#: transient rather than the path's steady service rate.
PROBE_WARMUP = 2

#: train_id (4) + sequence (4) + send time in microsecond ticks (8).
_HEADER_BYTES = 16
_WIRE_OVERHEAD = UDP_HEADER_SIZE + IPV4_HEADER_SIZE

_train_ids = itertools.count(1)


class ProbeError(ValueError):
    """Raised for malformed train parameters."""


def check_train(count: int, payload_size: int, timeout: float) -> None:
    """Raise :class:`ProbeError` unless these parameters make a train."""
    if count < PROBE_WARMUP + 2:
        raise ProbeError(
            f"a train needs at least two probes past its {PROBE_WARMUP} warm-up ones"
        )
    if payload_size < _HEADER_BYTES:
        raise ProbeError(f"payload_size must be >= {_HEADER_BYTES} bytes")
    if timeout <= 0:
        raise ProbeError(f"non-positive timeout {timeout!r}")


class ProbeSink:
    """Receiver side of the probe protocol: timestamp and file arrivals.

    Obtain via :meth:`ensure` -- a host runs at most one sink, on
    :data:`PROBE_PORT`, shared by every train aimed at it.  Arrival records are kept per
    train id from :meth:`watch` until the owning train collects them with
    :meth:`take`; a probe of a train nobody watches is counted and dropped.
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        self.socket = host.create_socket(PROBE_PORT)
        self.socket.on_receive = self._on_receive
        self.packets = 0
        self.octets = 0
        self.malformed = 0
        # train_id -> [(seq, sent_s, arrival_s)]
        self._records: Dict[int, List[Tuple[int, float, float]]] = {}
        # train_id -> (expected count, completion callback)
        self._watchers: Dict[int, Tuple[int, Callable[[], None]]] = {}

    @classmethod
    def ensure(cls, host: Host) -> "ProbeSink":
        """The host's probe sink, created on first use.  The host owns it:
        it is what the socket bound on :data:`PROBE_PORT` delivers to."""
        socket = host.bound(PROBE_PORT)
        sink = getattr(socket.on_receive, "__self__", None) if socket else None
        return sink if isinstance(sink, cls) else cls(host)

    def _on_receive(self, payload, size, src_ip, src_port) -> None:
        if payload is None or len(payload) < _HEADER_BYTES:
            self.malformed += 1
            return
        train_id = int.from_bytes(payload[0:4], "big")
        seq = int.from_bytes(payload[4:8], "big")
        sent_s = int.from_bytes(payload[8:16], "big") / 1e6
        self.packets += 1
        self.octets += size
        watcher = self._watchers.get(train_id)
        if watcher is None:
            return  # a straggler of a reduced train, or no train of ours
        records = self._records.setdefault(train_id, [])
        records.append((seq, sent_s, self.host.sim.now))
        if len(records) >= watcher[0]:
            del self._watchers[train_id]
            watcher[1]()

    def watch(
        self, train_id: int, expected: int, callback: Callable[[], None]
    ) -> None:
        """Invoke ``callback`` once ``expected`` probes of a train arrive."""
        self._watchers[train_id] = (expected, callback)

    def take(self, train_id: int) -> List[Tuple[int, float, float]]:
        """Collect (and forget) one train's arrival records."""
        self._watchers.pop(train_id, None)
        return self._records.pop(train_id, [])


class ProbeTrain:
    """One back-to-back probe burst from ``src`` towards ``dst``.

    The burst is handed to the source NIC in one go; the network paces
    it.  ``timeout`` seconds after the last send the train reduces
    whatever arrived (``on_complete(report)``); stragglers arriving
    later find no watcher, and the sink drops them.
    """

    def __init__(
        self,
        src: Host,
        dst: Host,
        count: int = 16,
        payload_size: int = 1472,
        timeout: float = 1.0,
        on_complete: Optional[Callable[[ProbeReport], None]] = None,
    ) -> None:
        check_train(count, payload_size, timeout)
        self.src = src
        self.dst = dst
        self.count = count
        self.payload_size = payload_size
        self.timeout = timeout
        self.on_complete = on_complete
        self.sim = src.sim
        self.train_id = next(_train_ids)
        self.sink = ProbeSink.ensure(dst)
        self.socket = src.create_socket()
        self.socket.tos = PROBE_TOS
        self.report: Optional[ProbeReport] = None
        self._started = False
        self._timer = None

    @property
    def wire_bytes_per_packet(self) -> int:
        return self.payload_size + _WIRE_OVERHEAD

    @property
    def train_bytes(self) -> int:
        """Wire bytes one train offers the network."""
        return self.count * self.wire_bytes_per_packet

    def start(self) -> None:
        """Emit the burst and arm the (unconditional) reduction timer."""
        if self._started:
            raise ProbeError("probe train already started")
        self._started = True
        # Finish early once every probe has arrived; the timeout stays
        # armed regardless, so a lossy train still completes.
        self.sink.watch(self.train_id, self.count, self._all_arrived)
        dst_ip = self.dst.primary_ip
        pad = b"\x00" * (self.payload_size - _HEADER_BYTES)
        for seq in range(self.count):
            payload = (
                self.train_id.to_bytes(4, "big")
                + seq.to_bytes(4, "big")
                + int(round(self.sim.now * 1e6)).to_bytes(8, "big")
                + pad
            )
            # A NIC tail-drop is simply a lost probe; sequence accounting
            # reports it, so the send result is deliberately ignored.
            self.socket.sendto(payload, (dst_ip, self.sink.socket.port))
        self._timer = self.sim.schedule(self.timeout, self._finish)

    def _all_arrived(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
        # Reduce on a fresh event, not inside the delivering NIC's frame.
        self.sim.schedule(0.0, self._finish)

    def _finish(self) -> None:
        if self.report is not None:
            return  # already reduced (early completion raced the timeout)
        records = sorted(self.sink.take(self.train_id), key=lambda r: r[2])
        self.socket.close()
        loss_rate, gaps = sequence_loss(self.count, [r[0] for r in records])
        # Warm-up trimming (PROBE_WARMUP).
        measured = records[PROBE_WARMUP:]
        transits = [arrival - sent for (_seq, sent, arrival) in measured]
        delays_all = [arrival - sent for (_seq, sent, arrival) in records]
        arrivals = [arrival for (_seq, _sent, arrival) in measured]
        self.report = ProbeReport(
            src=self.src.name,
            dst=self.dst.name,
            time=self.sim.now,
            sent=self.count,
            received=len(records),
            train_bytes=self.train_bytes,
            warmup=PROBE_WARMUP,
            achievable_bps=dispersion_bps(arrivals, self.wire_bytes_per_packet),
            loss_rate=loss_rate,
            gaps=gaps,
            jitter_s=interarrival_jitter(transits),
            delay_min_s=float(np.min(delays_all)) if delays_all else float("nan"),
            delay_mean_s=float(np.mean(delays_all)) if delays_all else float("nan"),
            delay_max_s=float(np.max(delays_all)) if delays_all else float("nan"),
            duration_s=(max(arrivals) - min(arrivals)) if len(arrivals) >= 2 else 0.0,
        )
        if self.on_complete is not None:
            self.on_complete(self.report)
