"""Shared probe result model: loss, jitter, and dispersion arithmetic.

Both probing modalities -- the RTT :class:`~repro.core.latency.PathProber`
(ECHO-based, paper §5 future work) and the one-way probe trains of
:mod:`repro.probe.train` -- reduce raw per-packet observations with the
same primitives, kept here so the two report identical numbers for
identical observations:

- **Sequence-gap loss accounting** (:func:`sequence_loss`): probes carry
  sequence numbers; loss is ``1 - received/sent`` with mid-train *gaps*
  (missing sequence numbers below the highest received one) separated
  from tail loss, which distinguishes congestive drops from a train cut
  short by a link failure.
- **RFC 3550 interarrival jitter** (:func:`interarrival_jitter`): the
  RTP receiver estimator ``J += (|D| - J) / 16`` over transit-time
  differences -- the figure iperf-style tools report for UDP flows.
- **Mean absolute consecutive difference**
  (:func:`mean_abs_consecutive`): the simpler RTT-jitter estimator the
  latency prober has always reported (kept for API stability).
- **Dispersion throughput** (:func:`dispersion_bps`): achievable
  bandwidth from a back-to-back packet train as bytes-after-the-first
  over the first..last arrival span, the packet-pair/train estimator.

All byte figures are *wire* bytes per second (payload + UDP/IP headers),
the same unit as the passive monitor's ``available_bps``, so the two
modalities are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro._numpy import np

#: RFC 3550 §6.4.1 gain: each transit difference moves the estimate 1/16.
RFC3550_GAIN = 1.0 / 16.0


def interarrival_jitter(
    transits_s: Sequence[float], gain: float = RFC3550_GAIN
) -> float:
    """RFC 3550 interarrival jitter over one-way transit times.

    ``J_i = J_{i-1} + (|D_{i-1,i}| - J_{i-1}) * gain`` where ``D`` is the
    difference of consecutive transit times.  Returns 0.0 with fewer than
    two observations.
    """
    jitter = 0.0
    previous: Optional[float] = None
    for transit in transits_s:
        if previous is not None:
            jitter += (abs(transit - previous) - jitter) * gain
        previous = transit
    return jitter


def mean_abs_consecutive(values_s: Sequence[float]) -> float:
    """Mean absolute difference of consecutive values (RTT jitter)."""
    arr = np.asarray(values_s, dtype=float)
    if len(arr) < 2:
        return 0.0
    return float(np.mean(np.abs(np.diff(arr))))


def sequence_loss(sent: int, received_seqs: Sequence[int]) -> Tuple[float, int]:
    """(loss_rate, mid-train gap count) from sequence-number accounting.

    ``gaps`` counts distinct missing sequence numbers *below* the highest
    received one -- losses the network ate mid-train, as opposed to a
    tail the train never delivered (timeout, link down).
    """
    if sent <= 0:
        return 0.0, 0
    distinct = set(int(s) for s in received_seqs)
    received = len(distinct)
    loss_rate = 1.0 - received / sent
    gaps = 0
    if distinct:
        highest = max(distinct)
        gaps = sum(1 for seq in range(highest) if seq not in distinct)
    return loss_rate, gaps


def dispersion_bps(
    arrivals_s: Sequence[float], wire_bytes_per_packet: int
) -> float:
    """Achievable throughput from a train's receiver-side dispersion.

    Bytes of every packet *after* the first divided by the first..last
    arrival span: the first packet opens the measurement window, the
    remaining ones fill it at the bottleneck's service rate.  NaN with
    fewer than two arrivals or a zero span.
    """
    if len(arrivals_s) < 2:
        return float("nan")
    span = max(arrivals_s) - min(arrivals_s)
    if span <= 0:
        return float("nan")
    return (len(arrivals_s) - 1) * wire_bytes_per_packet / span


@dataclass
class ProbeStats:
    """RTT statistics from one probing session."""

    sent: int
    received: int
    rtts_s: np.ndarray

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 0.0

    @property
    def min_s(self) -> float:
        return float(np.min(self.rtts_s)) if len(self.rtts_s) else float("nan")

    @property
    def mean_s(self) -> float:
        return float(np.mean(self.rtts_s)) if len(self.rtts_s) else float("nan")

    @property
    def max_s(self) -> float:
        return float(np.max(self.rtts_s)) if len(self.rtts_s) else float("nan")

    @property
    def jitter_s(self) -> float:
        """Mean absolute difference of consecutive RTTs (RFC 3550 style)."""
        return mean_abs_consecutive(self.rtts_s)


@dataclass(frozen=True)
class ProbeReport:
    """One probe train's end-to-end measurements for a path.

    The active-modality sibling of :class:`~repro.core.report.PathReport`:
    where the passive report infers per-connection figures from counters,
    this one states what a real train of packets *achieved* end to end.
    ``achievable_bps`` is wire bytes/second (same unit as the passive
    ``available_bps``); delays are one-way (the simulation's clocks are
    perfectly synchronised, so ``arrival - send`` needs no NTP caveats).
    """

    src: str
    dst: str
    time: float  # completion (sim seconds)
    sent: int
    received: int
    train_bytes: int  # wire bytes offered (payload + UDP/IP headers)
    warmup: int  # leading arrivals excluded from throughput/jitter
    achievable_bps: float  # receiver-side dispersion, wire bytes/s
    loss_rate: float
    gaps: int  # mid-train sequence gaps (vs tail loss)
    jitter_s: float  # RFC 3550 interarrival jitter
    delay_min_s: float
    delay_mean_s: float
    delay_max_s: float
    duration_s: float  # first..last arrival span

    @property
    def label(self) -> str:
        return f"{self.src}<->{self.dst}"

    @property
    def complete(self) -> bool:
        """True when every probe of the train arrived."""
        return self.received == self.sent

    @property
    def delivered(self) -> bool:
        """True when enough probes arrived to measure throughput."""
        return not np.isnan(self.achievable_bps)

    def summary(self) -> str:
        """One-line human-readable rendering for logs and examples."""
        if not self.delivered:
            return (
                f"[{self.time:9.3f}s] {self.label}: probe ABANDONED "
                f"({self.received}/{self.sent} arrived, loss {self.loss_rate:.0%})"
            )
        return (
            f"[{self.time:9.3f}s] {self.label}: probe achievable "
            f"{self.achievable_bps / 1000:8.1f} KB/s, loss {self.loss_rate:5.1%} "
            f"({self.gaps} gaps), jitter {self.jitter_s * 1e6:7.1f}us, "
            f"delay {self.delay_mean_s * 1e3:.3f}ms"
        )
