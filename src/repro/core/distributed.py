"""Fault-tolerant distributed network monitoring -- paper §5 future work.

One monitor polling every agent from one host (the paper's design) makes
that host's links a hot spot and scales linearly in one manager's request
load.  The distributed variant partitions the SNMP targets across several
*worker* hosts; each worker polls its share locally and ships the derived
rate samples to a *coordinator* host over the same simulated network.
The coordinator merges them into one
:class:`~repro.core.poller.RateTable` and computes path reports with
the single monitor's own report core.

The plane is built to survive its own failures, not just the network's:

**Worker liveness.**  Every worker ships periodic heartbeats (lease
renewals -- any datagram from a worker renews its lease); the coordinator
runs a :class:`~repro.core.health.WorkerLeaseTracker` per-worker state
machine (alive -> suspect -> dead -> recovering, with hysteresis on the
way back) and publishes transitions on the telemetry event bus.

**Reliable sample shipping.**  Samples travel in *sequenced, batched
report datagrams* in one wire format, the binary delta encoding of
:mod:`repro.core.deltas`: each worker stamps batches with a
per-incarnation monotonic sequence number and keeps a bounded
drop-oldest resend buffer.
The coordinator detects sequence gaps (from later batches, or from the
``next_seq`` carried by heartbeats), requests selective retransmits
(ARQ with capped retries and exponential backoff) and, when a gap is
unfillable, *marks the worker's counter sources degraded* in a
:class:`~repro.core.dataflow.DegradedSourceSet` so dependent path
reports drop to low confidence instead of presenting the last sample it
happened to see as current.  Duplicate and stale-incarnation batches are
discarded by sequence number, so retransmits and worker restarts never
double-count a sample.

**Automatic failover.**  When a lease expires the coordinator
repartitions the poll targets over the surviving workers
(affinity-first, deterministically) and ships each affected worker its
new assignment as real control traffic; when the worker recovers (and
holds its lease through the hysteresis window) the plane rebalances
back.  Assignments are versioned and carried to idempotent effect: each
heartbeat echoes the worker's applied version, and the coordinator
re-sends the assignment whenever the echo is stale -- lost control
datagrams heal themselves within a heartbeat.  A dead coordinator
cannot wedge a worker: shipping is fire-and-forget UDP and the resend
buffer is the only send-side state, bounded and drop-oldest.

**Integration.**  The coordinator's report half is the same
:class:`~repro.core.monitor.ReportCore` the single monitor has (watches
that follow topology epochs, streaming, probing, topology sync); ingest
routes through the :mod:`repro.integrity` pipeline (rate bounds and
quarantine apply to shipped samples exactly as to local polls), plane
state is exported as telemetry gauges and flat ``stats()`` keys, and
``repro distributed`` exercises the whole plane from the CLI.

Everything -- polls, responses, batches, heartbeats, retransmits,
assignments -- is real simulated traffic, so the monitoring system's own
footprint (and its failure modes) remain measurable.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from collections import OrderedDict
from math import isfinite
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.counters import required_poll_targets
from repro.core.dataflow import DegradedSourceSet
from repro.core.deltas import (
    DeltaBatch,
    DeltaDecoder,
    DeltaEncoder,
    DeltaError,
    is_delta,
    parse_delta,
)
from repro.core.health import LeaseTransition, WorkerLeaseTracker, WorkerState
from repro.core.monitor import ReportCore
from repro.core.poller import InterfaceRates, PollTarget, SnmpPoller
from repro.integrity import IntegrityConfig
from repro.simnet.address import IPv4Address
from repro.simnet.network import NetworkError
from repro.snmp.manager import SnmpManager
from repro.spec.builder import BuildResult
from repro.telemetry import Telemetry
from repro.telemetry.events import SAMPLE_GAP, WORKER_FAILOVER, WORKER_REBALANCE

logger = logging.getLogger("repro.distributed")

REPORT_PORT = 8765  # coordinator's sample/heartbeat sink
CONTROL_PORT = 8766  # each worker's assignment/retransmit listener

# Liveness and ARQ tuning: fixed ratios of the poll interval, not
# options.  They detect a dead worker in ~one poll interval (just over
# two missed heartbeats) so failover plus the adopters' re-baselining
# completes within three poll cycles.
HEARTBEAT_RATIO = 0.4  # heartbeat period / poll interval
LEASE_RATIO = 0.9  # lease timeout / poll interval
SUSPECT_RATIO = 0.55  # suspect threshold / lease timeout
RETX_BACKOFF_RATIO = 0.25  # first ARQ (and keyframe-request) backoff / poll interval
RECOVERY_BEATS = 2  # consecutive renewals before a dead worker is trusted again
RETX_MAX_ATTEMPTS = 3  # retransmit requests per gap before it is abandoned
# Batches a sender keeps for retransmission, drop-oldest; the receiver
# gives up at once on a missing seq further behind than this.
RESEND_BUFFER = 32


# ----------------------------------------------------------------------
# Control messages (JSON keeps them debuggable on the simulated wire;
# samples travel as binary delta batches, see repro.core.deltas)
# ----------------------------------------------------------------------
def encode_message(kind: str, **fields) -> bytes:
    """One control message: ``hb`` (``w, inc, q, av``: lease renewal;
    ``q``, the next seq, exposes trailing gaps and ``av`` lets the
    coordinator re-send a lost assignment), ``gone`` (``w, inc, seqs``),
    ``retx`` (``inc, seqs``), ``assign`` (``v, t``), ``kfreq`` (``inc``)."""
    return json.dumps({"k": kind, **fields}).encode()


#: What a handler reading fields out of a decoded message may raise on a
#: malformed one (missing key, wrong type, unparseable number).
_MALFORMED = (ValueError, KeyError, TypeError)


def _finite(text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"non-finite number {text!r}")  # 1e400: int() overflows
    return value


def decode_message(payload: bytes) -> Dict[str, object]:
    """Decode a control message; the ``"k"`` key discriminates.

    Raises ``ValueError`` on anything that is not a JSON object with a
    ``"k"`` key, and on non-finite numbers (``Infinity``, ``NaN``,
    ``1e400``), which ``json`` accepts but no field of the plane means.
    """
    doc = json.loads(payload.decode(), parse_float=_finite, parse_constant=_finite)
    if not isinstance(doc, dict) or "k" not in doc:
        raise ValueError(f"not a plane message: {payload[:64]!r}")
    return doc


def _targets_doc(targets: Sequence[PollTarget]) -> List[Dict[str, object]]:
    return [
        {"n": t.node, "ifs": list(t.if_indexes), "c": t.community} for t in targets
    ]


def _targets_from_doc(network, docs: Sequence[Dict[str, object]]) -> List[PollTarget]:
    """Inverse of :func:`_targets_doc` (addresses come from the network);
    ``ValueError`` when a target names a node the network does not have."""
    try:
        return [
            PollTarget(
                node=t["n"],
                address=network.ip_of(t["n"]),
                if_indexes=[int(i) for i in t["ifs"]],
                community=str(t["c"]),
            )
            for t in docs
        ]
    except NetworkError as exc:
        raise ValueError(str(exc)) from None


# ----------------------------------------------------------------------
# Send-side shipping (shared by workers and leaf coordinators)
# ----------------------------------------------------------------------
class SampleShipper:
    """Sequenced, batched, delta-encoded sample shipping.

    Owns the per-incarnation monotonic sequence number, the bounded
    drop-oldest resend buffer, and the
    :class:`~repro.core.deltas.DeltaEncoder` (``delta``) whose
    last-shipped tracking turns quiescent batches into a few bytes per
    interface.  ``send`` is the owner's transmit function, so the same
    shipper serves a worker shipping to its coordinator and a leaf
    coordinator shipping to the hierarchy root.  ``bytes_shipped`` over
    ``samples_shipped`` is the uplink's cost per sample.
    """

    def __init__(
        self,
        name: str,
        send: Callable[[bytes], None],
        max_batch: int = 8,
        keyframe_every: int = 16,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self.name = name
        self.send = send
        self.max_batch = max_batch
        self.incarnation = 1
        self.next_seq = 1
        self._pending: List[InterfaceRates] = []
        self._resend: "OrderedDict[int, bytes]" = OrderedDict()
        self.delta = DeltaEncoder(name)
        self.keyframe_every = keyframe_every
        self._since_keyframe = 0
        self.samples_shipped = 0
        self.batches_shipped = 0
        self.bytes_shipped = 0
        self.keyframes_shipped = 0
        self.retransmits_served = 0
        self.retransmits_missed = 0

    def enqueue(self, *samples: InterfaceRates) -> Sequence[InterfaceRates]:
        """Queue samples, shipping a batch each time ``max_batch`` fills,
        and return them: a sink (see :class:`SampleIngest`) that accepts
        everything.  A worker's poller hands over one sample at a time, a
        leaf's ingest a delivered batch whole -- cut at the same
        boundaries either way."""
        pending = self._pending
        pending.extend(samples)
        while len(pending) >= self.max_batch:
            self._ship(pending[: self.max_batch])
            del pending[: self.max_batch]
        return samples

    def flush(self) -> None:
        """Ship whatever is queued (the linger timer: a partial batch)."""
        if self._pending:
            samples, self._pending = self._pending, []
            self._ship(samples)

    def _ship(self, samples: List[InterfaceRates]) -> None:
        seq = self.next_seq
        self.next_seq += 1
        due = (
            self.keyframe_every > 0
            and self._since_keyframe + 1 >= self.keyframe_every
        )
        payload = self.delta.encode(self.incarnation, seq, samples, keyframe=due)
        if payload[1] & 0x01:  # the encoder may also have had one pending
            self._since_keyframe = 0
            self.keyframes_shipped += 1
        else:
            self._since_keyframe += 1
        self.samples_shipped += len(samples)
        self.batches_shipped += 1
        self.bytes_shipped += len(payload)
        self._resend[seq] = payload
        while len(self._resend) > RESEND_BUFFER:
            self._resend.popitem(last=False)  # drop-oldest: bounded memory
        self.send(payload)

    def serve_retransmit(self, doc: Dict[str, object]) -> None:
        incarnation, seqs = int(doc["inc"]), [int(s) for s in doc["seqs"]]
        if incarnation != self.incarnation:
            return  # request addresses a previous life of this sender
        gone: List[int] = []
        for seq in seqs:
            payload = self._resend.get(seq)
            if payload is None:
                gone.append(seq)  # evicted from the bounded buffer
                self.retransmits_missed += 1
            else:
                self.retransmits_served += 1
                self.send(payload)
        if gone:
            self.send(
                encode_message("gone", w=self.name, inc=self.incarnation, seqs=gone)
            )

    def reset(self, incarnation: int) -> None:
        """The owning process restarted: new incarnation, fresh state."""
        self.incarnation = incarnation
        self.next_seq = 1
        self._pending.clear()
        self._resend.clear()
        self._since_keyframe = 0
        self.delta.reset()


# ----------------------------------------------------------------------
# Uplink endpoints: the sending end of one sample stream
# ----------------------------------------------------------------------
class UplinkEndpoint:
    """What a polling worker and a leaf coordinator have in common.

    Samples handed to the shipper accumulate into batches (flushed
    when ``max_batch`` fills or every ``batch_linger`` seconds) and are
    shipped upstream with a per-incarnation monotonic sequence number;
    periodic heartbeats renew the lease and echo the applied assignment
    version; a control listener serves ``retx`` / ``assign`` / ``kfreq``.
    ``crash()``/``restart()`` simulate the process dying and coming back
    (used by :class:`~repro.simnet.faults.WorkerCrash`): a restarted
    endpoint bumps its incarnation, restarts its sequence at 1, and
    advertises assignment version 0 so upstream ships the current
    assignment back.

    Subclasses supply where the samples come from, through two hooks:
    :meth:`_rebuild` (bring the source back after a restart) and
    :meth:`_apply_targets` (a new target list arrived), and extend
    :meth:`_begin_tasks` / :meth:`_teardown` to run and halt it.
    ``poller.targets`` is the applied target list either way.
    ``shipping`` is :class:`SampleShipper`'s ``max_batch`` /
    ``keyframe_every``.
    """

    def __init__(
        self,
        build: BuildResult,
        host_name: str,
        upstream_ip: IPv4Address,
        poll_interval: float,
        **shipping,
    ) -> None:
        self.build = build
        self.name = host_name
        self.host = build.network.host(host_name)
        self.sim = self.host.sim
        self.upstream_ip = upstream_ip
        self.poll_interval = poll_interval
        self.heartbeat_interval = poll_interval * HEARTBEAT_RATIO
        self.batch_linger = poll_interval * 0.25
        # Shipping (sequencing, resend buffer, delta encoding) lives in
        # the shipper: the only send-side state, bounded, so a
        # dead upstream can never wedge this endpoint.
        self.shipper = SampleShipper(host_name, self._send_report, **shipping)
        self.assign_version = 0
        self.crashed = False
        self._started = False
        self._tasks: list = []  # heartbeat + linger flush while running
        self._open_sockets()

    @property
    def incarnation(self) -> int:
        return self.shipper.incarnation

    # -- hooks -----------------------------------------------------------
    def _rebuild(self) -> None:
        """Bring the sample source back, empty, after a restart."""
        raise NotImplementedError

    def _apply_targets(self, targets: List[PollTarget]) -> None:
        raise NotImplementedError

    # -- construction / teardown ----------------------------------------
    def _open_sockets(self) -> None:
        self._report_socket = self.host.create_socket()
        self._control_socket = self.host.create_socket(CONTROL_PORT)
        self._control_socket.on_receive = self._on_control

    def _send_report(self, payload: bytes) -> None:
        self._report_socket.sendto(payload, (self.upstream_ip, REPORT_PORT))

    def _begin_tasks(self) -> None:
        if self.crashed:
            return  # crashed before the scheduled start; restart() re-runs this
        start = self.sim.now
        self._tasks = [
            self.sim.call_every(self.heartbeat_interval, self._heartbeat, start=start),
            self.sim.call_every(
                self.batch_linger, self._flush, start=start + self.batch_linger
            ),
        ]

    def _teardown(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks = []
        # Close the sockets so the host's ports are reusable (a stopped
        # or crashed plane must be restartable on the same host).
        self._report_socket.close()
        self._control_socket.close()

    # -- lifecycle ------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        self._started = True
        if at is None or at <= self.sim.now:
            self._begin_tasks()
        else:
            self.sim.schedule_at(at, self._begin_tasks)

    def stop(self) -> None:
        self._started = False
        if not self.crashed:
            self._teardown()

    def crash(self) -> None:
        """The process dies: no samples, no heartbeats, no shipping."""
        if self.crashed:
            return
        self.crashed = True
        self._teardown()

    def restart(self) -> None:
        """The process comes back: new incarnation, sequence restarts at
        1, the resend buffer is gone, and assignment version 0 makes
        upstream re-ship the current assignment."""
        if not self.crashed:
            return
        self.crashed = False
        self.shipper.reset(self.shipper.incarnation + 1)
        self.assign_version = 0
        self._open_sockets()
        self._rebuild()
        if self._started:
            self._begin_tasks()

    # -- shipping --------------------------------------------------------
    def _flush(self) -> None:
        if self.crashed:
            return
        self.shipper.flush()

    def _heartbeat(self) -> None:
        if self.crashed:
            return
        self._send_report(
            encode_message(
                "hb", w=self.name, inc=self.incarnation,
                q=self.shipper.next_seq, av=self.assign_version,
            )
        )

    # -- control ---------------------------------------------------------
    def _on_control(self, payload, size, src_ip, src_port) -> None:
        if payload is None or self.crashed:
            return
        try:
            doc = decode_message(payload)
            kind = doc["k"]
            if kind == "retx":
                self.shipper.serve_retransmit(doc)
            elif kind == "assign":
                self._apply_assignment(doc)
            elif kind == "kfreq":
                # The receiver lost delta context: re-state everything
                # with the next flush.
                self.shipper.delta.force_keyframe()
        except _MALFORMED:
            return  # malformed control traffic: ignore, nothing applied

    def _apply_assignment(self, doc: Dict[str, object]) -> None:
        version = int(doc["v"])
        if version <= self.assign_version:
            return  # duplicate or out-of-date assignment: idempotent drop
        targets = _targets_from_doc(self.build.network, doc["t"])
        self.assign_version = version
        logger.info(
            "%s applied assignment v%d: %s",
            self.name, version, sorted(t.node for t in targets),
        )
        self._apply_targets(targets)


class MonitorWorker(UplinkEndpoint):
    """One polling worker: manager + poller + shipping on its own host.

    A restarted worker has lost its counter baselines and rejoins with
    *no* poll targets until the coordinator re-assigns.
    """

    def __init__(
        self,
        build: BuildResult,
        host_name: str,
        targets: Sequence[PollTarget],
        coordinator_ip: IPv4Address,
        poll_interval: float,
        jitter: float,
        seed: int,
        pipeline_window: int,
        **shipping,
    ) -> None:
        super().__init__(build, host_name, coordinator_ip, poll_interval, **shipping)
        # Every life of this worker polls the same way: GetBulk column
        # walks, at most ``pipeline_window`` agents in flight.
        self._poller_options = dict(
            interval=poll_interval, jitter=jitter, seed=seed,
            poll_mode="bulk", pipeline_window=pipeline_window,
        )
        self._rebuild(targets)

    @property
    def requests_sent(self) -> int:
        return self.manager.requests_sent

    def _rebuild(self, targets: Sequence[PollTarget] = ()) -> None:
        self.manager = SnmpManager(self.host)
        self.poller = SnmpPoller(self.manager, targets, **self._poller_options)
        # A worker keeps no table of its own: every sample leaves on the uplink.
        self.poller.on_sample = self.shipper.enqueue

    def _begin_tasks(self) -> None:
        if not self.crashed:
            self.poller.start(first_poll_at=self.sim.now)
        super()._begin_tasks()

    def _teardown(self) -> None:
        self.poller.stop()
        super()._teardown()
        self.manager.cancel_all()  # drop in-flight polls so nothing ships late
        self.manager.socket.close()

    def _apply_targets(self, targets: List[PollTarget]) -> None:
        added = {t.node for t in targets} - {t.node for t in self.poller.targets}
        self.poller.targets[:] = targets
        if added:
            # Adopted targets have no counter baselines here: poll once
            # immediately to establish them and once again shortly after
            # so a rate sample exists ~one short interval later, instead
            # of waiting up to two full poll cycles.
            self.poller._poll_cycle()
            self.sim.schedule(self.poll_interval * 0.5, self._adoption_poll)

    def _adoption_poll(self) -> None:
        if not self.crashed and self._started:
            self.poller._poll_cycle()


# ----------------------------------------------------------------------
# Coordinator-side ingest bookkeeping
# ----------------------------------------------------------------------
@dataclasses.dataclass(slots=True)
class _Gap:
    """One missing batch sequence number under ARQ."""

    seq: int
    next_retry: float  # first request goes out at once
    attempts: int = 0


@dataclasses.dataclass(slots=True, eq=False)
class _WorkerIngest:
    """Per-stream sequencing state on the receiving coordinator.

    The reorder buffer holds batches parsed statelessly at arrival (so
    malformed ones surface as decode errors there); the stateful
    :class:`~repro.core.deltas.DeltaDecoder` applies them only at
    in-order delivery, because applying out of order would corrupt the
    decoder's last-sample context.
    """

    name: str
    anchored: bool = True  # False: adopt the first observed seq
    incarnation: int = 0  # adopts the worker's on first contact
    expected: int = 1  # next in-order batch seq
    #: seq -> out-of-order batch
    buffer: Dict[int, DeltaBatch] = dataclasses.field(default_factory=dict)
    gaps: Dict[int, _Gap] = dataclasses.field(default_factory=dict)
    delta: DeltaDecoder = dataclasses.field(default_factory=DeltaDecoder)
    kfreq_after: float = 0.0  # earliest next keyframe request

    def reset_for(self, incarnation: int) -> None:
        self.incarnation = incarnation
        self.expected = 1
        self.anchored = True  # a fresh incarnation numbers from 1
        self.buffer.clear()
        self.gaps.clear()
        self.delta.reset()


class SampleIngest:
    """The receiving end of the plane: workers, leases, ARQ, assignments.

    Owns the worker endpoints on ``worker_hosts`` and the coordinator
    sockets on ``coordinator_host``; the samples of every batch that
    arrives in sequence are handed to ``sink(*samples)`` together, in
    order, and it returns those it accepted.
    Target assignment is affinity-first (a worker polling itself costs
    loopback only) with the rest round-robined deterministically; the
    same partitioning function re-runs over the surviving workers on
    every lease expiry and recovery, so failover and failback are one
    mechanism.  A :class:`DistributedMonitor` *is* one of these feeding
    its own rate table; a leaf coordinator composes one feeding its
    uplink.
    """

    def __init__(
        self,
        build: BuildResult,
        coordinator_host: str,
        worker_hosts: Sequence[str],
        sink: Callable[..., Sequence[InterfaceRates]],
        telemetry: Telemetry,
        poll_interval: float = 2.0,
        poll_jitter: float = 0.05,
        seed: int = 0,
        pipeline_window: int = 8,
        targets: Optional[Sequence[PollTarget]] = None,
        adopt_streams: bool = False,
        **shipping,
    ) -> None:
        """``pipeline_window`` bounds each worker's in-flight polls;
        ``shipping`` (:class:`SampleShipper`'s ``max_batch`` /
        ``keyframe_every``) reaches every endpoint under this
        coordinator.  Lease, heartbeat and ARQ timing are not options:
        they are the module's fixed ratios of ``poll_interval``."""
        if not worker_hosts:
            raise ValueError("need at least one worker host")
        self.build = build
        self.spec = build.spec
        self.network = build.network
        self.sim = self.network.sim
        self.sink = sink
        self.telemetry = telemetry
        self.poll_interval = poll_interval
        self.poll_jitter = poll_jitter
        self.seed = seed
        self.adopt_streams = adopt_streams
        self._suspended = False
        self.coordinator = self.network.host(coordinator_host)
        self.heartbeat_interval = poll_interval * HEARTBEAT_RATIO
        self.retx_backoff = poll_interval * RETX_BACKOFF_RATIO
        # What every endpoint under this coordinator is built with.
        self._endpoint_options = dict(shipping, pipeline_window=pipeline_window)
        self.degraded = DegradedSourceSet()
        lease_timeout = poll_interval * LEASE_RATIO
        self.leases = WorkerLeaseTracker(
            lease_timeout=lease_timeout,
            suspect_after=lease_timeout * SUSPECT_RATIO,
            recovery_beats=RECOVERY_BEATS,
            events=self.telemetry.events,
        )
        self.leases.subscribe(self._on_lease_transition)
        self._sweep_task = None
        self._open_sockets()

        self._worker_order = list(worker_hosts)
        #: The poll-target pool partitioned over the workers.
        self.targets: List[PollTarget] = (
            list(targets) if targets is not None else self._derive_pool()
        )
        assignments = self._partition(self._worker_order)
        self.workers: Dict[str, UplinkEndpoint] = {
            name: self._make_worker(name, assignments.get(name, []), i)
            for i, name in enumerate(self._worker_order)
        }
        # Assignment bookkeeping: desired targets and version per worker.
        # Workers constructed with their initial share already hold
        # version 1 semantics; seed their counters to match so the first
        # heartbeat does not trigger a redundant re-send.
        self._assignments: Dict[str, List[PollTarget]] = {
            name: list(assignments.get(name, [])) for name in self._worker_order
        }
        self._assign_version: Dict[str, int] = {}
        for name, worker in self.workers.items():
            worker.assign_version = 1
            self._assign_version[name] = 1
        self._ingest: Dict[str, _WorkerIngest] = {
            name: _WorkerIngest(name, anchored=not self.adopt_streams)
            for name in self._worker_order
        }
        for name in self._worker_order:
            self.leases.register(name, self.sim.now)
        self._register_metrics()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _counter(self, key: str, help_text: str):
        """The ``dist_<key>_total`` counter, reported by :meth:`stats`."""
        self._stat_counters.append(key)
        return self.telemetry.registry.counter(f"dist_{key}_total", help_text)

    def _register_metrics(self) -> None:
        registry = self.telemetry.registry
        self._stat_counters: List[str] = []  # stats() key -> dist_<key>_total
        c = self._counter
        self._m_samples = c("samples_received", "samples merged into the rate table")
        self._m_batches = c("batches_received", "sequenced report batches delivered")
        self._m_decode_errors = c("decode_errors", "undecodable plane datagrams")
        self._m_duplicates = c("duplicate_batches", "batches dropped by sequence dedup")
        self._m_gaps = c("gaps_detected", "batch sequence gaps detected")
        self._m_gaps_filled = c("gaps_filled", "gaps closed by retransmission")
        self._m_gaps_abandoned = c("gaps_abandoned", "gaps given up after ARQ caps")
        self._m_retx = c("retx_requests", "selective retransmit requests sent")
        self._m_kfreq = c("keyframe_requests", "delta keyframe requests sent")
        self._m_failovers = c("failovers", "lease expiries that moved poll targets")
        self._m_rebalances = c("rebalances", "recoveries that moved poll targets back")
        for state in WorkerState:
            registry.gauge(
                f"dist_workers_{state.value}",
                f"monitor workers currently in the {state.value} lease state",
            ).set_function(lambda s=state: float(self.leases.count(s)))
        registry.gauge(
            "dist_degraded_sources",
            "counter sources currently marked lossy by the plane",
        ).set_function(lambda: float(len(self.degraded)))

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _make_worker(
        self, name: str, targets: List[PollTarget], index: int
    ) -> UplinkEndpoint:
        """Construct one polling worker (the hierarchy root overrides
        this to construct leaf coordinators instead)."""
        return MonitorWorker(
            self.build,
            name,
            targets,
            self.coordinator.primary_ip,
            self.poll_interval,
            self.poll_jitter,
            seed=self.seed + index,
            **self._endpoint_options,
        )

    def _derive_pool(self) -> List[PollTarget]:
        """Every poll target the topology needs (the default pool)."""
        needed = required_poll_targets(self.spec, list(self.spec.connections))
        return [
            PollTarget(
                node=node_name,
                address=self.network.ip_of(node_name),
                if_indexes=if_indexes,
                community=self.spec.node(node_name).snmp_community,
            )
            for node_name, if_indexes in sorted(needed.items())
        ]

    def _affinity(self, target: PollTarget) -> Optional[str]:
        """Preferred owner of ``target`` (polling thyself costs loopback
        only); the hierarchy root overrides this with its shard plan."""
        return target.node

    def _partition(self, worker_hosts: List[str]) -> Dict[str, List[PollTarget]]:
        """Deterministic affinity-first assignment over ``worker_hosts``.

        A target whose affinity names a listed worker goes to that
        worker; the rest round-robin over the workers in the given
        order.  Same inputs, same map -- this is also the
        failover/failback function, re-run over the survivors.
        """
        assignments: Dict[str, List[PollTarget]] = {w: [] for w in worker_hosts}
        leftovers: List[PollTarget] = []
        for target in sorted(self.targets, key=lambda t: t.node):
            preferred = self._affinity(target)
            if preferred in assignments:
                assignments[preferred].append(target)
            else:
                leftovers.append(target)
        for i, target in enumerate(leftovers):
            assignments[worker_hosts[i % len(worker_hosts)]].append(target)
        return assignments

    def set_target_pool(self, targets: Sequence[PollTarget]) -> None:
        """Replace the poll-target pool and repartition over the live
        workers (the hierarchy root resizes a leaf's shard this way)."""
        self.targets = list(targets)
        self._rebalance(reason="rebalance", about="pool")

    def targets_of(self, worker: str) -> List[str]:
        return [t.node for t in self.workers[worker].poller.targets]

    def assigned_targets_of(self, worker: str) -> List[str]:
        """The coordinator's *intended* assignment (vs. the worker's
        applied one in :meth:`targets_of`)."""
        return [t.node for t in self._assignments.get(worker, [])]

    # ------------------------------------------------------------------
    # Failover / failback
    # ------------------------------------------------------------------
    def _on_lease_transition(self, transition: LeaseTransition) -> None:
        if transition.new is WorkerState.DEAD:
            # Everything the dead worker was responsible for is now
            # known-lossy until a survivor's samples land.
            self._mark_degraded(transition.worker)
            self._rebalance(reason="failover", about=transition.worker)
        elif (
            transition.new is WorkerState.ALIVE
            and transition.old is WorkerState.RECOVERING
        ):
            self._rebalance(reason="rebalance", about=transition.worker)

    def _mark_degraded(self, worker: str) -> None:
        for target in self._assignments.get(worker, []):
            for if_index in target.if_indexes:
                self.degraded.mark(target.node, if_index)

    def _live_workers(self) -> List[str]:
        return [
            w
            for w in self._worker_order
            if self.leases.state(w) is not WorkerState.DEAD
        ]

    def _rebalance(self, reason: str, about: str) -> None:
        """Repartition over the live workers and ship changed assignments."""
        live = self._live_workers()
        if not live:
            logger.warning("no live workers left; keeping assignments frozen")
            return
        desired = self._partition(live)
        moved: List[str] = []
        for name in self._worker_order:
            new = desired.get(name, [])
            if [t.node for t in new] == [t.node for t in self._assignments[name]]:
                continue
            self._assignments[name] = list(new)
            moved.append(name)
            if self.leases.state(name) is not WorkerState.DEAD:
                self._send_assignment(name)
        if reason == "failover":
            self._m_failovers.inc()
        else:
            self._m_rebalances.inc()
        self.telemetry.events.publish(
            WORKER_FAILOVER if reason == "failover" else WORKER_REBALANCE,
            self.sim.now,
            worker=about,
            reassigned={n: self.assigned_targets_of(n) for n in moved},
        )
        logger.warning(
            "%s around worker %s: new assignment %s",
            reason, about,
            {n: self.assigned_targets_of(n) for n in self._worker_order},
        )

    def _send_assignment(self, worker: str) -> None:
        self._assign_version[worker] += 1
        self._send_control(
            worker, "assign", v=self._assign_version[worker],
            t=_targets_doc(self._assignments[worker]),
        )

    def _send_control(self, worker: str, kind: str, **fields) -> None:
        self._control.sendto(
            encode_message(kind, **fields), (self.network.ip_of(worker), CONTROL_PORT)
        )

    # ------------------------------------------------------------------
    # Sample ingestion (sequenced, deduplicated, integrity-checked)
    # ------------------------------------------------------------------
    def _on_datagram(self, payload, size, src_ip, src_port) -> None:
        if payload is None:
            self._m_decode_errors.inc()
            return
        if is_delta(payload):
            self._on_delta(payload)
            return
        try:
            doc = decode_message(payload)
            kind = doc["k"]
            if kind == "hb":
                self._on_heartbeat(doc)
            elif kind == "gone":
                self._on_gone(doc)
            else:
                self._m_decode_errors.inc()
        except _MALFORMED:
            self._m_decode_errors.inc()  # dropped whole: no state touched

    def _ingest_state(self, worker: str, incarnation: int) -> Optional[_WorkerIngest]:
        state = self._ingest.get(worker)
        if state is None:
            return None  # unknown sender: not one of our workers
        # Any datagram from a known worker renews its lease.
        self.leases.beat(worker, self.sim.now)
        if incarnation < state.incarnation:
            return None  # straggler from a previous life: drop
        if incarnation > state.incarnation:
            # The worker restarted: its sequence space starts over.
            state.reset_for(incarnation)
        return state

    def _on_delta(self, payload: bytes) -> None:
        """Sample batch: parse statelessly now, apply the stateful
        decoder only at in-order delivery."""
        try:
            batch = parse_delta(payload)
        except DeltaError:
            self._m_decode_errors.inc()
            return
        state = self._ingest_state(batch.worker, batch.incarnation)
        if state is None:
            return
        seq = batch.seq
        if not state.anchored:
            # Adopting a mid-flight stream (coordinator resume): accept
            # from here instead of demanding retransmits back to seq 1;
            # the stream heals its decoder via keyframe request.
            state.anchored = True
            state.expected = seq
        if seq < state.expected or seq in state.buffer:
            self._m_duplicates.inc()
            return  # retransmit overshoot or duplicate: sequence dedup
        state.buffer[seq] = batch
        if seq == state.expected:
            self._drain(state)
        else:
            self._note_gaps(state, upto=seq)

    def _on_heartbeat(self, doc: Dict[str, object]) -> None:
        # Every field is read before the first side effect (the lease
        # renewal in _ingest_state): a malformed heartbeat changes nothing.
        worker, incarnation = doc["w"], int(doc["inc"])
        next_seq, applied = int(doc["q"]), int(doc.get("av", 0))
        state = self._ingest_state(worker, incarnation)
        if state is None:
            return
        if not state.anchored:
            state.anchored = True
            state.expected = next_seq
        # ``q`` is the seq the *next* batch will carry: anything below it
        # that we have not seen was shipped and lost with nothing after
        # it to reveal the gap -- a trailing gap only liveness traffic
        # can expose.
        self._note_gaps(state, upto=next_seq)
        # Self-healing control: a stale applied-version echo means the
        # last assignment datagram was lost; ship it again.
        if applied != self._assign_version.get(worker, 0):
            if self.leases.state(worker) is not WorkerState.DEAD:
                self._send_assignment(worker)

    def _on_gone(self, doc: Dict[str, object]) -> None:
        """The worker evicted requested batches: those gaps are unfillable."""
        worker, incarnation = doc["w"], int(doc["inc"])
        seqs = [int(s) for s in doc["seqs"]]
        state = self._ingest_state(worker, incarnation)
        if state is None:
            return
        for seq in seqs:
            gap = state.gaps.get(seq)
            if gap is not None:
                gap.attempts = RETX_MAX_ATTEMPTS  # abandon at next sweep
                gap.next_retry = self.sim.now

    def _note_gaps(self, state: _WorkerIngest, upto: int) -> None:
        """Register ARQ gaps for every missing seq in [expected, upto).

        Only the newest :data:`RESEND_BUFFER` seqs can still be resent;
        anything missing further behind ``upto`` is given up at once, by
        count, so a far-ahead seq costs O(window), not O(jump).
        """
        horizon = upto - RESEND_BUFFER
        if state.expected < horizon:
            first = state.expected
            held = sorted(seq for seq in state.buffer if seq < horizon)
            known = [seq for seq in state.gaps if seq < horizon]
            lost = horizon - first - len(held)
            self._m_gaps.inc(lost - len(known))
            for seq in known:
                del state.gaps[seq]
            state.expected = horizon
            self._abandoned(state, lost, first=first, upto=horizon)
            for seq in held:
                self._deliver(state, state.buffer.pop(seq))
            self._drain(state)
        new_gaps = [
            seq
            for seq in range(state.expected, upto)
            if seq not in state.buffer and seq not in state.gaps
        ]
        if not new_gaps:
            return
        for seq in new_gaps:
            state.gaps[seq] = _Gap(seq, self.sim.now)
            self._m_gaps.inc()
        self._publish_gap(state, "detected", seqs=new_gaps)
        self._request_retransmits(state)

    def _publish_gap(self, state: _WorkerIngest, action: str, **which) -> None:
        self.telemetry.events.publish(
            SAMPLE_GAP, self.sim.now, worker=state.name, action=action, **which
        )

    def _request_retransmits(self, state: _WorkerIngest) -> None:
        """Ask the worker for every currently-due gap, one datagram."""
        now = self.sim.now
        due = [g for g in state.gaps.values() if g.next_retry <= now
               and g.attempts < RETX_MAX_ATTEMPTS]
        if not due:
            return
        for gap in due:
            gap.attempts += 1
            # Exponential backoff, capped by the attempt limit.
            gap.next_retry = now + self.retx_backoff * (2 ** (gap.attempts - 1))
        self._m_retx.inc()
        self._send_control(
            state.name, "retx", inc=state.incarnation,
            seqs=sorted(g.seq for g in due),
        )

    def _drain(self, state: _WorkerIngest) -> None:
        while state.expected in state.buffer:
            batch = state.buffer.pop(state.expected)
            gap = state.gaps.pop(state.expected, None)
            if gap is not None and gap.attempts > 0:
                self._m_gaps_filled.inc()
            self._deliver(state, batch)
            state.expected += 1

    def _abandon_front_gaps(self, state: _WorkerIngest) -> None:
        """Give up on head-of-line gaps whose ARQ budget is spent."""
        abandoned: List[int] = []
        while True:
            gap = state.gaps.get(state.expected)
            if gap is None or gap.attempts < RETX_MAX_ATTEMPTS:
                break
            if gap.next_retry > self.sim.now:
                break  # the last retransmit may still be in flight
            state.gaps.pop(state.expected)
            abandoned.append(state.expected)
            state.expected += 1
            self._drain(state)
        if abandoned:
            self._abandoned(state, len(abandoned), seqs=abandoned)

    def _abandoned(self, state: _WorkerIngest, count: int, **which) -> None:
        """``count`` batches (``seqs``, or the range ``[first, upto)``)
        of this stream are lost for good."""
        self._m_gaps_abandoned.inc(count)
        # The lost batches carried samples for *some* of this worker's
        # interfaces; without them we cannot know which, so every counter
        # source currently assigned to the worker is marked lossy until a
        # fresh sample clears it.
        self._mark_degraded(state.name)
        # A delta stream cannot advance over a hole: its per-interface
        # context is now stale, so drop rate-only records until the
        # sender re-states everything with a keyframe.
        state.delta.mark_desync()
        self._request_keyframe(state)
        self._publish_gap(state, "abandoned", **which)

    def _request_keyframe(self, state: _WorkerIngest) -> None:
        """Ask a delta sender to re-state its full universe; rate-limited
        so a desynced stream sends one request per backoff window, not
        one per arriving batch."""
        now = self.sim.now
        if now < state.kfreq_after:
            return
        state.kfreq_after = now + self.retx_backoff
        self._m_kfreq.inc()
        self._send_control(state.name, "kfreq", inc=state.incarnation)

    def _deliver(self, state: _WorkerIngest, batch: DeltaBatch) -> None:
        samples = state.delta.apply(batch)
        if state.delta.needs_keyframe:
            self._request_keyframe(state)
        self._m_batches.inc()
        # Rejected or quarantined samples never reach the table.
        accepted = self.sink(*samples)
        if accepted:
            self._m_samples.inc(len(accepted))
            if self.degraded:
                # Fresh in-order data for these sources: no longer known-lossy.
                for sample in accepted:
                    self.degraded.clear(sample.node, sample.if_index)

    # ------------------------------------------------------------------
    # Periodic sweep: lease expiry + ARQ retries/abandonment
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        self.leases.check(self.sim.now)
        for state in self._ingest.values():
            if self.leases.state(state.name) is WorkerState.DEAD:
                continue  # no point retransmit-nagging a dead worker
            self._request_retransmits(state)
            self._abandon_front_gaps(state)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _open_sockets(self) -> None:
        self._sink = self.coordinator.create_socket(REPORT_PORT)
        self._sink.on_receive = self._on_datagram
        self._control = self.coordinator.create_socket()  # retx/assign sender

    def _begin_sweeps(self, at: float) -> None:
        self._sweep_task = self.sim.call_every(
            self.heartbeat_interval * 0.5,
            self._sweep,
            start=at + self.heartbeat_interval,
        )

    def start(self, at: Optional[float] = None) -> None:
        start = self.sim.now if at is None else at
        for worker in self.workers.values():
            worker.start(at=start)
        self._begin_sweeps(start)

    def stop(self) -> None:
        """Stop the workers and release every socket (coordinator
        included), so a new plane can be built on the same hosts."""
        for worker in self.workers.values():
            worker.stop()
        self.suspend()

    def suspend(self) -> None:
        """The coordinator *process* stops (crash simulation): its
        sockets close and its sweeps stop, but the workers -- separate
        processes on separate hosts -- keep polling and shipping into
        the void.  Assignment state survives as the recovering
        process's warm state; per-stream ingest state does not, and is
        rebuilt on :meth:`resume`."""
        if self._suspended:
            return
        self._suspended = True
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            self._sweep_task = None
        self._sink.close()
        self._control.close()

    def resume(self) -> None:
        """The coordinator comes back: fresh sockets, fresh per-stream
        ingest state (with ``adopt_streams`` it anchors mid-flight
        streams instead of demanding retransmits back to seq 1), and one
        lease renewal per worker so nobody is declared dead for
        heartbeats lost while the coordinator was down."""
        if not self._suspended:
            return
        self._suspended = False
        self._open_sockets()
        now = self.sim.now
        for name in self._worker_order:
            self._ingest[name] = _WorkerIngest(
                name, anchored=not self.adopt_streams
            )
            self.leases.beat(name, now)
        self._begin_sweeps(now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def samples_received(self) -> int:
        return int(self._m_samples.value)

    @property
    def decode_errors(self) -> int:
        return int(self._m_decode_errors.value)

    def worker_states(self) -> Dict[str, str]:
        return {name: state.value for name, state in self.leases.states().items()}

    def stats(self) -> Dict[str, float]:
        """Flat operational counters (exports cleanly through telemetry;
        per-worker request counts appear as ``per_worker_requests.<name>``
        keys)."""
        value = self.telemetry.registry.value
        out: Dict[str, float] = {"workers": float(len(self.workers))}
        for key in self._stat_counters:
            out[key] = value(f"dist_{key}_total")
        out["degraded_sources"] = float(len(self.degraded))
        for state in WorkerState:
            out[f"workers_{state.value}"] = float(self.leases.count(state))
        for name, worker in self.workers.items():
            out[f"per_worker_requests.{name}"] = float(worker.requests_sent)
        return out


class DistributedMonitor(ReportCore, SampleIngest):
    """Coordinator + workers implementing the fault-tolerant plane.

    ``worker_hosts`` take the polling load; ``coordinator_host`` receives
    their batches (:class:`SampleIngest`) into the rate table of a
    :class:`~repro.core.monitor.ReportCore` and serves path reports,
    streaming, probing and topology sync exactly like the single
    monitor.  Shipped samples pass the :mod:`repro.integrity` pipeline
    on the way in.
    """

    def __init__(
        self,
        build: BuildResult,
        coordinator_host: str,
        worker_hosts: Sequence[str],
        poll_interval: float = 2.0,
        report_offset: float = 0.5,
        integrity: Union[bool, IntegrityConfig] = True,
        **ingest_options,
    ) -> None:
        """``ingest_options`` are :class:`SampleIngest`'s (``poll_jitter``,
        ``seed``, the batching and pipelining sizes, ``targets``,
        ``adopt_streams``)."""
        ReportCore.__init__(self, build, coordinator_host, poll_interval, report_offset, True)
        SampleIngest.__init__(
            self, build, coordinator_host, worker_hosts, self._accept,
            self.telemetry, poll_interval, **ingest_options,
        )
        self._build_pipeline(
            integrity, self.targets, degraded_sources=self.degraded
        )
        # The interfaces of the pool, fixed for the root: a batch naming
        # any other one is no sample of ours and mints no key.
        self._pool = {(t.node, i) for t in self.targets for i in t.if_indexes}
        self._m_foreign = self._counter(
            "foreign_samples", "shipped samples of no interface in the poll-target pool"
        )

    def _accept(self, *samples: InterfaceRates) -> List[InterfaceRates]:
        """Ingest sink: shipped samples face the same integrity gauntlet
        as local polls before they reach the rate table -- remotely (see
        :meth:`IntegrityPipeline.inspect`), with no raw snapshots."""
        inspect = self.integrity.inspect if self.integrity is not None else None
        accepted = []
        for sample in samples:
            if (sample.node, sample.if_index) not in self._pool:
                self._m_foreign.inc()
            elif inspect is None or inspect(sample, None, None):
                self.rates.update(sample)
                accepted.append(sample)
        return accepted

    # -- sample source: the workers, through the inherited ingest --------
    def _start_source(self, at: float) -> None:
        SampleIngest.start(self, at)

    def _stop_source(self) -> None:
        SampleIngest.stop(self)

    def stats(self) -> Dict[str, float]:
        """The core's keys plus the ingest's plane counters."""
        return {**ReportCore.stats(self), **SampleIngest.stats(self)}
