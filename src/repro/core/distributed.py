"""Fault-tolerant distributed network monitoring -- paper §5 future work.

One monitor polling every agent from one host (the paper's design) makes
that host's links a hot spot and scales linearly in one manager's request
load.  The distributed variant partitions the SNMP targets across several
*worker* hosts; each worker polls its share locally and ships what the
agents said to a *coordinator* host over the same simulated network.
The coordinator derives the rates with the single monitor's own
:meth:`~repro.core.poller.Derivation.derive` into one
:class:`~repro.core.poller.RateTable` and computes path reports with
the single monitor's own report core.

The plane is built to survive its own failures, not just the network's:

**Worker liveness.**  A batch is a heartbeat: any datagram renews a
worker's lease, a running worker ships a closing batch each poll cycle,
and only one silent for a whole interval sends an ``hb``.  The
coordinator runs a :class:`~repro.core.health.WorkerLeaseTracker`
per-worker state machine (alive -> suspect -> dead -> recovering, with
hysteresis on the way back) and publishes transitions on the event bus.

**A lost batch is a missed poll.**  Readings travel in *sequenced,
batched report datagrams* in one wire format, the binary delta encoding
of :mod:`repro.core.deltas`: each worker stamps batches with a
per-incarnation monotonic sequence number.  A batch carries the agents'
own readings, so losing one is what losing a poll is to the flat poller
(paper §3.1): the next reading of each interface derives against the
last one the coordinator saw, over a longer, exactly measured interval.
Nothing is resent.  The coordinator detects a gap (from a later batch,
or from the ``next_seq`` an idle worker's ``hb`` carries), moves past
it, forgets only the values the stream's ``same`` entries refer to, asks
for a keyframe, and *marks the worker's counter sources degraded* in a
:class:`~repro.core.dataflow.DegradedSourceSet` so dependent path
reports drop to low confidence until fresh samples land.  Duplicate,
straggling and stale-incarnation batches are discarded by sequence
number, so a worker restart never double-counts a reading.

**Automatic failover.**  When a lease expires the coordinator
repartitions the poll targets over the surviving workers
(affinity-first, deterministically) and ships each affected worker its
new assignment as real control traffic; when the worker recovers (and
holds its lease through the hysteresis window) the plane rebalances
back.  Assignments are versioned and carried to idempotent effect: each
closing batch (and ``hb``) echoes the worker's applied version, and the
coordinator re-sends the assignment whenever the echo is stale -- lost
control datagrams heal themselves within a poll cycle.  A dead coordinator
cannot wedge a worker: shipping is fire-and-forget UDP and nothing
waits for an answer.

**Integration.**  The coordinator's report half is the same
:class:`~repro.core.monitor.ReportCore` the single monitor has (watches
that follow topology epochs, streaming, probing, topology sync); ingest
derives and routes through the :mod:`repro.integrity` pipeline (every
validator sees the two raw readings, exactly as for local polls), plane
state is exported as telemetry gauges and flat ``stats()`` keys, and
``repro distributed`` exercises the whole plane from the CLI.

Everything -- polls, responses, batches, heartbeats, keyframe requests,
assignments -- is real simulated traffic, so the monitoring system's
own footprint (and its failure modes) remain measurable.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from math import isfinite
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.core.counters import required_poll_targets
from repro.core.dataflow import DegradedSourceSet
from repro.core.deltas import (
    DeltaBatch,
    DeltaDecoder,
    DeltaEncoder,
    DeltaError,
    Reading,
    is_delta,
    parse_delta,
)
from repro.core.health import LeaseTransition, WorkerLeaseTracker, WorkerState
from repro.core.monitor import ReportCore
from repro.core.poller import Derivation, PollTarget, SnmpPoller, polled_interfaces
from repro.integrity import IntegrityConfig
from repro.simnet.address import IPv4Address
from repro.simnet.network import NetworkError
from repro.snmp.manager import SnmpManager
from repro.spec.builder import BuildResult
from repro.telemetry import Telemetry
from repro.telemetry.events import SAMPLE_GAP, WORKER_FAILOVER, WORKER_REBALANCE
from repro.topology.model import ConnectionSpec

logger = logging.getLogger("repro.distributed")

REPORT_PORT = 8765  # coordinator's sample/heartbeat sink
CONTROL_PORT = 8766  # each worker's assignment/keyframe-request listener

# Liveness tuning: fixed ratios of the poll interval, not options.  A
# running endpoint sends upstream once a cycle, a poll's jitter late at
# most.  Silence past 1.5 intervals is one closing batch missed (suspect:
# sources degraded, its tier's cycle waits no more); past 2.5, two (dead:
# failover, and adopters re-baselined within three cycles of the last).
LEASE_RATIO = 2.5  # lease timeout / poll interval
SUSPECT_RATIO = 1.5  # suspect threshold / poll interval
SWEEP_RATIO = 0.2  # lease sweep period / poll interval
KFREQ_SPACING_RATIO = 0.5  # least time between keyframe requests / poll interval
RECOVERY_BEATS = 2  # consecutive renewals before a dead worker is trusted again


# ----------------------------------------------------------------------
# Control messages (JSON keeps them debuggable on the simulated wire;
# readings travel as binary delta batches, see repro.core.deltas)
# ----------------------------------------------------------------------
def encode_message(kind: str, **fields) -> bytes:
    """One control message: ``hb`` (``w, inc, q, av``: an idle endpoint's
    lease renewal; ``q``, the next seq, exposes a trailing gap and ``av``
    lets the coordinator re-send a lost assignment), ``assign`` (``v,
    t``), ``kfreq`` (``inc``)."""
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


def poll_targets(build: BuildResult, connections: Iterable[ConnectionSpec]) -> List[PollTarget]:
    """One target per agent that measuring ``connections`` needs, in node
    order: :func:`~repro.core.counters.required_poll_targets` addressed.
    A tree plane's pool is this of its watched connections."""
    spec, network = build.spec, build.network
    return [
        PollTarget(
            node=node_name,
            address=network.ip_of(node_name),
            if_indexes=if_indexes,
            community=spec.node(node_name).snmp_community,
        )
        for node_name, if_indexes in sorted(
            required_poll_targets(spec, list(connections)).items()
        )
    ]


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
    """Sequenced, batched, delta-encoded reading shipping.

    Owns the per-incarnation monotonic sequence number and the
    :class:`~repro.core.deltas.DeltaEncoder` (``delta``) whose
    last-shipped tracking turns a quiescent agent's reading into a byte
    per interface.  ``send`` is the owner's transmit function, so the same
    shipper serves a worker shipping to its coordinator and a leaf
    coordinator shipping to the hierarchy root.  ``bytes_shipped`` over
    ``samples_shipped`` (interface readings) is the uplink's cost per one.
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
        self.delta = DeltaEncoder(name, keyframe_every)
        self.samples_shipped = 0
        self.batches_shipped = 0
        self.bytes_shipped = 0
        self.keyframes_shipped = 0

    def enqueue(self, *readings: Reading) -> int:
        """Queue agent readings (:data:`~repro.core.deltas.Reading`), a
        batch shipping first if one would take it past ``max_batch``
        interfaces; returns the interface readings queued."""
        delta, queued = self.delta, 0
        for reading in readings:
            rows = len(reading[4])
            if delta.entries and delta.entries + rows > self.max_batch:
                self._ship()
            delta.add(*reading)
            queued += rows
        return queued

    def flush(self, av: int = 0, unvouched: Sequence[tuple] = ()) -> None:
        """The cycle closed: ship the open batch as its closing one, even
        empty, echoing ``av`` (see :meth:`DeltaEncoder.close`)."""
        self._ship(av, unvouched)

    def _ship(self, av: Optional[int] = None, unvouched: Sequence[tuple] = ()) -> None:
        seq = self.next_seq
        self.next_seq += 1
        self.samples_shipped += self.delta.entries
        payload = self.delta.close(self.incarnation, seq, av, unvouched)
        if payload[1] & 0x01:
            self.keyframes_shipped += 1
        self.batches_shipped += 1
        self.bytes_shipped += len(payload)
        self.send(payload)

    def reset(self, incarnation: int) -> None:
        """The owning process restarted: new incarnation, fresh state."""
        self.incarnation = incarnation
        self.next_seq = 1
        self.delta.reset()


# ----------------------------------------------------------------------
# Uplink endpoints: the sending end of one reading stream
# ----------------------------------------------------------------------
class UplinkEndpoint:
    """What a polling worker and a leaf coordinator have in common.

    Readings handed to the shipper are shipped upstream in batches with
    a per-incarnation monotonic sequence number, the last of a poll cycle
    when it closes (see :meth:`SampleIngest._closed_by`).  That closing
    batch is the heartbeat: it renews the lease and echoes the applied
    assignment version.  The one timer fires once a poll interval and
    sends an ``hb`` only when nothing went upstream since it last fired;
    a control listener serves ``assign`` / ``kfreq``.
    ``crash()``/``restart()`` simulate the process dying and coming back
    (used by :class:`~repro.simnet.faults.WorkerCrash`): a restarted
    endpoint bumps its incarnation, restarts its sequence at 1, and
    advertises assignment version 0 so upstream ships the current
    assignment back.

    Subclasses supply where the readings come from, through two hooks:
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
        # Shipping (sequencing, delta encoding) lives in the shipper,
        # which waits for no answer: a dead upstream cannot wedge this
        # endpoint.
        self.shipper = SampleShipper(host_name, self._send_report, **shipping)
        self.assign_version = 0
        self.crashed = False
        self._started = False
        self._beat = None  # the heartbeat task while running
        self._quiet = False  # nothing sent upstream since the task last fired
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
        self._quiet = False
        self._report_socket.sendto(payload, (self.upstream_ip, REPORT_PORT))

    def _begin_tasks(self) -> None:
        if self.crashed:
            return  # crashed before the scheduled start; restart() re-runs this
        self._beat = self.sim.call_every(
            self.poll_interval, self._heartbeat, start=self.sim.now)

    def _teardown(self) -> None:
        if self._beat is not None:
            self._beat.cancel()  # idempotent: a second teardown is harmless
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
        """The process dies: no readings, no heartbeats, no shipping."""
        if self.crashed:
            return
        self.crashed = True
        self._teardown()

    def restart(self) -> None:
        """The process comes back: new incarnation, sequence restarts at
        1, and assignment version 0 makes upstream re-ship the current
        assignment."""
        if not self.crashed:
            return
        self.crashed = False
        self.shipper.reset(self.shipper.incarnation + 1)
        self.assign_version = 0
        self._quiet = True  # announce the new incarnation at once
        self._open_sockets()
        self._rebuild()
        if self._started:
            self._begin_tasks()

    def _heartbeat(self) -> None:
        """A poll interval went by: renew the lease if nothing else did."""
        if self._quiet:
            self._send_report(encode_message(
                "hb", w=self.name, inc=self.incarnation,
                q=self.shipper.next_seq, av=self.assign_version))
        self._quiet = True

    # -- control ---------------------------------------------------------
    def _on_control(self, payload, size, src_ip, src_port) -> None:
        if payload is None or self.crashed:
            return
        try:
            doc = decode_message(payload)
            kind = doc["k"]
            if kind == "assign":
                self._apply_assignment(doc)
            elif kind == "kfreq":
                # The receiver lost delta context: re-state everything
                # with the next batch.
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
        self.shipper.delta.follow(polled_interfaces(targets))


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
        # A worker derives nothing: every reading leaves on the uplink.
        self.poller.on_reading = lambda node, uptime, now, rows: self.shipper.enqueue(
            (self.name, node, uptime, now, rows, ()))
        self.poller.on_cycle = self._close_cycle

    def _close_cycle(self, number: int) -> None:
        """Ship the closing batch: none if stop() or crash() closed it or none is polled."""
        if self._started and not self.crashed and self.poller.targets:
            self.shipper.flush(self.assign_version)

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
        added = self.poller.retarget(targets)
        if added and self._started:
            # Adopted interfaces have no counter baselines here: poll once
            # immediately to establish them and once again shortly after
            # so a rate sample exists ~one short interval later, instead
            # of waiting up to two full poll cycles.  (Before the worker
            # runs, its first cycle sets them.)
            self.poller._poll_cycle()
            self.sim.schedule(self.poll_interval * 0.5, self._adoption_poll)

    def _adoption_poll(self) -> None:
        if not self.crashed and self._started:
            self.poller._poll_cycle()


# ----------------------------------------------------------------------
# Coordinator-side ingest bookkeeping
# ----------------------------------------------------------------------
@dataclasses.dataclass(slots=True, eq=False)
class _WorkerIngest:
    """Per-stream sequencing state on the receiving coordinator: the
    next seq it expects and the stream's
    :class:`~repro.core.deltas.DeltaDecoder`, which applies batches in
    sequence order only."""

    name: str
    anchored: bool = True  # False: adopt the first observed seq
    incarnation: int = 0  # adopts the worker's on first contact
    expected: int = 1  # next in-order batch seq
    delta: DeltaDecoder = dataclasses.field(default_factory=DeltaDecoder)
    kfreq_after: float = 0.0  # earliest next keyframe request

    def reset_for(self, incarnation: int) -> None:
        self.incarnation = incarnation
        self.expected = 1
        self.anchored = True  # a fresh incarnation numbers from 1
        self.delta = DeltaDecoder()


class SampleIngest:
    """The receiving end of the plane: workers, leases, gaps, assignments.

    Owns the worker endpoints on ``worker_hosts`` and the coordinator
    sockets on ``coordinator_host``; the readings of every batch that
    arrives in sequence are handed to ``sink(decoder, readings)``
    together, in order, with the stream's decoder (whose ``baselines``
    they rest on), and it returns how many samples it admitted.
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
        sink: Callable[[DeltaDecoder, List[Reading]], int],
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
        coordinator.  Lease, sweep and keyframe-request timing are not
        options: they are the module's fixed ratios of ``poll_interval``."""
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
        self.kfreq_spacing = poll_interval * KFREQ_SPACING_RATIO
        # What every endpoint under this coordinator is built with.
        self._endpoint_options = dict(shipping, pipeline_window=pipeline_window)
        self.degraded = DegradedSourceSet()
        self.leases = WorkerLeaseTracker(
            lease_timeout=poll_interval * LEASE_RATIO,
            suspect_after=poll_interval * SUSPECT_RATIO,
            recovery_beats=RECOVERY_BEATS,
            events=self.telemetry.events,
        )
        self.leases.subscribe(self._on_lease_transition)
        self.on_cycle: Optional[Callable[[], object]] = None  # see _closed_by
        self._closed: Set[str] = set()  # workers whose closing batch is in
        self._sweep_task = None
        self._open_sockets()

        self._worker_order = list(worker_hosts)
        self._started = False
        #: An explicit ``targets`` is the pool; without one the pool is
        #: :meth:`_derive_pool`'s and follows what it derives from.
        self._pinned = targets is not None
        #: The poll-target pool partitioned over the workers.
        self.targets: List[PollTarget] = (
            list(targets) if self._pinned else self._derive_pool()
        )
        assignments = self._partition(self._worker_order)
        self.workers: Dict[str, UplinkEndpoint] = {
            name: self._make_worker(name, assignments.get(name, []), i)
            for i, name in enumerate(self._worker_order)
        }
        # Assignment bookkeeping: desired targets and version per worker.
        # Workers constructed with their initial share already hold
        # version 1 semantics; seed their counters to match so the first
        # closing batch does not trigger a redundant re-send.
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
        self._m_samples = c("samples_received", "samples the sink admitted")
        self._m_batches = c("batches_received", "sequenced report batches delivered")
        self._m_decode_errors = c("decode_errors", "undecodable plane datagrams")
        self._m_duplicates = c("duplicate_batches", "batches dropped by sequence dedup")
        self._m_gaps = c("gaps_detected", "batches lost: sequence numbers skipped")
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
        """The pool when no ``targets`` were given (the coordinator with
        a report core behind it derives it from its watches)."""
        raise NotImplementedError

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
        workers (the hierarchy root resizes a leaf's shard this way, and
        a tree plane's watches move its pool).  An interface that leaves
        the pool leaves the known-lossy set.  Before :meth:`start` the
        workers are this process's own objects: each takes its share as
        at construction, and no datagram is sent."""
        for key in sorted(polled_interfaces(self.targets) - polled_interfaces(targets)):
            self.degraded.clear(*key)
        self.targets = list(targets)
        if self._started:
            self._rebalance(reason="pool", about="pool")
            return
        assignments = self._partition(self._worker_order)
        for name in self._worker_order:
            self._assignments[name] = share = assignments.get(name, [])
            self.workers[name]._apply_targets(list(share))

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
        if transition.new in (WorkerState.SUSPECT, WorkerState.DEAD):
            # A closing batch is missing: everything the worker polls is
            # known-lossy until its, or once dead a survivor's, samples land.
            self._mark_degraded(transition.worker)
        if transition.new is WorkerState.DEAD:
            self._rebalance(reason="failover", about=transition.worker)
        elif (
            transition.new is WorkerState.ALIVE
            and transition.old is WorkerState.RECOVERING
        ):
            self._rebalance(reason="rebalance", about=transition.worker)
        self._check_cycle()  # a lease moved: the cycle may be over

    def _mark_degraded(self, worker: str) -> None:
        for target in self._assignments.get(worker, []):
            for if_index in target.if_indexes:
                self.degraded.mark(target.node, if_index)

    def _rebalance(self, reason: str, about: str) -> None:
        """Repartition over the live workers and ship changed assignments.

        ``reason`` is "failover" or "rebalance" when a lease moved, each
        counted and published; "pool" when the pool itself moved (watch
        traffic, or the root resizing a leaf's shard), which is routine
        and is logged at INFO only."""
        live = [w for w in self._worker_order if self.leases.state(w) is not WorkerState.DEAD]
        if not live:
            logger.warning("no live workers left; keeping assignments frozen")
            return
        desired = self._partition(live)
        moved: List[str] = []
        for name in self._worker_order:
            new = desired.get(name, [])
            if new == self._assignments[name]:
                continue  # same nodes, same interfaces: nothing to ship
            self._assignments[name] = list(new)
            moved.append(name)
            if self.leases.state(name) is not WorkerState.DEAD:
                self._send_assignment(name)
        if reason == "pool":
            logger.info(
                "poll-target pool moved: new assignment %s",
                {n: self.assigned_targets_of(n) for n in self._worker_order},
            )
            return
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
            else:
                self._m_decode_errors.inc()
        except _MALFORMED:
            self._m_decode_errors.inc()  # dropped whole: no state touched

    def _ingest_state(self, worker: str, incarnation: int, seq: int) -> Optional[_WorkerIngest]:
        """The sender's stream, its lease renewed; None drops the datagram.
        An adopted stream anchors at ``seq``: a batch's, or an ``hb``'s next."""
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
        if not state.anchored:
            # Adopting a mid-flight stream (coordinator resume): accept
            # from here; the stream heals its decoder via keyframe request.
            state.anchored = True
            state.expected = seq
        return state

    def _on_delta(self, payload: bytes) -> None:
        """Sample batch: delivered at once if it is the next in sequence or
        past a gap; a duplicate or a straggler from behind one is dropped."""
        try:
            batch = parse_delta(payload)
        except DeltaError:
            self._m_decode_errors.inc()
            return
        seq = batch.seq
        state = self._ingest_state(batch.worker, batch.incarnation, seq)
        if state is None:
            return
        if seq < state.expected:
            self._m_duplicates.inc()
            return
        self._skip_to(state, seq)
        state.expected = seq + 1
        self._deliver(state, batch)

    def _on_heartbeat(self, doc: Dict[str, object]) -> None:
        # Every field is read before the first side effect (the lease
        # renewal in _ingest_state): a malformed heartbeat changes nothing.
        worker, incarnation = doc["w"], int(doc["inc"])
        next_seq, applied = int(doc["q"]), int(doc.get("av", 0))
        state = self._ingest_state(worker, incarnation, next_seq)
        if state is None:
            return
        # ``q`` is the seq the *next* batch will carry: anything below it
        # that we have not seen was shipped and lost with nothing after
        # it to reveal the gap, until the next batch a cycle later.
        self._skip_to(state, next_seq)
        self._echoed(worker, applied)

    def _echoed(self, worker: str, applied: int) -> None:
        """A stale applied-version echo: the assignment was lost; re-send."""
        if applied != self._assign_version[worker]:
            if self.leases.state(worker) is not WorkerState.DEAD:
                self._send_assignment(worker)

    def _skip_to(self, state: _WorkerIngest, seq: int) -> None:
        """Batches ``[expected, seq)`` were lost: a missed poll for every
        reading they carried.  The stream's ids and baselines stand, so
        the next reading of each interface derives across the hole;
        only the values its ``same`` entries name are forgotten until a
        ``moved`` entry or the requested keyframe re-states them.  Which
        interfaces the lost batches carried is unknown, so every source
        assigned to the worker is degraded until a fresh sample lands."""
        first = state.expected
        if seq <= first:
            return
        self._m_gaps.inc(seq - first)
        self.telemetry.events.publish(
            SAMPLE_GAP, self.sim.now, worker=state.name, first=first, upto=seq
        )
        self._mark_degraded(state.name)
        state.delta.forget_values()
        self._request_keyframe(state)
        state.expected = seq

    def _request_keyframe(self, state: _WorkerIngest) -> None:
        """Ask a delta sender to re-state its full universe; rate-limited
        so a stream missing values sends one request per spacing window,
        not one per arriving batch."""
        now = self.sim.now
        if now < state.kfreq_after:
            return
        state.kfreq_after = now + self.kfreq_spacing
        self._m_kfreq.inc()
        self._send_control(state.name, "kfreq", inc=state.incarnation)

    def _deliver(self, state: _WorkerIngest, batch: DeltaBatch) -> None:
        readings = state.delta.apply(batch)
        if state.delta.needs_keyframe:
            self._request_keyframe(state)
        self._m_batches.inc()
        if readings:
            self._m_samples.inc(self.sink(state.delta, readings))
        if batch.unvouched:  # lost below the sender: known-lossy here too
            for key in state.delta.keys_of(batch.unvouched):
                self.degraded.mark(*key)
        if batch.closes:
            self._echoed(state.name, batch.av)
            if self.on_cycle is not None and self._assignments[state.name]:
                self._closed_by(state.name)

    def _closed_by(self, worker: str) -> None:
        """``worker`` (holding an assignment) delivered its closing batch.
        The cycle is over once every alive worker holding one has, or once
        one closes again first: then it is over for those that missed it.
        A suspect worker has missed one already and is not waited for."""
        if worker in self._closed:
            self._closed.clear()
            self.on_cycle()
        self._closed.add(worker)
        self._check_cycle()

    def _check_cycle(self) -> None:
        closed = self._closed
        alive = WorkerState.ALIVE
        if closed and all(w in closed for w in self._worker_order
                          if self._assignments[w] and self.leases.state(w) is alive):
            closed.clear()
            self.on_cycle()

    # ------------------------------------------------------------------
    # Periodic sweep: lease expiry, and keyframes still missing
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        self.leases.check(self.sim.now)
        for name, state in self._ingest.items():
            # The request or its keyframe was lost: ask again, once a spacing.
            if state.delta.needs_keyframe and self.leases.state(name) is not WorkerState.DEAD:
                self._request_keyframe(state)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _open_sockets(self) -> None:
        self._sink = self.coordinator.create_socket(REPORT_PORT)
        self._sink.on_receive = self._on_datagram
        self._control = self.coordinator.create_socket()  # assign/kfreq sender

    def _begin_sweeps(self, at: float) -> None:
        period = self.poll_interval * SWEEP_RATIO
        self._sweep_task = self.sim.call_every(period, self._sweep, start=at + period)

    def start(self, at: Optional[float] = None) -> None:
        self._started = True
        start = self.sim.now if at is None else at
        for worker in self.workers.values():
            worker.start(at=start)
        self._begin_sweeps(start)

    def stop(self) -> None:
        """Stop the workers and release every socket (coordinator
        included), so a new plane can be built on the same hosts."""
        self._started = False
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
        streams instead of reading seq 1 onwards as lost), and one
        lease renewal per worker so nobody is declared dead for
        batches lost while the coordinator was down."""
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
    monitor, deriving the shipped readings as the single monitor derives
    its own.
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
        ``adopt_streams``).  Without ``targets`` the pool is what the
        watches read (:meth:`_derive_pool`), and follows them."""
        ReportCore.__init__(self, build, coordinator_host, poll_interval, report_offset, True)
        SampleIngest.__init__(
            self, build, coordinator_host, worker_hosts, self._accept,
            self.telemetry, poll_interval, **ingest_options,
        )
        self._build_pipeline(
            integrity, self.targets, degraded_sources=self.degraded
        )
        self.derivation = Derivation(self.telemetry, poll_interval)
        self.derivation.integrity = self.integrity
        # The interfaces of the pool: a batch naming any other one is no
        # reading of ours and leaves no baseline.
        self._pool = polled_interfaces(self.targets)
        self._m_foreign = self._counter(
            "foreign_samples", "shipped readings of no interface in the poll-target pool"
        )

    # -- the pool follows the watches ------------------------------------
    def _derive_pool(self) -> List[PollTarget]:
        """What the watched connections need: every watched path's, or
        every connection once the all-pairs matrix reads them all."""
        return poll_targets(self.build, self._watched_connections())

    def _watches_moved(self) -> None:
        if not self._pinned:
            pool = self._derive_pool()
            if pool != self.targets:
                self.set_target_pool(pool)

    def set_target_pool(self, targets: Sequence[PollTarget]) -> None:
        """The ingest's repartition; then the admission set, the speeds
        the integrity pipeline judges by, the baselines and the rate table
        follow the pool, so an interface that left it keeps no state here."""
        SampleIngest.set_target_pool(self, targets)
        pool = polled_interfaces(self.targets)
        left = self._pool - pool
        self.rates.discard(sorted(left))
        for state in self._ingest.values():
            state.delta.baselines = {a: {i: r for i, r in last.items() if (a[1], i) not in left}
                                     for a, last in state.delta.baselines.items()}
        self._pool = pool
        if self.integrity is not None:
            self.integrity.follow(self._interface_speeds(self.targets), self.sim.now)

    def _accept(self, decoder: DeltaDecoder, readings: List[Reading]) -> int:
        """Ingest sink: derive the pool's readings against the baselines
        of their stream, reading worker and agent (a first reading only
        sets one), as the flat poller does its own; returns how many
        samples reached the rate table."""
        pool, derive, baselines = self._pool, self.derivation.derive, decoder.baselines
        admitted, foreign = [], 0
        for worker, node, uptime, time, rows, first in readings:
            ours = [row for row in rows if (node, row[0]) in pool]
            foreign += len(rows) - len(ours)
            if ours:
                last = baselines.get((worker, node))
                if last is None:
                    last = baselines[(worker, node)] = {}
                for if_index in first:
                    last.pop(if_index, None)
                admitted += derive(last, node, uptime, time, ours)
        if foreign:
            self._m_foreign.inc(foreign)
        update, degraded = self.rates.update, self.degraded or None
        for sample in admitted:
            update(sample)
            if degraded is not None:  # a fresh in-order sample: no longer known-lossy
                degraded.clear(sample.node, sample.if_index)
        return len(admitted)

    # -- sample source: the workers, through the inherited ingest --------
    def _start_source(self, at: float) -> None:
        SampleIngest.start(self, at)

    def _stop_source(self) -> None:
        SampleIngest.stop(self)

    def stats(self) -> Dict[str, float]:
        """The core's keys plus the ingest's plane counters."""
        return {**ReportCore.stats(self), **SampleIngest.stats(self)}
