"""The SNMP manager: the polling client the monitor is built on.

Event-driven (the simulator has no threads): each operation takes a
``callback(varbinds)`` and an optional ``errback(exception)``.  Requests
are matched to responses by request-id; unanswered requests retransmit up
to ``retries`` times and then fail with :class:`SnmpTimeout`.

Retransmission timeouts are **adaptive, per destination** (RFC 6298
style): each agent gets an :class:`RtoEstimator` that smooths observed
round-trip times (SRTT/RTTVAR, Karn's rule: no samples from
retransmitted requests) into a retransmission timeout, and retries back
off exponentially within a request.  A slow-but-alive agent therefore
raises its own timeout instead of tripping spurious retransmits, while a
fast one is declared lost quickly.  Unlike TCP, a request that fails
outright does *not* persist its backoff into the next request -- the
poller's health layer (:mod:`repro.core.health`) owns the give-up policy
for persistently dead agents, and polls to distinct agents are
independent.  ``adaptive=False`` restores the legacy fixed ``timeout``.

The manager's packets are real BER bytes travelling the simulated LAN, so
polling consumes bandwidth that the monitor itself then measures -- the
paper counts this among its ~2 % systematic overhead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.snmp import ber
from repro.snmp.datatypes import EndOfMibView, NoSuchInstance, NoSuchObject
from repro.snmp.errors import ErrorStatus, SnmpError, SnmpErrorResponse, SnmpTimeout
from repro.snmp.message import VERSION_2C, Message
from repro.snmp.mib import SYS_UPTIME
from repro.snmp.oid import Oid
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu, VarBind
from repro.simnet.address import IPv4Address
from repro.simnet.sockets import SNMP_PORT
from repro.telemetry import Telemetry

SuccessCallback = Callable[[List[VarBind]], None]
ErrorCallback = Callable[[Exception], None]

DEFAULT_TIMEOUT = 1.0
DEFAULT_RETRIES = 1

# RFC 6298 smoothing gains and variance multiplier.
RTO_ALPHA = 0.125
RTO_BETA = 0.25
RTO_K = 4.0
DEFAULT_MIN_RTO = 0.25  # the sim's LAN RTTs are milliseconds; don't go lower
DEFAULT_MAX_RTO = 30.0


class RtoEstimator:
    """Smoothed-RTT retransmission timeout for one destination.

    Until the first sample the RTO is ``initial``; afterwards it is
    ``SRTT + K * RTTVAR`` clamped to [min_rto, max_rto].  Exponential
    backoff is applied per attempt via :meth:`timeout_for`, not stored.
    """

    __slots__ = ("initial", "min_rto", "max_rto", "srtt", "rttvar", "rto", "samples")

    def __init__(
        self,
        initial: float = DEFAULT_TIMEOUT,
        min_rto: float = DEFAULT_MIN_RTO,
        max_rto: float = DEFAULT_MAX_RTO,
    ) -> None:
        self.initial = initial
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = initial
        self.samples = 0

    def observe(self, rtt: float) -> None:
        """Fold one round-trip sample in (caller applies Karn's rule)."""
        if rtt < 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - RTO_BETA) * self.rttvar + RTO_BETA * abs(self.srtt - rtt)
            self.srtt = (1 - RTO_ALPHA) * self.srtt + RTO_ALPHA * rtt
        self.samples += 1
        self.rto = min(
            self.max_rto, max(self.min_rto, self.srtt + RTO_K * self.rttvar)
        )

    def timeout_for(self, attempt: int) -> float:
        """RTO for the ``attempt``-th transmission (1-based): 2x per retry."""
        return min(self.max_rto, self.rto * (2 ** max(0, attempt - 1)))


@dataclass
class DestinationStats:
    """Per-agent request accounting (adaptive-RTO diagnostics)."""

    requests_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    responses: int = 0
    last_rtt: Optional[float] = None


class _Pending:
    __slots__ = (
        "payload", "dst", "attempts", "timer", "callback", "errback",
        "sent_at", "first_sent_at",
    )

    def __init__(self, payload, dst, callback, errback) -> None:
        self.payload = payload
        self.dst = dst
        self.attempts = 0
        self.timer = None
        self.callback = callback
        self.errback = errback
        self.sent_at = 0.0
        self.first_sent_at = 0.0


class SnmpManager:
    """Asynchronous SNMP client bound to one host."""

    def __init__(
        self,
        endpoint,
        community: str = "public",
        version: int = VERSION_2C,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        agent_port: int = SNMP_PORT,
        adaptive: bool = True,
        min_rto: float = DEFAULT_MIN_RTO,
        max_rto: float = DEFAULT_MAX_RTO,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.community = community
        self.version = version
        self.timeout = timeout  # initial RTO (and the fixed one when not adaptive)
        self.retries = retries
        self.agent_port = agent_port
        self.adaptive = adaptive
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.socket = endpoint.create_socket()  # one ephemeral port for all requests
        self.socket.on_receive = self._on_datagram
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        self._estimators: Dict[IPv4Address, RtoEstimator] = {}
        self.destinations: Dict[IPv4Address, DestinationStats] = {}
        # Statistics live in the telemetry registry (a standalone manager
        # gets a private disabled hub: counters still count, the optional
        # extras -- per-agent RTT quantiles -- stay off until a monitor
        # wires in its enabled hub and fills ``agent_labels``).
        if telemetry is None:
            telemetry = Telemetry.disabled(clock=lambda: self.sim.now)
        self.telemetry = telemetry
        self.agent_labels: Dict[IPv4Address, str] = {}
        registry = telemetry.registry
        self._m_requests = registry.counter(
            "snmp_requests_total",
            "SNMP requests transmitted, retransmissions included",
        )
        self._m_retransmissions = registry.counter(
            "snmp_retransmissions_total", "SNMP requests retransmitted"
        )
        self._m_timeouts = registry.counter(
            "snmp_timeouts_total", "SNMP requests abandoned after all retries"
        )
        self._m_responses = registry.counter(
            "snmp_responses_total", "SNMP responses matched to a request"
        )
        self._m_unmatched = registry.counter(
            "snmp_responses_unmatched_total",
            "SNMP responses with no pending request (late duplicates)",
        )
        self._m_decode_errors = registry.counter(
            "snmp_decode_errors_total", "datagrams that failed BER decoding"
        )
        self._h_rtt = registry.histogram(
            "snmp_rtt_seconds",
            "round-trip time of first-transmission SNMP exchanges",
            labelnames=("agent",),
        )

    # ------------------------------------------------------------------
    # Statistics (registry-backed; the attribute names are the old API)
    # ------------------------------------------------------------------
    @property
    def requests_sent(self) -> int:
        return self._m_requests.value

    @property
    def retransmissions(self) -> int:
        return self._m_retransmissions.value

    @property
    def timeouts(self) -> int:
        return self._m_timeouts.value

    @property
    def responses_received(self) -> int:
        return self._m_responses.value

    @property
    def responses_unmatched(self) -> int:
        return self._m_unmatched.value

    @property
    def decode_errors(self) -> int:
        return self._m_decode_errors.value

    def _agent_label(self, dst_ip: IPv4Address) -> str:
        label = self.agent_labels.get(dst_ip)
        return label if label is not None else str(dst_ip)

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def get(
        self,
        dst_ip: IPv4Address,
        oids: Sequence[Oid],
        callback: SuccessCallback,
        errback: Optional[ErrorCallback] = None,
        community: Optional[str] = None,
    ) -> int:
        """GET a batch of exact instances; returns the request id.

        ``community`` overrides the manager default for this request only
        (agents on different nodes may use different community strings).
        """
        request_id = next(self._request_ids)
        pdu = Pdu.get_request(request_id, oids)
        return self._send(request_id, pdu, dst_ip, callback, errback, community)

    def get_next(
        self,
        dst_ip: IPv4Address,
        oids: Sequence[Oid],
        callback: SuccessCallback,
        errback: Optional[ErrorCallback] = None,
        community: Optional[str] = None,
    ) -> int:
        request_id = next(self._request_ids)
        pdu = Pdu.get_next_request(request_id, oids)
        return self._send(request_id, pdu, dst_ip, callback, errback, community)

    def get_bulk(
        self,
        dst_ip: IPv4Address,
        oids: Sequence[Oid],
        callback: SuccessCallback,
        errback: Optional[ErrorCallback] = None,
        non_repeaters: int = 0,
        max_repetitions: int = 16,
        community: Optional[str] = None,
    ) -> int:
        if self.version != VERSION_2C:
            raise SnmpError("GETBULK requires SNMPv2c")
        request_id = next(self._request_ids)
        pdu = Pdu.get_bulk_request(request_id, oids, non_repeaters, max_repetitions)
        return self._send(request_id, pdu, dst_ip, callback, errback, community)

    def walk(
        self,
        dst_ip: IPv4Address,
        root: Oid,
        callback: SuccessCallback,
        errback: Optional[ErrorCallback] = None,
        use_bulk: bool = False,
    ) -> None:
        """Walk the subtree under ``root`` with chained GETNEXT/GETBULK.

        ``callback`` receives the accumulated in-subtree varbinds once the
        walk leaves the subtree or hits endOfMibView.
        """
        collected: List[VarBind] = []

        def step(varbinds: List[VarBind]) -> None:
            cursor: Optional[Oid] = None
            for vb in varbinds:
                if isinstance(vb.value, (EndOfMibView, NoSuchObject, NoSuchInstance)):
                    callback(collected)
                    return
                if not vb.oid.startswith(root):
                    callback(collected)
                    return
                collected.append(vb)
                cursor = vb.oid
            if cursor is None:
                callback(collected)
                return
            self._walk_step(dst_ip, cursor, step, errback, use_bulk)

        self._walk_step(dst_ip, root, step, errback, use_bulk)

    def _walk_step(self, dst_ip, cursor, step, errback, use_bulk) -> None:
        if use_bulk:
            self.get_bulk(dst_ip, [cursor], step, errback, max_repetitions=16)
        else:
            self.get_next(dst_ip, [cursor], step, errback)

    def poll_interfaces(
        self,
        dst_ip: IPv4Address,
        if_indexes: Sequence[int],
        columns: Sequence[Oid],
        callback: SuccessCallback,
        errback: Optional[ErrorCallback] = None,
        *,
        include_uptime: bool = True,
        community: Optional[str] = None,
        max_exchanges: int = 8,
    ) -> None:
        """Fetch every ``columns`` counter for rows ``if_indexes`` via GetBulk.

        This is the poll path's bulk primitive: instead of one GET naming
        sysUpTime plus ``len(columns) * len(if_indexes)`` exact instances,
        it walks all the columns *in parallel inside one PDU* -- the first
        exchange carries sysUpTime as a non-repeater plus one cursor per
        column, with max-repetitions sized to the row span, so an agent
        whose table fits under :data:`MAX_BULK_REPETITIONS` rows answers
        the entire poll in a single exchange.  Larger tables continue from
        per-column cursors until every requested row (or endOfMibView) is
        reached, chaining at most ``max_exchanges`` requests.

        ``callback`` receives the accumulated varbinds -- the sysUpTime
        instance first, then every in-column row seen -- which is a
        superset of what the equivalent GET would return, so existing
        response parsers work unchanged.  Each exchange is an ordinary
        request underneath: the per-destination adaptive RTO, retry and
        RTT accounting all apply per exchange.  Any exchange that times
        out or errors fails the whole walk through ``errback``.

        Note the uptime skew: sysUpTime rides only the *first* exchange,
        so on a multi-exchange walk later rows are read slightly after
        the uptime they are paired with -- the same error class as the
        paper's "abnormally small value followed by an abnormally large
        one", and bounded by a couple of round trips.
        """
        if self.version != VERSION_2C:
            raise SnmpError("poll_interfaces requires SNMPv2c (GetBulk)")
        if not if_indexes or not columns:
            self.sim.schedule(0.0, callback, [])
            return
        walk = _BulkWalk(
            self, dst_ip, [int(i) for i in if_indexes], list(columns),
            callback, errback, include_uptime=include_uptime,
            community=community, max_exchanges=max_exchanges,
        )
        walk.issue()

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def estimator_for(self, dst_ip: IPv4Address) -> RtoEstimator:
        """The (auto-created) RTO estimator for one destination."""
        estimator = self._estimators.get(dst_ip)
        if estimator is None:
            estimator = self._estimators[dst_ip] = RtoEstimator(
                initial=self.timeout, min_rto=self.min_rto, max_rto=self.max_rto
            )
        return estimator

    def current_rto(self, dst_ip: IPv4Address) -> float:
        """The first-attempt timeout currently in force for ``dst_ip``."""
        if not self.adaptive:
            return self.timeout
        return self.estimator_for(dst_ip).rto

    def destination_stats(self, dst_ip: IPv4Address) -> DestinationStats:
        stats = self.destinations.get(dst_ip)
        if stats is None:
            stats = self.destinations[dst_ip] = DestinationStats()
        return stats

    def cancel_all(self) -> None:
        """Abort every outstanding request without invoking errbacks."""
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send(
        self,
        request_id: int,
        pdu: Pdu,
        dst_ip: IPv4Address,
        callback: SuccessCallback,
        errback: Optional[ErrorCallback],
        community: Optional[str] = None,
    ) -> int:
        payload = Message(
            self.version, community if community is not None else self.community, pdu
        ).encode()
        pending = _Pending(payload, (dst_ip, self.agent_port), callback, errback)
        self._pending[request_id] = pending
        self._transmit(request_id)
        return request_id

    def _transmit(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        pending.attempts += 1
        dst_ip = pending.dst[0]
        stats = self.destination_stats(dst_ip)
        if pending.attempts > 1:
            self._m_retransmissions.inc()
            stats.retransmissions += 1
        self._m_requests.inc()
        stats.requests_sent += 1
        pending.sent_at = self.sim.now
        if pending.attempts == 1:
            pending.first_sent_at = self.sim.now
        self.socket.sendto(pending.payload, pending.dst)
        if self.adaptive:
            rto = self.estimator_for(dst_ip).timeout_for(pending.attempts)
        else:
            rto = self.timeout
        pending.timer = self.sim.schedule(rto, self._on_timeout, request_id)

    def _on_timeout(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        if pending.attempts <= self.retries:
            self._transmit(request_id)
            return
        del self._pending[request_id]
        self._m_timeouts.inc()
        self.destination_stats(pending.dst[0]).timeouts += 1
        if pending.errback is not None:
            pending.errback(SnmpTimeout(str(pending.dst[0]), pending.attempts))

    def _on_datagram(
        self, payload: Optional[bytes], size: int, src_ip: IPv4Address, src_port: int
    ) -> None:
        if payload is None:
            self._m_decode_errors.inc()
            return
        try:
            message = Message.decode(payload)
        except ber.BerError:
            self._m_decode_errors.inc()
            return
        pdu = message.pdu
        if pdu.kind != "response":
            self._m_unmatched.inc()
            return
        pending = self._pending.pop(pdu.request_id, None)
        if pending is None:
            # Late duplicate after a retransmit already succeeded.
            self._m_unmatched.inc()
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self._m_responses.inc()
        stats = self.destination_stats(pending.dst[0])
        stats.responses += 1
        # Karn's rule: a response after a retransmit is ambiguous about
        # which copy it answers, so it yields no exact RTT sample.  It
        # does bound the RTT from above by the time since the *first*
        # copy went out; feeding that overestimate keeps the estimator
        # converging upward for an agent slower than the current RTO
        # (pure Karn would starve it of samples and retransmit forever).
        if self.adaptive:
            if pending.attempts == 1:
                rtt = self.sim.now - pending.sent_at
                stats.last_rtt = rtt
                self.estimator_for(pending.dst[0]).observe(rtt)
                if self.telemetry.enabled:
                    self._h_rtt.labels(
                        agent=self._agent_label(pending.dst[0])
                    ).observe(rtt)
            else:
                self.estimator_for(pending.dst[0]).observe(
                    self.sim.now - pending.first_sent_at
                )
        elif pending.attempts == 1 and self.telemetry.enabled:
            # Karn's rule still applies without adaptive RTO: only
            # unambiguous first-transmission RTTs feed the histogram.
            self._h_rtt.labels(agent=self._agent_label(pending.dst[0])).observe(
                self.sim.now - pending.sent_at
            )
        if pdu.error_status != int(ErrorStatus.NO_ERROR):
            exc = SnmpErrorResponse(ErrorStatus(pdu.error_status), pdu.error_index)
            if pending.errback is not None:
                pending.errback(exc)
            return
        pending.callback(pdu.varbinds)


class _BulkWalk:
    """State machine behind :meth:`SnmpManager.poll_interfaces`.

    Walks every counter column in parallel with chained GetBulk requests,
    keeping a per-column cursor and done flag.  Classification of response
    varbinds is by column prefix (one dict lookup per column length in
    use -- one, for ifTable columns), not position, so it tolerates both
    this model's column-major response layout and the row-interleaved
    layout RFC 1905 describes.
    """

    __slots__ = (
        "manager", "dst_ip", "columns", "callback", "errback", "community",
        "max_exchanges", "min_idx", "max_idx", "cursors", "cursor_rows",
        "done", "collected", "extra", "exchanges", "include_uptime",
        "finished", "column_lengths",
    )

    def __init__(
        self,
        manager: SnmpManager,
        dst_ip: IPv4Address,
        if_indexes: List[int],
        columns: List[Oid],
        callback: SuccessCallback,
        errback: Optional[ErrorCallback],
        *,
        include_uptime: bool,
        community: Optional[str],
        max_exchanges: int,
    ) -> None:
        self.manager = manager
        self.dst_ip = dst_ip
        self.columns = columns
        self.callback = callback
        self.errback = errback
        self.community = community
        self.max_exchanges = max(1, max_exchanges)
        self.min_idx = min(if_indexes)
        self.max_idx = max(if_indexes)
        # A cursor is the last OID seen in a column (exclusive): GetBulk
        # resumes at get_next(cursor).  Seeding at row min-1 makes the
        # first returned row the first one we actually want.
        self.cursors: Dict[Oid, Oid] = {
            col: col.extend(self.min_idx - 1) for col in columns
        }
        self.cursor_rows: Dict[Oid, int] = {col: self.min_idx - 1 for col in columns}
        self.done: Dict[Oid, bool] = {col: False for col in columns}
        # The prefix lengths a varbind's column can have (one, for ifTable).
        self.column_lengths = sorted({len(col) for col in columns})
        self.collected: List[VarBind] = []
        self.extra: List[VarBind] = []  # the sysUpTime non-repeater result
        self.exchanges = 0
        self.include_uptime = include_uptime
        self.finished = False

    def issue(self) -> None:
        """Send the next exchange of the walk."""
        live = [col for col in self.columns if not self.done[col]]
        if not live:
            self._finish()
            return
        reps = max(self.max_idx - self.cursor_rows[col] for col in live)
        reps = max(1, min(reps, MAX_BULK_REPETITIONS))
        oids: List[Oid] = []
        non_repeaters = 0
        if self.include_uptime and self.exchanges == 0:
            # get_next(sysUpTime-object) yields the .0 instance; naming
            # the instance itself would return its successor instead.
            oids.append(SYS_UPTIME[: len(SYS_UPTIME) - 1])
            non_repeaters = 1
        oids.extend(self.cursors[col] for col in live)
        self.exchanges += 1
        self.manager.get_bulk(
            self.dst_ip, oids, self._on_response, self._on_error,
            non_repeaters=non_repeaters, max_repetitions=reps,
            community=self.community,
        )

    def _on_response(self, varbinds: List[VarBind]) -> None:
        if self.finished:
            return
        progressed: set = set()
        done, lengths = self.done, self.column_lengths
        for vb in varbinds:
            oid = vb.oid
            arcs = tuple(oid)  # plain tuple: slicing and indexing stay in C
            # An Oid *is* the tuple of its arcs, so the sliced prefix keys
            # the per-column dicts directly.
            for n in lengths:
                col = arcs[:n]
                if col in done:
                    break
            else:
                # The sysUpTime non-repeater, asked for on the first
                # exchange only -- anything else is an out-of-table OID
                # an exhausted column walked into.
                if self.include_uptime and self.exchanges == 1 and oid == SYS_UPTIME:
                    self.extra = [vb]
                continue
            if done[col]:
                continue
            if isinstance(vb.value, (EndOfMibView, NoSuchObject, NoSuchInstance)):
                done[col] = True
                continue
            row = arcs[n] if len(arcs) > n else -1
            if row <= self.cursor_rows[col]:
                continue  # duplicate/stale; progress judged per column below
            if row > self.max_idx:
                done[col] = True
                continue
            self.collected.append(vb)
            self.cursors[col] = oid
            self.cursor_rows[col] = row
            progressed.add(col)
            if row == self.max_idx:
                done[col] = True
        # A column that neither advanced nor terminated would loop the
        # same cursor forever (e.g. the whole column is absent and the
        # agent's walk left the table immediately): declare it done.
        for col in self.columns:
            if not self.done[col] and col not in progressed:
                self.done[col] = True
        if all(self.done.values()) or self.exchanges >= self.max_exchanges:
            self._finish()
        else:
            self.issue()

    def _on_error(self, exc: Exception) -> None:
        if self.finished:
            return
        self.finished = True
        if self.errback is not None:
            self.errback(exc)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self.callback(self.extra + self.collected)
