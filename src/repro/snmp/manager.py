"""The SNMP manager: the polling client the monitor is built on.

Event-driven (the simulator has no threads): each operation takes a
``callback(varbinds)`` and an optional ``errback(exception)``.  Requests
are matched to responses by request-id; unanswered requests retransmit up
to ``retries`` times and then fail with :class:`SnmpTimeout`.

A response is decoded once and completely *before* its request is popped:
the header in place, then the varbinds -- by the general decoder, or, for
the interface poll (:meth:`SnmpManager.poll_interfaces`), by a column
reader that files integers straight from the bytes and, for a reply to a
request it has read before, reads again only the varbinds whose bytes
differ.  A datagram rejected anywhere changes no state; any non-zero
error-status reaches ``errback``.

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
independent.  :data:`DEFAULT_TIMEOUT` is each destination's RTO before
its first sample.

The manager's packets are real BER bytes travelling the simulated LAN, so
polling consumes bandwidth that the monitor itself then measures -- the
paper counts this among its ~2 % systematic overhead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.snmp import ber
from repro.snmp.datatypes import EndOfMibView, NoSuchInstance, NoSuchObject, TimeTicks
from repro.snmp.errors import SnmpError, SnmpErrorResponse, SnmpTimeout
from repro.snmp.message import VERSION_2C, Message, decode_header, encode_message
from repro.snmp.mib import SYS_UPTIME
from repro.snmp.oid import Oid
from repro.snmp.pdu import MAX_BULK_REPETITIONS, Pdu, VarBind, decode_varbinds, encode_pdu
from repro.simnet.address import IPv4Address
from repro.simnet.sockets import SNMP_PORT
from repro.telemetry import Telemetry

SuccessCallback = Callable[[List[VarBind]], None]
ErrorCallback = Callable[[Exception], None]

DEFAULT_TIMEOUT = 1.0
DEFAULT_RETRIES = 1
# Sent unless a request names its agent's own (a spec node's ``snmp community``).
DEFAULT_COMMUNITY = "public"
MAX_WALK_EXCHANGES = 8  # a bulk interface poll chains at most this many requests

# Poll replies remembered, bounded like the agent's memos (a 64-row reply is 9 KB).
_MEMO_REPLIES, _MEMO_REPLY_BYTES = 256, 16384

# RFC 6298 smoothing gains and variance multiplier.
RTO_ALPHA = 0.125
RTO_BETA = 0.25
RTO_K = 4.0
DEFAULT_MIN_RTO = 0.25  # the sim's LAN RTTs are milliseconds; don't go lower
DEFAULT_MAX_RTO = 30.0


class RtoEstimator:
    """Smoothed-RTT retransmission timeout for one destination.

    Until the first sample the RTO is :data:`DEFAULT_TIMEOUT`; afterwards
    it is ``SRTT + K * RTTVAR`` clamped to [min_rto, max_rto].  Exponential
    backoff is applied per attempt via :meth:`timeout_for`, not stored.
    """

    __slots__ = ("min_rto", "max_rto", "srtt", "rttvar", "rto", "samples")

    def __init__(
        self, min_rto: float = DEFAULT_MIN_RTO, max_rto: float = DEFAULT_MAX_RTO
    ) -> None:
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = DEFAULT_TIMEOUT
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


class _Pending:
    __slots__ = (
        "payload", "dst", "attempts", "timer", "callback", "errback",
        "sent_at", "first_sent_at", "poll",
    )

    def __init__(self, payload, dst, callback, errback, poll=None) -> None:
        self.payload = payload
        self.dst = dst
        self.poll = poll  # an interface poll's (agent, column set, request varbinds)
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
        version: int = VERSION_2C,
        retries: int = DEFAULT_RETRIES,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.version = version
        self.retries = retries
        self.socket = endpoint.create_socket()  # one ephemeral port for all requests
        self.socket.on_receive = self._on_datagram
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        self._estimators: Dict[IPv4Address, RtoEstimator] = {}
        self._replies: Dict[tuple, _Reading] = {}  # see _read
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

        ``community`` overrides :data:`DEFAULT_COMMUNITY` for this request
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
        community: Optional[str] = None,
    ) -> None:
        """Walk the subtree under ``root`` with chained GETNEXT/GETBULK,
        every request under ``community`` (default: the manager's).

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
            self._walk_step(dst_ip, cursor, step, errback, use_bulk, community)

        self._walk_step(dst_ip, root, step, errback, use_bulk, community)

    def _walk_step(self, dst_ip, cursor, step, errback, use_bulk, community) -> None:
        if use_bulk:
            self.get_bulk(
                dst_ip, [cursor], step, errback, max_repetitions=16, community=community
            )
        else:
            self.get_next(dst_ip, [cursor], step, errback, community)

    def poll_interfaces(
        self,
        dst_ip: IPv4Address,
        if_indexes: Sequence[int],
        columns: Sequence[Oid],
        callback: Callable,
        errback: Optional[ErrorCallback] = None,
        *,
        bulk: bool = True,
        include_uptime: bool = True,
        community: Optional[str] = None,
    ) -> None:
        """Fetch every ``columns`` counter for rows ``if_indexes``: the
        poll path's primitive, in either wire form.

        ``bulk`` (SNMPv2c) is a GetBulk column walk (:class:`_BulkWalk`):
        one exchange for a table of up to :data:`MAX_BULK_REPETITIONS`
        rows, at most :data:`MAX_WALK_EXCHANGES` for a larger one.
        ``bulk=False`` is the paper's layout: one GET naming sysUpTime.0,
        then every instance row by row (:func:`interface_oids`).

        ``callback`` receives ``(uptime_ticks, tables)``: sysUpTime as an
        integer (``None`` unless served as TimeTicks) and, per requested
        column, ``{ifIndex: (tag, value)}`` -- the BER tag of what the
        agent served for that row and its integer (0 where the type has
        none).  Replies are read by :func:`_read_columns` straight from
        the datagram, each against the last reply to the same request
        (:meth:`_read`).  Each exchange is an ordinary request (adaptive
        RTO, retries, RTT accounting); one that times out or errors
        fails the whole poll through ``errback``.
        """
        key = tuple(columns)
        column_set = _column_set(key)
        if not bulk:
            request_id = next(self._request_ids)
            varbinds = _poll_varbinds(key, tuple(if_indexes), include_uptime, bulk=False)
            pdu = encode_pdu(ber.TAG_GET_REQUEST, request_id, 0, 0, varbinds)

            def file_rows(reading: _Reading) -> None:
                tables: List[Dict[int, Tuple[int, int]]] = [{} for _ in key]
                for column, row, tag, value in reading.rows:
                    tables[column][row] = (tag, value)
                callback((reading.uptime, dict(zip(key, tables))))

            poll = (dst_ip, column_set, varbinds)
            self._send(request_id, pdu, dst_ip, file_rows, errback, community, poll)
        elif self.version != VERSION_2C:
            raise SnmpError("a bulk poll_interfaces requires SNMPv2c (GetBulk)")
        elif not if_indexes or not columns:
            self.sim.schedule(0.0, callback, (None, {col: {} for col in key}))
        else:
            _BulkWalk(
                self, dst_ip, if_indexes, column_set, callback, errback,
                include_uptime, community,
            ).issue()

    def estimator_for(self, dst_ip: IPv4Address) -> RtoEstimator:
        """The (auto-created) RTO estimator for one destination."""
        estimator = self._estimators.get(dst_ip)
        if estimator is None:
            estimator = self._estimators[dst_ip] = RtoEstimator()
        return estimator

    def current_rto(self, dst_ip: IPv4Address) -> float:
        """The first-attempt timeout currently in force for ``dst_ip``."""
        return self.estimator_for(dst_ip).rto

    def cancel_all(self) -> None:
        """Abort every outstanding request without invoking errbacks."""
        for pending in self._pending.values():
            if pending.timer is not None:
                self.sim.cancel(pending.timer)
        self._pending.clear()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send(
        self,
        request_id: int,
        pdu: Union[Pdu, bytes],
        dst_ip: IPv4Address,
        callback: Callable,
        errback: Optional[ErrorCallback],
        community: Optional[str] = None,
        poll: Optional[tuple] = None,
    ) -> int:
        """Transmit ``pdu`` (or one already encoded: an interface poll's).
        ``callback`` gets the response's ``VarBind`` list -- or, given an
        interface poll's key ``(dst_ip, column set, request varbinds)``,
        the :class:`_Reading` :meth:`_read` makes of the same bytes."""
        payload = encode_message(
            self.version, community if community is not None else DEFAULT_COMMUNITY,
            pdu if isinstance(pdu, bytes) else pdu.encode(),
        )
        self._pending[request_id] = _Pending(
            payload, (dst_ip, SNMP_PORT), callback, errback, poll
        )
        self._transmit(request_id)
        return request_id

    def _transmit(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        pending.attempts += 1
        if pending.attempts > 1:
            self._m_retransmissions.inc()
        self._m_requests.inc()
        pending.sent_at = self.sim.now
        if pending.attempts == 1:
            pending.first_sent_at = self.sim.now
        self.socket.sendto(pending.payload, pending.dst)
        rto = self.estimator_for(pending.dst[0]).timeout_for(pending.attempts)
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
        if pending.errback is not None:
            pending.errback(SnmpTimeout(str(pending.dst[0]), pending.attempts))

    def _on_datagram(
        self, payload: Optional[bytes], size: int, src_ip: IPv4Address, src_port: int
    ) -> None:
        if payload is None:
            self._m_decode_errors.inc()
            return
        # Decode before touching anything: the header once, in place, then
        # the varbind range by the general decoder or a pending interface
        # poll's column reader.  The request is looked up, not popped: a
        # datagram rejected in its varbinds changes no state.
        try:
            _v, _c, tag, request_id, status, index, start, end = decode_header(payload)
            pending = None
            if tag != ber.TAG_GET_RESPONSE:
                Message.decode(payload)  # not for us; malformed or unmatched, as ever
            else:
                pending = self._pending.get(request_id)
                if pending is None or pending.poll is None:
                    result = decode_varbinds(payload, start, end)
                else:
                    result = self._read(pending.poll, payload, start, end)
        except ber.BerError:
            self._m_decode_errors.inc()
            return
        if pending is None:
            # Not a response, or a late duplicate after a retransmit succeeded.
            self._m_unmatched.inc()
            return
        del self._pending[request_id]
        if pending.timer is not None:
            self.sim.cancel(pending.timer)
        self._m_responses.inc()
        # Karn's rule: a response after a retransmit is ambiguous about
        # which copy it answers, so it yields no exact RTT sample.  It
        # does bound the RTT from above by the time since the *first*
        # copy went out; feeding that overestimate keeps the estimator
        # converging upward for an agent slower than the current RTO
        # (pure Karn would starve it of samples and retransmit forever).
        # Only unambiguous first-transmission RTTs feed the histogram.
        first_try = pending.attempts == 1
        rtt = self.sim.now - (pending.sent_at if first_try else pending.first_sent_at)
        self.estimator_for(pending.dst[0]).observe(rtt)
        if first_try and self.telemetry.enabled:
            self._h_rtt.labels(agent=self._agent_label(pending.dst[0])).observe(rtt)
        if status != 0:
            # Any non-zero status, RFC 3416's or not, fails the request.
            if pending.errback is not None:
                pending.errback(SnmpErrorResponse(status, index))
            return
        pending.callback(result)

    def _read(self, poll: tuple, data: bytes, start: int, end: int) -> "_Reading":
        """Read a poll's reply against the last one read for its key, or
        whole: a pure function of the bytes and the column set, so the key
        sets only the hit rate.  A datagram that raises leaves no trace."""
        last = self._replies.get(poll)
        reading = last.next(data, start, end, poll[1]) if last is not None else None
        if reading is None:
            reading = _Reading(data, start, end, poll[1])
        if end - start <= _MEMO_REPLY_BYTES:
            if last is None and len(self._replies) >= _MEMO_REPLIES:
                self._replies.clear()  # the agents still polled re-enter next poll
            self._replies[poll] = reading
        return reading


def interface_oids(if_indexes: Tuple[int, ...], columns: Tuple[Oid, ...]) -> Tuple[Oid, ...]:
    """The instances a GET-form interface poll names, row by row."""
    return tuple(col.extend(i) for i in dict.fromkeys(if_indexes) for col in columns)


@lru_cache(maxsize=1024)
def _poll_varbinds(
    columns: Tuple[Oid, ...], rows: Tuple[Optional[int], ...], include_uptime: bool, bulk: bool
) -> bytes:
    """The encoded varbind list of an interface-poll request: a pure
    function of what it asks for, so asking every agent the same thing
    every cycle encodes it once.  GET form: sysUpTime.0, then ``columns``
    at ``rows``.  Bulk form: the sysUpTime *object* -- ``get_next`` of it
    yields the .0 instance; naming that would return its successor --
    then each column at its cursor row (``None``: done, not named)."""
    if bulk:
        first = SYS_UPTIME.parent
        oids = [col.extend(row) for col, row in zip(columns, rows) if row is not None]
    else:
        first, oids = SYS_UPTIME, interface_oids(rows, columns)
    if include_uptime:
        oids = [first, *oids]
    return ber.encode_sequence(*[VarBind(oid).encode() for oid in oids])


class _ColumnSet:
    """What reading a poll's replies needs of its columns: their position
    by encoded OID prefix (the fast shape's one lookup) and by arcs (for
    a decoded OID), and the prefix lengths in use (one, for ifTable)."""

    __slots__ = ("columns", "prefixes", "prefix_lengths", "by_arcs", "arc_lengths")

    def __init__(self, columns: Tuple[Oid, ...]) -> None:
        self.columns = columns
        self.prefixes = {ber.encode_oid_content(col): i for i, col in enumerate(columns)}
        self.prefix_lengths = sorted({len(prefix) for prefix in self.prefixes})
        self.by_arcs = {tuple(col): i for i, col in enumerate(columns)}
        self.arc_lengths = sorted({len(col) for col in columns})


_column_set = lru_cache(maxsize=256)(_ColumnSet)  # derived once per distinct column tuple
_UPTIME_OID = ber.encode_oid_content(SYS_UPTIME)  # the fast shape's one odd varbind
_EXCEPTION_TAGS = (ber.TAG_NO_SUCH_OBJECT, ber.TAG_NO_SUCH_INSTANCE, ber.TAG_END_OF_MIB_VIEW)


def _read_columns(
    data: bytes, start: int, end: int, columns: _ColumnSet,
    starts: Optional[List[int]] = None, odd: Optional[Dict[int, bool]] = None,
) -> Tuple[Optional[int], List[Tuple[int, int, int, int]]]:
    """Read an interface poll's reply ``data[start:end]`` by column.

    Returns ``(uptime, rows)``: sysUpTime.0 in ticks (``None`` unless
    served as TimeTicks) and, per varbind under a requested column,
    ``(column position, first arc after it or -1, value tag, value as an
    integer or 0)``.  The **fast shape** -- short-form lengths, OID
    content starting byte for byte with a column's encoded prefix, one
    row arc of one or two octets, a 32-bit unsigned, INTEGER or empty
    exception value ending the varbind; or sysUpTime.0's OID content byte
    for byte and a 32-bit TimeTicks -- costs indexing, one ``dict.get``
    on a slice and ``int.from_bytes``.  **Anything else**
    goes through :meth:`VarBind.decode` and is classified from the
    decoded object, so the reader accepts only what the general decoder
    accepts and means the same by it (docs/architecture.md, "Where a
    cycle's time goes").  Pure: it touches no manager state.  ``starts``
    gets each varbind's offset, ``odd`` whether one that is no row is sysUpTime.
    """
    if end != len(data):
        data = data[:end]  # offsets stay valid; the list's end bounds every TLV in it
    if starts is None:
        starts, odd = [], {}
    prefixes, prefix_lengths = columns.prefixes, columns.prefix_lengths
    from_bytes = int.from_bytes
    uptime: Optional[int] = None
    rows: List[Tuple[int, int, int, int]] = []
    pos = start
    while pos < end:
        starts.append(pos)
        try:
            # 30 len 06 len <oid> tag len <value>, the value ending the
            # varbind (which holds the OID's length octet short-form too).
            oid_at = pos + 4
            value_at = oid_at + data[pos + 3]
            tag, value_len = data[value_at], data[value_at + 1]
            after = value_at + 2 + value_len
            if (
                data[pos] == ber.TAG_SEQUENCE and data[pos + 2] == ber.TAG_OID
                and data[pos + 1] < 0x80 and value_len < 0x80
                and after == pos + 2 + data[pos + 1] and after <= end
            ):
                column = None
                for n in prefix_lengths:
                    column = prefixes.get(data[oid_at : oid_at + n])
                    if column is not None:
                        break
                if (
                    column is None and tag == ber.TAG_TIMETICKS and value_len
                    and data[oid_at:value_at] == _UPTIME_OID
                ):
                    # sysUpTime.0 as TimeTicks: no row, the uptime.
                    value = from_bytes(data[value_at + 2 : after], "big")
                    if value <= 0xFFFFFFFF:
                        odd[len(starts) - 1] = True
                        uptime = value
                        pos = after
                        continue
                row = value = None
                row_octets = value_at - oid_at - n if column is not None else 0
                if row_octets == 1 and data[value_at - 1] < 0x80:
                    row = data[value_at - 1]
                elif row_octets == 2 and data[value_at - 2] >= 0x80 > data[value_at - 1]:
                    row = (data[value_at - 2] & 0x7F) << 7 | data[value_at - 1]
                # The general decoder's own rejections: no empty integer,
                # no 32-bit overflow, no content in an exception value.
                if row is None:
                    pass  # not a row of one arc: fall back
                elif not value_len:
                    value = 0 if tag in _EXCEPTION_TAGS else None
                elif ber.TAG_COUNTER32 <= tag <= ber.TAG_TIMETICKS:
                    value = from_bytes(data[value_at + 2 : after], "big")
                    if value > 0xFFFFFFFF:
                        value = None
                elif tag == ber.TAG_INTEGER:
                    value = from_bytes(data[value_at + 2 : after], "big", signed=True)
                if value is not None:
                    rows.append((column, row, tag, value))
                    pos = after
                    continue
        except IndexError:
            pass  # ran off the buffer: the general decoder words the error
        varbind, pos = VarBind.decode(data, pos)
        arcs, value = tuple(varbind.oid), varbind.value
        for n in columns.arc_lengths:
            column = columns.by_arcs.get(arcs[:n])
            if column is not None:
                number = getattr(value, "value", 0)
                rows.append((
                    column, arcs[n] if len(arcs) > n else -1, value.tag,
                    number if isinstance(number, int) else 0,
                ))
                break
        else:  # no row: sysUpTime (the last one named wins), or neither
            odd[len(starts) - 1] = named_uptime = arcs == SYS_UPTIME
            if named_uptime:
                uptime = value.value if isinstance(value, TimeTicks) else None
    return uptime, rows


class _Reading:
    """One interface-poll reply, read: ``uptime`` and ``rows`` as
    :func:`_read_columns` returns them, plus the varbind list's bytes
    (``data``) and the same as an integer (``number``), where each varbind
    starts in them (``starts``), which are no row (``odd``) and which of
    those is the last sysUpTime named (``named``).  One made by
    :meth:`next` lists the rows it replaced as ``changed`` and carries as
    ``basis`` what the consumer ``filed`` from the reading it was made
    from, so :class:`_BulkWalk` files the change."""

    __slots__ = (
        "uptime", "rows", "data", "number", "starts", "odd", "named",
        "changed", "basis", "filed",
    )

    def __init__(self, data: bytes, start: int, end: int, columns: _ColumnSet) -> None:
        self.data = data = data[start:end]
        self.starts, self.odd = [], {}
        self.uptime, self.rows = _read_columns(data, 0, len(data), columns, self.starts, self.odd)
        self.named = max([at for at, named in self.odd.items() if named], default=None)
        self.number = int.from_bytes(data, "big")
        self.changed = self.basis = self.filed = None

    def next(
        self, data: bytes, start: int, end: int, columns: _ColumnSet
    ) -> Optional["_Reading"]:
        """The reading of ``data[start:end]``, a reply to the same request,
        made from this one: only the varbinds that moved read again, in one
        pass over their bytes, and every other read as it was, at no call.
        The moved ones are found by arithmetic on the two lists as integers
        (:func:`_moved`), a varbind that grew or shrank re-aligning the
        rest.  None (read whole): more than half the varbinds moved, or the
        bytes that moved no longer hold one varbind of the same kind where
        one was."""
        new = data[start:end]
        starts, odd = self.starts, self.odd
        reading = _Reading.__new__(_Reading)
        reading.data, reading.odd, reading.named = new, odd, self.named
        reading.basis, reading.filed = self.filed, None
        if new == self.data:
            reading.uptime, reading.rows, reading.number = self.uptime, self.rows, self.number
            reading.starts, reading.changed = starts, []
            return reading
        number = int.from_bytes(new, "big")
        moved = _moved(self.data, self.number, new, number, starts, len(starts) // 2)
        if moved is None:
            return None
        ats, spans, grown = moved
        offsets = list(itertools.accumulate(map(len, spans), initial=0))
        found, kinds, length = [], {}, offsets.pop()  # where each span starts; all
        try:
            value, read = _read_columns(b"".join(spans), 0, length, columns, found, kinds)
        except ber.BerError:
            return None  # the whole pass says so, or reads it otherwise
        if found != offsets:
            return None  # no longer one varbind where one was
        rows, changed, uptime = list(self.rows), [], self.uptime
        for k, at in enumerate(ats):
            if at in odd:
                if kinds.get(k) != odd[at]:
                    return None  # not of its kind
                if at == self.named:
                    uptime = value  # the last sysUpTime named moved
            elif k in kinds:
                return None
            else:
                row = at - bisect_left(list(odd), at)
                changed.append((row, rows[row]))
                rows[row] = read[len(changed) - 1]
        reading.uptime, reading.rows, reading.number, reading.changed = uptime, rows, number, changed
        reading.starts = _realigned(starts, ats, grown) if grown else starts
        return reading


# Every non-zero byte to 1: where two lists' XOR says a varbind moved.
_NONZERO = bytes([0] + [1] * 255)


def _moved(
    old: bytes, old_number: int, new: bytes, new_number: int, starts: List[int], limit: int
) -> Optional[Tuple[List[int], List[bytes], Dict[int, int]]]:
    """The varbinds of ``old`` (each starting at ``starts``) whose bytes
    differ in ``new``, both lists also given as integers: their indexes,
    their bytes in ``new``, and by how many bytes each that grew or shrank
    did.  None past ``limit`` of them, or where ``new`` no longer holds a
    short-form varbind at one that moved.

    The two lists XORed as integers are zero but at the moved varbinds;
    mapped to one byte in 0/1 each, ``bytes.find`` steps from one moved
    varbind to the next and a ``bisect`` names it.  A varbind that grew
    or shrank shifts the rest of ``new`` against ``old``: the remainders
    past it are compared afresh, front-aligned while their lengths
    differ.  A few C calls a moved varbind, none for one that did not."""
    from_bytes = int.from_bytes
    old_len, new_len, last = len(old), len(new), len(starts) - 1
    ats: List[int] = []
    spans: List[bytes] = []
    grown: Dict[int, int] = {}
    xor = None
    o = n = 0  # where the remainders start, each at a varbind of its list
    while True:
        rest = old_len - o
        aligned = rest == new_len - n
        if aligned:  # the lists' last ``rest`` bytes, XORed
            if xor is None:
                xor = (old_number ^ new_number).to_bytes(max(old_len, new_len), "big")
            diff = xor[len(xor) - rest :].translate(_NONZERO)
        else:
            span = min(rest, new_len - n)
            diff = (
                from_bytes(old[o : o + span], "big") ^ from_bytes(new[n : n + span], "big")
            ).to_bytes(span, "big").translate(_NONZERO)
        p = diff.find(1)
        if p < 0:
            return (ats, spans, grown) if aligned else None  # else a varbind came or went
        while p >= 0:
            at = bisect_right(starts, o + p) - 1
            s = starts[at]
            e = starts[at + 1] if at < last else old_len
            at_new = s - o + n
            if at_new + 1 >= new_len or new[at_new] != ber.TAG_SEQUENCE or new[at_new + 1] >= 0x80:
                return None
            end_new = at_new + 2 + new[at_new + 1]
            if end_new > new_len or not limit:
                return None
            limit -= 1
            ats.append(at)
            spans.append(new[at_new:end_new])
            if end_new - at_new != e - s:
                grown[at] = end_new - at_new - (e - s)
            if not aligned or at in grown:
                o, n = e, end_new  # re-align the remainders past it
                break
            p = diff.find(1, e - o)
        else:
            return ats, spans, grown


def _realigned(starts: List[int], ats: List[int], grown: Dict[int, int]) -> List[int]:
    """Where each varbind starts once those in ``grown`` grew (or shrank)
    by as many bytes as it says: every later one shifted by their sum."""
    out: List[int] = []
    done = shift = 0
    for at in ats:
        if at in grown:
            out += map(add, starts[done : at + 1], itertools.repeat(shift))
            shift += grown[at]
            done = at + 1
    out += map(add, starts[done:], itertools.repeat(shift))
    return out


class _BulkWalk:
    """State machine behind a bulk :meth:`SnmpManager.poll_interfaces`.

    Walks every column *in parallel inside one GetBulk PDU*: the first
    exchange carries sysUpTime as a non-repeater plus one cursor per
    column, max-repetitions sized to the row span; a larger table
    continues from per-column cursors until every requested row (or
    endOfMibView) is reached.  sysUpTime rides only the first exchange,
    so later rows are read a round trip or two after the uptime they are
    paired with -- the paper's "abnormally small value followed by an
    abnormally large one".  Per column the walk keeps a cursor row (the
    request cursor is ``column.extend(cursor_row)``), a done flag and the
    table of rows filed so far.  :func:`_read_columns` classifies rows by
    column prefix, not position, so both this model's column-major
    response layout and RFC 1905's row-interleaved one are understood.
    """

    __slots__ = (
        "manager", "dst_ip", "columns", "callback", "errback", "community",
        "max_idx", "cursor_rows", "done", "tables", "uptime", "exchanges",
        "include_uptime",
    )

    def __init__(
        self, manager: SnmpManager, dst_ip: IPv4Address, if_indexes: Sequence[int],
        columns: _ColumnSet, callback: Callable, errback: Optional[ErrorCallback],
        include_uptime: bool, community: Optional[str],
    ) -> None:
        self.manager = manager
        self.dst_ip = dst_ip
        self.columns = columns
        self.callback = callback
        self.errback = errback
        self.community = community
        self.max_idx = int(max(if_indexes))
        # A cursor row is the last row seen in a column (exclusive):
        # GetBulk resumes at get_next(column.cursor_row).  Seeding at row
        # min-1 makes the first returned row the first one we want.
        n = len(columns.columns)
        self.cursor_rows: List[int] = [int(min(if_indexes)) - 1] * n
        self.done: List[bool] = [False] * n
        self.tables: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(n)]
        self.uptime: Optional[int] = None  # the sysUpTime non-repeater result
        self.exchanges = 0
        self.include_uptime = include_uptime

    def issue(self) -> None:
        """Send the next exchange of the walk: one cursor per live column."""
        rows = tuple([None if done else row for row, done in zip(self.cursor_rows, self.done)])
        reps = self.max_idx - min([row for row in rows if row is not None])
        reps = max(1, min(reps, MAX_BULK_REPETITIONS))
        uptime = self.include_uptime and self.exchanges == 0  # the one non-repeater
        self.exchanges += 1
        manager = self.manager
        request_id = next(manager._request_ids)
        varbinds = _poll_varbinds(self.columns.columns, rows, uptime, bulk=True)
        pdu = encode_pdu(ber.TAG_GET_BULK_REQUEST, request_id, int(uptime), reps, varbinds)
        manager._send(
            request_id, pdu, self.dst_ip, self._on_response, self.errback,
            self.community, (self.dst_ip, self.columns, varbinds),
        )

    def _on_response(self, reading: _Reading) -> None:
        if self.include_uptime and self.exchanges == 1:
            # Asked for on the first exchange only; any other varbind
            # outside the columns is where an exhausted column walked to.
            self.uptime = reading.uptime
        # Filing is a pure function of the rows and this state: rows that
        # changed but kept column, row and kind change only their cells.
        state = (self.max_idx, *self.cursor_rows, *self.done)
        filed, rows = reading.basis, reading.rows
        if filed is not None and filed[0] == state and all(
            old[:2] == rows[at][:2]
            and (old[2] in _EXCEPTION_TAGS) == (rows[at][2] in _EXCEPTION_TAGS)
            for at, old in reading.changed
        ):
            cells, filed_at = filed[1], filed[4]
            for at, _old in reading.changed:
                if filed_at[at]:
                    column, row, tag, value = rows[at]
                    cells[column][row] = (tag, value)
        else:
            filed = self._file(rows, state)
        _state, cells, cursor_rows, done, _filed_at = reading.filed = filed
        for table, new in zip(self.tables, cells):
            table.update(new)  # the walk's own dicts: none is handed out twice
        self.cursor_rows, self.done = list(cursor_rows), list(done)
        if all(done) or self.exchanges >= MAX_WALK_EXCHANGES:
            self.callback((self.uptime, dict(zip(self.columns.columns, self.tables))))
        else:
            self.issue()

    def _file(self, rows: List[Tuple[int, int, int, int]], state: tuple) -> tuple:
        """One exchange's filing: (state, cells, cursor rows, done, filed)."""
        done, cursor_rows, max_idx = list(self.done), list(self.cursor_rows), self.max_idx
        cells: List[Dict[int, Tuple[int, int]]] = [{} for _ in done]
        filed_at = [False] * len(rows)
        progressed: set = set()
        for at, (column, row, tag, value) in enumerate(rows):
            if done[column]:
                continue
            if tag in _EXCEPTION_TAGS:
                done[column] = True
                continue
            if row <= cursor_rows[column]:
                continue  # duplicate/stale; progress judged per column below
            if row > max_idx:
                done[column] = True
                continue
            cells[column][row] = (tag, value)
            filed_at[at] = True
            cursor_rows[column] = row
            progressed.add(column)
            if row == max_idx:
                done[column] = True
        # A column that neither advanced nor terminated would loop the
        # same cursor forever (e.g. the whole column is absent and the
        # agent's walk left the table immediately): declare it done.
        for column in range(len(done)):
            if not done[column] and column not in progressed:
                done[column] = True
        return state, cells, cursor_rows, done, filed_at
