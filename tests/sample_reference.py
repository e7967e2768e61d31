"""The sample path as it was before it was made cheap, kept as the
reference the cheap one is held equal to.

Until PR 20 a polled interface's sample cost 57 Python calls between the
decoded poll reply and the root's rate table.  What it costs now is in
``docs/architecture.md`` ("A sample"); what it *does* must not
have moved, and the bodies below -- the parent commit's, verbatim, hung
on subclasses of today's classes so that construction, configuration and
everything that was not rewritten is shared -- are how the tests know:

- :class:`ReferencePipeline` is the old ``IntegrityPipeline.inspect``: a
  ``SampleContext`` per sample, four validators each returning a list,
  ``_record_verdicts``, ``quarantine.apply`` / ``record_clean`` by key,
  ``_sync_trust_gauge`` through a dict of gauge children.  Its validators
  (:class:`ReferenceStuck` replaces its ``[streak, was_active]`` list on
  every call) and its :class:`ReferenceQuarantine` (``_update_state``
  after every call) are the old ones too.
- :class:`ReferenceEncoder`, :func:`reference_parse_delta` and
  :class:`ReferenceDecoder` are the old delta codec: ``_fields`` /
  ``_sample`` per record, every id through the general varint loop.
- :class:`ReferenceShipper`, :func:`reference_enqueue`,
  :func:`reference_deliver` and :func:`reference_accept` are the old
  sample-at-a-time uplink: the ingest hands its sink one sample, the
  endpoint queues it and flushes when the shipper says the batch is full.
  :func:`make_reference` hangs them on an unstarted monitor tree.
- :class:`ReferencePoller` is the old reply parser and ``_ingest``: a raw
  snapshot per interface and every sample derived, moved or not.

Nothing here is called by the product.
"""

from typing import List, Sequence, Tuple

from repro.core.deltas import (
    _F64,
    _F64X6,
    _FLAG_KEYFRAME,
    DELTA_MAGIC,
    REC_ADVANCE,
    REC_ADVANCE_SAME_D,
    REC_CHANGED,
    REC_FULL,
    REC_REFRESH,
    DeltaBatch,
    DeltaDecoder,
    DeltaEncoder,
    DeltaError,
    _get_str,
    _get_varint,
    _put_str,
    _put_varint,
    is_delta,
)
from repro.core.distributed import RESEND_BUFFER, SampleShipper
from repro.core.poller import (
    _ABSENT,
    _ALL_COUNTER32,
    _COLUMNS,
    _WRAP,
    InterfaceRates,
    PollTarget,
    SnmpPoller,
    _CounterSnapshot,
)
from repro.integrity.pipeline import IntegrityPipeline
from repro.integrity.quarantine import QuarantineManager, TrustRecord
from repro.integrity.validators import (
    _COUNTER_SPAN,
    IntegrityVerdict,
    RateBoundValidator,
    SampleContext,
    Severity,
    SpeedValidator,
    StuckCounterValidator,
    WrapRiskValidator,
    wrap_period_seconds,
)
from repro.snmp.ber import TAG_GAUGE32, TAG_INTEGER
from repro.snmp.mib import IF_OPER_STATUS, IF_SPEED, IF_STATUS_UP
from repro.telemetry.events import AGENT_RESTART, CROSS_CHECK_MISMATCH, INTEGRITY_VIOLATION


# ----------------------------------------------------------------------
# Integrity: validators, quarantine, pipeline
# ----------------------------------------------------------------------
class ReferenceRateBound(RateBoundValidator):
    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        speed = ctx.polled_speed_bps or ctx.speed_bps
        if not speed:
            return []
        limit = (speed / 8.0) * (1.0 + self.tolerance)
        verdicts: List[IntegrityVerdict] = []
        # Remotely shipped samples arrive without raw snapshots; the rate
        # bound still applies, only the regression diagnosis is skipped.
        have_raw = ctx.prev is not None and ctx.cur is not None
        directions = (
            (
                "in",
                ctx.sample.in_bytes_per_s,
                ctx.cur.octets_in if have_raw else None,
                ctx.prev.octets_in if have_raw else None,
            ),
            (
                "out",
                ctx.sample.out_bytes_per_s,
                ctx.cur.octets_out if have_raw else None,
                ctx.prev.octets_out if have_raw else None,
            ),
        )
        for name, rate, cur, prev in directions:
            if rate <= limit:
                continue
            regressed = have_raw and cur < prev
            verdicts.append(
                IntegrityVerdict(
                    check="counter_regression" if regressed else "rate_bound",
                    severity=Severity.VIOLATION,
                    node=ctx.sample.node,
                    if_index=ctx.sample.if_index,
                    time=ctx.sample.time,
                    detail=(
                        f"{name} rate {rate:.0f} B/s exceeds"
                        f" {limit:.0f} B/s ({speed / 1e6:.0f} Mb/s"
                        f" +{self.tolerance:.0%})"
                        + (" after raw counter regression" if regressed else "")
                    ),
                )
            )
        return verdicts


class ReferenceStuck(StuckCounterValidator):
    @staticmethod
    def _frozen(ctx: SampleContext) -> bool:
        prev, cur = ctx.prev, ctx.cur
        if prev is None or cur is None:
            # No raw snapshots (remotely shipped sample): fall back to the
            # derived figures -- all-zero rates mean the counters did not
            # move over the sample's interval.
            s = ctx.sample
            return (
                s.in_bytes_per_s == 0.0
                and s.out_bytes_per_s == 0.0
                and s.in_pkts_per_s == 0.0
                and s.out_pkts_per_s == 0.0
            )
        return (
            cur.octets_in == prev.octets_in
            and cur.octets_out == prev.octets_out
            and cur.ucast_in == prev.ucast_in
            and cur.ucast_out == prev.ucast_out
        )

    def forget(self, node: str, if_index: int) -> None:
        """Drop streak state (agent restarted: baselines are new)."""
        self._state.pop((node, if_index), None)

    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        key = (ctx.sample.node, ctx.sample.if_index)
        streak, was_active = self._state.get(key, (0, False))
        if self._frozen(ctx):
            streak += 1
        else:
            streak, was_active = 0, True
        self._state[key] = [streak, was_active]
        if was_active and streak >= self.stuck_after:
            return [
                IntegrityVerdict(
                    check="stuck_counters",
                    severity=Severity.SUSPECT,
                    node=ctx.sample.node,
                    if_index=ctx.sample.if_index,
                    time=ctx.sample.time,
                    detail=(
                        f"counters frozen for {streak} consecutive polls"
                        " after earlier activity"
                    ),
                    decays_trust=self.decay_trust,
                )
            ]
        return []


class ReferenceSpeed(SpeedValidator):
    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        declared, polled = ctx.speed_bps, ctx.polled_speed_bps
        if not declared or polled is None or declared >= _COUNTER_SPAN:
            return []
        if abs(polled - declared) <= declared * self.rel_tolerance:
            return []
        return [
            IntegrityVerdict(
                check="speed_mismatch",
                severity=Severity.VIOLATION,
                node=ctx.sample.node,
                if_index=ctx.sample.if_index,
                time=ctx.sample.time,
                detail=(
                    f"agent claims ifSpeed {polled / 1e6:g} Mb/s,"
                    f" topology declares {declared / 1e6:g} Mb/s"
                ),
            )
        ]


class ReferenceWrapRisk(WrapRiskValidator):
    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        speed = ctx.speed_bps
        if not speed:
            return []
        half_wrap = wrap_period_seconds(speed) / 2.0
        if ctx.sample.interval <= half_wrap:
            return []
        return [
            IntegrityVerdict(
                check="wrap_risk",
                severity=Severity.SUSPECT,
                node=ctx.sample.node,
                if_index=ctx.sample.if_index,
                time=ctx.sample.time,
                detail=(
                    f"measured interval {ctx.sample.interval:.0f} s exceeds"
                    f" half the Counter32 wrap period ({half_wrap:.0f} s at"
                    f" {speed / 1e6:g} Mb/s); a double wrap would go unseen"
                ),
                decays_trust=False,
            )
        ]


class ReferenceQuarantine(QuarantineManager):
    def record(self, node: str, if_index: int) -> TrustRecord:
        return self._records.setdefault((node, if_index), TrustRecord())

    def apply(self, node, if_index, verdicts, now) -> TrustRecord:
        """Decay trust per the verdicts, then update quarantine state."""
        rec = self.record(node, if_index)
        for verdict in verdicts:
            rec.last_verdict = verdict
            if verdict.severity is Severity.VIOLATION:
                rec.violations += 1
                if verdict.decays_trust:
                    rec.score *= self.violation_decay
            elif verdict.severity is Severity.SUSPECT:
                rec.suspects += 1
                if verdict.decays_trust:
                    rec.score *= self.suspect_decay
        self._update_state(node, if_index, rec, now)
        return rec

    def record_clean(self, node: str, if_index: int, now: float) -> TrustRecord:
        """A poll passed every validator: recover some trust."""
        rec = self.record(node, if_index)
        rec.score = min(1.0, rec.score + self.recover_step)
        self._update_state(node, if_index, rec, now)
        return rec


class ReferencePipeline(IntegrityPipeline):
    """Today's construction, the parent's per-sample and verdict paths."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self._stuck = ReferenceStuck(
            stuck_after=cfg.stuck_after, decay_trust=cfg.stuck_decays_trust
        )
        self._validators = [
            ReferenceRateBound(tolerance=cfg.rate_tolerance),
            self._stuck,
            ReferenceSpeed(rel_tolerance=cfg.speed_rel_tolerance),
            ReferenceWrapRisk(),
        ]
        self.quarantine = ReferenceQuarantine(
            quarantine_below=cfg.quarantine_below,
            release_above=cfg.release_above,
            violation_decay=cfg.violation_decay,
            suspect_decay=cfg.suspect_decay,
            recover_step=cfg.recover_step,
            events=self.telemetry.events,
        )
        self._trust_gauges = {}  # labelled child per interface
        self._transitions_synced = 0  # enter + release transitions the aggregates show

    def inspect(self, sample, prev, cur, polled_speed_bps=None) -> bool:
        """Validate one sample; return True when it may enter the table."""
        key = (sample.node, sample.if_index)
        self._shadow[key] = sample
        ctx = SampleContext(
            sample=sample,
            prev=prev,
            cur=cur,
            speed_bps=self.speeds.get(key),
            polled_speed_bps=polled_speed_bps,
            configured_interval=self.poll_interval,
        )
        verdicts: List[IntegrityVerdict] = []
        for validator in self._validators:
            verdicts.extend(validator.check(ctx))
        violating = [v for v in verdicts if v.severity is Severity.VIOLATION]
        suspects = [v for v in verdicts if v.severity is Severity.SUSPECT]
        if verdicts:
            self._record_verdicts(key, verdicts, sample.time)
            rec = self.quarantine.apply(key[0], key[1], verdicts, sample.time)
        if not violating and not suspects:
            rec = self.quarantine.record_clean(key[0], key[1], sample.time)
        self._sync_trust_gauge(key, rec)
        if violating:
            self._metrics["rejected"].inc()
            return False  # demonstrably wrong: never let it into the table
        if rec.quarantined:
            self._metrics["rejected"].inc()
            return False
        return True

    def note_restart(self, node: str, if_index: int) -> None:
        """Agent restarted: streak state is meaningless, drop it."""
        self._stuck.forget(node, if_index)

    def run_cross_checks(self, now: float) -> List[IntegrityVerdict]:
        if self.cross_checker is None:
            return []
        window = self.config.offender_window_polls * self.poll_interval

        def recent_offender(node: str, if_index: int) -> bool:
            last = self._last_offence.get((node, if_index))
            return last is not None and (now - last) <= window

        applied: List[IntegrityVerdict] = []
        for finding in self.cross_checker.check(self._shadow, now, recent_offender):
            if not finding.mismatch:
                continue
            self._metrics["cross_mismatches"].inc()
            self.telemetry.events.publish(
                CROSS_CHECK_MISMATCH,
                now,
                pair=finding.pair.label,
                blamed=finding.blamed,
                detail=finding.detail,
            )
            verdicts = self.cross_checker.verdicts_for(finding)
            for verdict in verdicts:
                key = (verdict.node, verdict.if_index)
                self._record_verdicts(key, [verdict], now)
                self._sync_trust_gauge(
                    key, self.quarantine.apply(key[0], key[1], [verdict], now)
                )
            applied.extend(verdicts)
        return applied

    def apply_external_verdicts(self, verdicts, now: float) -> None:
        for verdict in verdicts:
            key = (verdict.node, verdict.if_index)
            self._record_verdicts(key, [verdict], now)
            self._sync_trust_gauge(
                key, self.quarantine.apply(key[0], key[1], [verdict], now)
            )

    def _record_verdicts(self, key, verdicts, now: float) -> None:
        for verdict in verdicts:
            if verdict.severity is Severity.VIOLATION:
                self._metrics["violations"].inc()
                self._metrics["violations_by_check"].labels(check=verdict.check).inc()
                self._last_offence[key] = now
                self.telemetry.events.publish(
                    INTEGRITY_VIOLATION,
                    now,
                    check=verdict.check,
                    node=verdict.node,
                    if_index=verdict.if_index,
                    detail=verdict.detail,
                )
                if self.health is not None:
                    self.health.record_data_violation(verdict.node, now)
            elif verdict.severity is Severity.SUSPECT:
                self._metrics["suspects"].inc()
                if verdict.check == "stuck_counters":
                    # Frozen counters are offender evidence for the
                    # cross-checker even though they do not decay trust.
                    self._last_offence[key] = now

    def _sync_trust_gauge(self, key, rec: TrustRecord) -> None:
        gauge = self._trust_gauges.get(key)
        if gauge is None:
            gauge = self._trust_gauges[key] = self._metrics["trust"].labels(
                interface=f"{key[0]}:{key[1]}"
            )
        gauge.set(round(rec.score, 4))
        totals = self.quarantine
        transitions = totals.quarantines + totals.releases
        if transitions == self._transitions_synced:
            return  # the aggregates move at enter/release only
        self._transitions_synced = transitions
        metrics = self._metrics
        metrics["quarantined"].set(float(totals.quarantined))
        behind = totals.quarantines - metrics["quarantines"].value
        if behind > 0:
            metrics["quarantines"].inc(behind)
        behind = totals.releases - metrics["releases"].value
        if behind > 0:
            metrics["releases"].inc(behind)


# ----------------------------------------------------------------------
# Uplink: the delta codec
# ----------------------------------------------------------------------
# Six float fields of a sample, in wire order.
def _fields(sample: InterfaceRates) -> Tuple[float, float, float, float, float, float]:
    return (
        sample.time,
        sample.interval,
        sample.in_bytes_per_s,
        sample.out_bytes_per_s,
        sample.in_pkts_per_s,
        sample.out_pkts_per_s,
    )


def _sample(node: str, if_index: int, fields: Sequence[float]) -> InterfaceRates:
    return InterfaceRates(
        node=node,
        if_index=if_index,
        time=fields[0],
        interval=fields[1],
        in_bytes_per_s=fields[2],
        out_bytes_per_s=fields[3],
        in_pkts_per_s=fields[4],
        out_pkts_per_s=fields[5],
    )


def reference_parse_delta(payload: bytes) -> DeltaBatch:
    if not is_delta(payload):
        raise DeltaError("not a delta batch")
    pos = 1
    if pos >= len(payload):
        raise DeltaError("truncated flags")
    flags = payload[pos]
    pos += 1
    worker, pos = _get_str(payload, pos)
    incarnation, pos = _get_varint(payload, pos)
    seq, pos = _get_varint(payload, pos)
    count, pos = _get_varint(payload, pos)
    records: List[tuple] = []
    for _ in range(count):
        if pos >= len(payload):
            raise DeltaError("truncated record")
        rec_type = payload[pos]
        pos += 1
        rec_id, pos = _get_varint(payload, pos)
        if rec_type in (REC_FULL, REC_REFRESH):
            node, pos = _get_str(payload, pos)
            if_index, pos = _get_varint(payload, pos)
            if pos + _F64X6.size > len(payload):
                raise DeltaError("truncated full record")
            fields = _F64X6.unpack_from(payload, pos)
            pos += _F64X6.size
            records.append((rec_type, rec_id, node, if_index, fields))
        elif rec_type == REC_CHANGED:
            if pos + _F64X6.size > len(payload):
                raise DeltaError("truncated changed record")
            fields = _F64X6.unpack_from(payload, pos)
            pos += _F64X6.size
            records.append((rec_type, rec_id, None, None, fields))
        elif rec_type == REC_ADVANCE:
            if pos + 2 * _F64.size > len(payload):
                raise DeltaError("truncated advance record")
            t = _F64.unpack_from(payload, pos)[0]
            d = _F64.unpack_from(payload, pos + _F64.size)[0]
            pos += 2 * _F64.size
            records.append((rec_type, rec_id, None, None, (t, d)))
        elif rec_type == REC_ADVANCE_SAME_D:
            if pos + _F64.size > len(payload):
                raise DeltaError("truncated advance record")
            t = _F64.unpack_from(payload, pos)[0]
            pos += _F64.size
            records.append((rec_type, rec_id, None, None, (t,)))
        else:
            raise DeltaError(f"unknown record type {rec_type!r}")
    if pos != len(payload):
        raise DeltaError("trailing bytes in delta batch")
    return DeltaBatch(worker, incarnation, seq, bool(flags & _FLAG_KEYFRAME), records)


class ReferenceEncoder(DeltaEncoder):
    def encode(self, incarnation, seq, samples, keyframe: bool = False) -> bytes:
        """Encode one batch; consumes any pending keyframe request."""
        kf = keyframe or self._kf_pending
        self._kf_pending = False
        body = bytearray()
        records = 0
        touched: set = set()
        for sample in samples:
            key = (sample.node, sample.if_index)
            fields = _fields(sample)
            rec_id = self._ids.get(key)
            if rec_id is None:
                rec_id = self._ids[key] = self._next_id
                self._next_id += 1
                self._encode_keyed(body, REC_FULL, rec_id, sample.node,
                                   sample.if_index, fields)
                self.records_full += 1
            else:
                last = self._last[rec_id]
                if kf:
                    # Inside a keyframe every delivered sample travels
                    # full, so a reset receiver can rebuild its maps.
                    self._encode_keyed(body, REC_FULL, rec_id, sample.node,
                                       sample.if_index, fields)
                    self.records_full += 1
                elif fields[2:] != last[2:]:
                    body.append(REC_CHANGED)
                    _put_varint(body, rec_id)
                    body.extend(_F64X6.pack(*fields))
                    self.records_changed += 1
                elif fields[1] != last[1]:
                    body.append(REC_ADVANCE)
                    _put_varint(body, rec_id)
                    body.extend(_F64.pack(fields[0]))
                    body.extend(_F64.pack(fields[1]))
                    self.records_advance += 1
                else:
                    body.append(REC_ADVANCE_SAME_D)
                    _put_varint(body, rec_id)
                    body.extend(_F64.pack(fields[0]))
                    self.records_advance += 1
            self._last[rec_id] = fields
            touched.add(rec_id)
            records += 1
        if kf:
            # Re-state every key the batch did not touch, as map-only
            # refresh records (not delivered as samples downstream).
            for key, rec_id in sorted(self._ids.items(), key=lambda kv: kv[1]):
                if rec_id in touched:
                    continue
                self._encode_keyed(body, REC_REFRESH, rec_id, key[0], key[1],
                                   self._last[rec_id])
                self.records_refresh += 1
                records += 1
            self.keyframes += 1
        out = bytearray([DELTA_MAGIC, _FLAG_KEYFRAME if kf else 0])
        _put_str(out, self.worker)
        _put_varint(out, incarnation)
        _put_varint(out, seq)
        _put_varint(out, records)
        out.extend(body)
        return bytes(out)

    @staticmethod
    def _encode_keyed(body, rec_type, rec_id, node, if_index, fields) -> None:
        body.append(rec_type)
        _put_varint(body, rec_id)
        _put_str(body, node)
        _put_varint(body, if_index)
        body.extend(_F64X6.pack(*fields))


class ReferenceDecoder(DeltaDecoder):
    def apply(self, batch: DeltaBatch) -> List[InterfaceRates]:
        """Fold one in-order batch in; returns the delivered samples."""
        out: List[InterfaceRates] = []
        for rec_type, rec_id, node, if_index, fields in batch.records:
            if rec_type in (REC_FULL, REC_REFRESH):
                self._keys[rec_id] = (node, if_index)
                self._last[rec_id] = fields
                if rec_type == REC_FULL:
                    out.append(_sample(node, if_index, fields))
                continue
            key = self._keys.get(rec_id)
            if key is None:
                # Reset receiver (restart / adopted stream): the mapping
                # rode a batch we never saw.  Only a keyframe helps.
                self.samples_skipped += 1
                self.needs_keyframe = True
                continue
            if rec_type == REC_CHANGED:
                self._last[rec_id] = fields
                out.append(_sample(key[0], key[1], fields))
            elif rec_type == REC_ADVANCE or rec_type == REC_ADVANCE_SAME_D:
                if self.desync:
                    # The base values are stale; delivering would present
                    # pre-loss rates as current measurements.
                    self.samples_skipped += 1
                    self.needs_keyframe = True
                    continue
                last = self._last[rec_id]
                if rec_type == REC_ADVANCE:
                    new = (fields[0], fields[1]) + last[2:]
                else:
                    new = (fields[0],) + last[1:]
                self._last[rec_id] = new
                out.append(_sample(key[0], key[1], new))
        if batch.keyframe:
            # Every key was just re-stated: advance records are safe again.
            self.desync = False
            self.needs_keyframe = False
        return out


# ----------------------------------------------------------------------
# Uplink: the sample-at-a-time shipper, sink and delivery loop
# ----------------------------------------------------------------------
class ReferenceShipper(SampleShipper):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delta = ReferenceEncoder(self.name)

    def enqueue(self, sample: InterfaceRates) -> bool:
        """Queue one sample; True when the batch is full (caller flushes)."""
        self._pending.append(sample)
        return len(self._pending) >= self.max_batch

    def flush(self) -> None:
        if not self._pending:
            return
        seq = self.next_seq
        self.next_seq += 1
        samples = self._pending
        self._pending = []
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


def reference_enqueue(endpoint, sample: InterfaceRates) -> bool:
    """``UplinkEndpoint._enqueue``: an ingest's per-sample sink."""
    if endpoint.shipper.enqueue(sample):
        endpoint._flush()
    return True  # an ingest sink's "accepted"


def reference_accept(monitor, sample: InterfaceRates) -> bool:
    """``DistributedMonitor._accept``: the root's per-sample sink."""
    if monitor.integrity is not None and not monitor.integrity.inspect(sample, None, None):
        return False
    monitor.rates.update(sample)
    return True


def reference_deliver(ingest, sink, state, batch: DeltaBatch) -> None:
    """``SampleIngest._deliver`` with its per-sample ``sink``."""
    samples = state.delta.apply(batch)
    if state.delta.needs_keyframe:
        ingest._request_keyframe(state)
    ingest._m_batches.inc()
    for sample in samples:
        if not sink(sample):
            continue  # rejected or quarantined: never reaches the table
        ingest._m_samples.inc()
        # Fresh in-order data for this source: no longer known-lossy.
        ingest.degraded.clear(sample.node, sample.if_index)


def make_reference(tiers) -> None:
    """Put the old uplink on an unstarted :class:`tests.costs.ThreeTiers`:
    both shippers, both decoders, both delivery loops and both sinks."""
    worker, leaf, root = tiers.worker, tiers.leaf, tiers.root
    for endpoint in (worker, leaf):
        old = endpoint.shipper
        endpoint.shipper = ReferenceShipper(
            old.name, old.send, max_batch=old.max_batch,
            keyframe_every=old.keyframe_every,
        )
    worker.poller.on_sample = lambda sample: reference_enqueue(worker, sample)
    for ingest, sink in (
        (leaf.dm, lambda sample: reference_enqueue(leaf, sample)),
        (root, lambda sample: reference_accept(root, sample)),
    ):
        for state in ingest._ingest.values():
            state.delta = ReferenceDecoder()
        ingest._deliver = (
            lambda state, batch, ingest=ingest, sink=sink:
            reference_deliver(ingest, sink, state, batch)
        )


# ----------------------------------------------------------------------
# The worker's poller: a snapshot per interface, every sample derived
# ----------------------------------------------------------------------
class ReferencePoller(SnmpPoller):
    """The parent's reply parser and ``_ingest``: a ``_CounterSnapshot``
    per interface per reply, kept as the baseline; every sample derived
    by the modular arithmetic, moved or not; the uptime judged, and a
    restart counted and published, once per interface."""

    def _on_response(self, target: PollTarget, reply) -> None:
        self.health.record_success(target.node, self.sim.now)
        uptime, tables = reply
        if uptime is None:
            self._m_parse_errors.inc()
            return
        counters = [tables[col] for col in _COLUMNS]
        track_status = target.include_oper_status and self.on_status is not None
        statuses = tables[IF_OPER_STATUS] if track_status else {}
        speeds = tables[IF_SPEED] if target.include_speed else {}
        for index in dict.fromkeys(target.if_indexes):
            tag, status = statuses.get(index, _ABSENT)
            if tag == TAG_INTEGER:
                self.on_status(target.node, index, status == IF_STATUS_UP)
            tags, values = zip(*[table.get(index, _ABSENT) for table in counters])
            if tags != _ALL_COUNTER32:
                self._m_parse_errors.inc()
                continue
            tag, speed = speeds.get(index, _ABSENT)
            self._ingest(
                target.node, index, _CounterSnapshot(uptime, *values),
                float(speed) if tag == TAG_GAUGE32 else None,
            )
        if self._uncounted:
            self._m_samples.inc(self._uncounted)
            self._uncounted = 0

    def _ingest(self, node, if_index, snapshot, polled_speed=None) -> None:
        key = (node, if_index)
        previous = self._last.get(key)
        self._last[key] = snapshot
        if previous is None:
            return  # first poll only establishes the baseline
        seconds = ((snapshot.uptime - previous.uptime) % _WRAP) / 100.0
        if seconds <= 0:
            # Same-tick duplicate; drop the sample.
            return
        if seconds > self.max_plausible_interval:
            self._m_restarts.inc()
            self.telemetry.events.publish(
                AGENT_RESTART, self.sim.now, node=node, if_index=if_index
            )
            if self.integrity is not None:
                self.integrity.note_restart(node, if_index)
            return
        # "The old value is subtracted from the new one", modulo the wrap.
        in_pkts = (
            (snapshot.ucast_in - previous.ucast_in) % _WRAP
            + (snapshot.nucast_in - previous.nucast_in) % _WRAP
        )
        out_pkts = (
            (snapshot.ucast_out - previous.ucast_out) % _WRAP
            + (snapshot.nucast_out - previous.nucast_out) % _WRAP
        )
        sample = InterfaceRates(
            node=node,
            if_index=if_index,
            time=self.sim.now,
            interval=seconds,
            in_bytes_per_s=(snapshot.octets_in - previous.octets_in) % _WRAP / seconds,
            out_bytes_per_s=(snapshot.octets_out - previous.octets_out) % _WRAP / seconds,
            in_pkts_per_s=in_pkts / seconds,
            out_pkts_per_s=out_pkts / seconds,
        )
        self._uncounted += 1
        if self.integrity is not None and not self.integrity.inspect(
            sample, previous, snapshot, polled_speed
        ):
            return
        self.on_sample(sample)
