"""Wire-level delta shipping for rate samples (the dataflow layer).

Workers (and leaf coordinators) ship rate samples upstream every poll
cycle.  At 10k-host scale a self-describing batch is dominated by bytes
that never change: node names, interface indexes, and -- on a quiescent
network -- the rates themselves, which sit at exactly ``0.0`` cycle after
cycle.  This module defines the plane's one sample wire format: a compact
binary batch in which a sender tracks the last value it shipped per
(node, ifIndex) key and encodes only what changed:

``full``
    First appearance of a key: numeric id assignment, node name,
    ifIndex, and all six float fields.  Ids are monotonic and never
    reused within an incarnation.
``changed``
    Known key whose rates moved: id plus the six float fields.
``advance``
    Known key whose four rates are bit-identical to the last shipped
    sample: id, new sample time, new interval.  ~18 bytes instead of
    the ~60 of a full record.
``advance (same interval)``
    As above with the interval also unchanged: id and time only.
``refresh``
    Keyframe filler: re-states a key's mapping and last value for
    resynchronising receivers, but is *not* delivered as a sample (a
    receiver that was never desynchronised must not see duplicate
    samples: the coordinator's rate table receives exactly the samples
    the pollers produced).

Floats travel as IEEE-754 doubles (``struct '<d'``), so a decoded sample
is **bit-identical** to the sample the sender measured -- delta encoding
changes the wire cost, never the data.

Every batch carries a (worker, incarnation, seq) envelope for the
sequencing/ARQ machinery in :mod:`repro.core.distributed` and flags the
last of its sender's poll cycle; control messages (heartbeats, assignments,
retransmit requests) stay JSON, told apart by the first byte.  Decoding is
split into a stateless :func:`parse_delta` (safe on out-of-order arrivals,
feeds the reorder buffer) and a stateful :meth:`DeltaDecoder.apply` that
must run in sequence order at delivery time.

Loss recovery: after an abandoned sequence gap the receiver's last-value
table is stale, so ``advance`` records can no longer be trusted --
:meth:`DeltaDecoder.mark_desync` drops them (``full``/``changed`` carry
complete values and stay safe) until a keyframe re-states every key.
``DeltaDecoder.needs_keyframe`` tells the receiver to ask the sender for
one (the ``kfreq`` control message); senders also emit a keyframe every
``keyframe_every`` batches as a backstop.
"""

from __future__ import annotations

import dataclasses
import re
import struct
from functools import lru_cache
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.poller import InterfaceRates

DELTA_MAGIC = 0xD7

_FLAG_KEYFRAME = 0x01
_FLAG_CLOSES = 0x02  # the last batch of the sender's poll cycle

REC_FULL = 0
REC_CHANGED = 1
REC_ADVANCE = 2
REC_ADVANCE_SAME_D = 3
REC_REFRESH = 4

_F64 = struct.Struct("<d")
# A steady record with a one-byte id: type, id, time -- ten bytes.  A run
# of them (up to _STEADY_MAX at a time) is one match and one unpack.
_STEADY_RUN = re.compile(rb"(?:\x03[\x00-\x7f].{8})+", re.DOTALL)  # \x03: REC_ADVANCE_SAME_D
_STEADY_SIZE, _STEADY_MAX = 10, 128


@lru_cache(maxsize=_STEADY_MAX)
def _steady_struct(n: int) -> struct.Struct:
    """A run of ``n`` steady records: ``(3, id, time)`` each, flat."""
    return struct.Struct("<" + "BBd" * n)


_F64X2 = struct.Struct("<2d")
_F64X6 = struct.Struct("<6d")
# What follows the id of a record that names no key: its floats, and
# what a truncated one is called.
_UNKEYED = {
    REC_CHANGED: (_F64X6, "changed"),
    REC_ADVANCE: (_F64X2, "advance"),
    REC_ADVANCE_SAME_D: (_F64, "advance"),
}


class DeltaError(ValueError):
    """Raised on malformed delta payloads."""


# ----------------------------------------------------------------------
# Varints (LEB128, unsigned)
# ----------------------------------------------------------------------
def _put_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise DeltaError(f"negative varint {value!r}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _get_varint(data: bytes, pos: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise DeltaError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise DeltaError("varint too long")


def _put_str(out: bytearray, text: str) -> None:
    raw = text.encode()
    _put_varint(out, len(raw))
    out.extend(raw)


def _get_str(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _get_varint(data, pos)
    if pos + length > len(data):
        raise DeltaError("truncated string")
    try:
        return data[pos : pos + length].decode(), pos + length
    except UnicodeDecodeError as exc:
        raise DeltaError(f"name is not UTF-8: {exc}") from None


def is_delta(payload: bytes) -> bool:
    """Whether a datagram is a sample batch (vs a JSON control message)."""
    return len(payload) > 0 and payload[0] == DELTA_MAGIC


@dataclasses.dataclass(slots=True, eq=False)
class DeltaBatch:
    """A parsed (but not yet applied) delta batch."""

    worker: str
    incarnation: int
    seq: int
    keyframe: bool
    records: List[tuple]  # (rec_type, id, node|None, if_index|None, fields-tuple|None)
    closes: bool  # the last batch of the sender's poll cycle


def parse_delta(payload: bytes) -> DeltaBatch:
    """Stateless wire parse; raises :class:`DeltaError` when malformed.

    Safe to call on out-of-order arrivals -- applying the records to the
    receiver's last-value state (:meth:`DeltaDecoder.apply`) is the part
    that must wait for sequence order.  A run of steady records
    (``ADVANCE_SAME_D`` with one-byte ids, a quiet network's every record)
    is found by one regex match and unpacked by one cached ``Struct``,
    capped at the records ``count`` has left: no Python call a record.  A
    keyed record's short name and ifIndex are read in place.  Record for
    record and error for error the record-at-a-time parse.
    """
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
    end = len(payload)
    left = count
    while left:
        if pos >= end:
            raise DeltaError("truncated record")
        rec_type = payload[pos]
        if rec_type == REC_ADVANCE_SAME_D:
            # A run of steady records with one-byte ids, unpacked whole.
            run = _STEADY_RUN.match(payload, pos, pos + _STEADY_SIZE * _STEADY_MAX)
            if run is not None:
                n = min((run.end() - pos) // _STEADY_SIZE, left)
                flat = _steady_struct(n).unpack_from(payload, pos)
                records += zip(flat[::3], flat[1::3], repeat(None), repeat(None), zip(flat[2::3]))
                pos += n * _STEADY_SIZE
                left -= n
                continue
        left -= 1
        # An id below 128 is its own varint: read the byte in place.
        if pos + 1 < end and payload[pos + 1] < 0x80:
            rec_id = payload[pos + 1]
            pos += 2
        else:
            rec_id, pos = _get_varint(payload, pos + 1)
        if rec_type in (REC_FULL, REC_REFRESH):
            # A name shorter than 128 bytes and an ifIndex below 128 are
            # read in place; anything else by the helpers, which word the
            # errors.
            at = pos + 1 + payload[pos] if pos < end else end  # the ifIndex
            node = None
            if at < end and payload[pos] < 0x80 and payload[at] < 0x80:
                try:
                    node, if_index = payload[pos + 1 : at].decode(), payload[at]
                    pos = at + 1
                except UnicodeDecodeError:
                    pass
            if node is None:
                node, pos = _get_str(payload, pos)
                if_index, pos = _get_varint(payload, pos)
            floats, what = _F64X6, "full"
        elif rec_type in _UNKEYED:
            node = if_index = None
            floats, what = _UNKEYED[rec_type]
        else:
            raise DeltaError(f"unknown record type {rec_type!r}")
        if pos + floats.size > end:
            raise DeltaError(f"truncated {what} record")
        records.append((rec_type, rec_id, node, if_index, floats.unpack_from(payload, pos)))
        pos += floats.size
    if pos != end:
        raise DeltaError("trailing bytes in delta batch")
    closes = bool(flags & _FLAG_CLOSES)
    return DeltaBatch(worker, incarnation, seq, bool(flags & _FLAG_KEYFRAME), records, closes)


class DeltaEncoder:
    """Sender-side last-shipped tracking and batch encoding."""

    def __init__(self, worker: str) -> None:
        self.worker = worker
        self._ids: Dict[Tuple[str, int], int] = {}
        self._last: Dict[int, Tuple[float, ...]] = {}
        self._next_id = 1
        self._kf_pending = True  # the first batch always maps every id
        self._pool: Optional[Set[Tuple[str, int]]] = None  # None: remember every key
        self.records_full = 0
        self.records_changed = 0
        self.records_advance = 0
        self.records_refresh = 0
        self.keyframes = 0

    def force_keyframe(self) -> None:
        """Make the next batch a keyframe (receiver asked via ``kfreq``)."""
        self._kf_pending = True

    def follow(self, keys: Set[Tuple[str, int]]) -> None:
        """Remember only ``keys``, the interfaces now polled: every other
        key's id and last values go, so no keyframe re-states it.  A
        sample of another key (one polled before, still queued or on its
        way up) travels FULL under a fresh id and is forgotten at once.
        An id is never reused (``_next_id`` only grows), so a key that
        comes back travels FULL under a new one."""
        self._pool = keys
        for key in [key for key in self._ids if key not in keys]:
            del self._last[self._ids.pop(key)]

    def encode(
        self, incarnation: int, seq: int, samples: Sequence[InterfaceRates],
        keyframe: bool = False, closes: bool = False,
    ) -> bytes:
        """Encode one batch (``closes``: its cycle's last); consumes a pending keyframe request."""
        kf = keyframe or self._kf_pending
        self._kf_pending = False
        body = bytearray()
        ids = self._ids
        for sample in samples:
            key = (sample.node, sample.if_index)
            fields = (  # the six floats of a sample, in wire order
                sample.time,
                sample.interval,
                sample.in_bytes_per_s,
                sample.out_bytes_per_s,
                sample.in_pkts_per_s,
                sample.out_pkts_per_s,
            )
            rec_id = ids.get(key)
            if rec_id is None:
                rec_id = self._next_id
                self._next_id += 1
                if self._pool is None or key in self._pool:
                    ids[key] = rec_id
                    self._last[rec_id] = fields
            elif kf:
                self._last[rec_id] = fields
            else:
                last = self._last[rec_id]
                if fields[2:] != last[2:]:
                    rec_type, packed = REC_CHANGED, _F64X6.pack(*fields)
                    self.records_changed += 1
                elif fields[1] != last[1]:
                    rec_type, packed = REC_ADVANCE, _F64X2.pack(fields[0], fields[1])
                    self.records_advance += 1
                else:
                    rec_type, packed = REC_ADVANCE_SAME_D, _F64.pack(fields[0])
                    self.records_advance += 1
                self._last[rec_id] = fields
                body.append(rec_type)
                if rec_id < 0x80:
                    body.append(rec_id)  # an id below 128 is its own varint
                else:
                    _put_varint(body, rec_id)
                body += packed
                continue
            # A key's first appearance -- and, inside a keyframe, every
            # delivered sample -- travels full, so a reset receiver can
            # rebuild its maps.
            self._encode_keyed(body, REC_FULL, rec_id, key[0], key[1], fields)
            self.records_full += 1
        records = len(samples)
        if kf:
            # Re-state every key the batch did not touch, as map-only
            # refresh records (not delivered as samples downstream).  Ids
            # are handed out in insertion order: the map is already sorted.
            touched = {ids.get((sample.node, sample.if_index)) for sample in samples}
            for key, rec_id in ids.items():
                if rec_id in touched:
                    continue
                self._encode_keyed(body, REC_REFRESH, rec_id, key[0], key[1],
                                   self._last[rec_id])
                self.records_refresh += 1
                records += 1
            self.keyframes += 1
        out = bytearray([DELTA_MAGIC, _FLAG_KEYFRAME * kf | _FLAG_CLOSES * closes])  # bools
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

    def reset(self) -> None:
        """Forget everything (sender restarted: new incarnation)."""
        self._ids.clear()
        self._last.clear()
        self._next_id = 1
        self._kf_pending = True


class DeltaDecoder:
    """Receiver-side last-value state; apply batches in sequence order."""

    def __init__(self) -> None:
        self._keys: Dict[int, Tuple[str, int]] = {}
        self._last: Dict[int, Tuple[float, ...]] = {}
        self.desync = False
        self.needs_keyframe = False
        self.samples_skipped = 0

    def mark_desync(self) -> None:
        """An upstream batch was lost for good: advance records are now
        built on values this decoder never saw."""
        self.desync = True
        self.needs_keyframe = True

    def apply(self, batch: DeltaBatch) -> List[InterfaceRates]:
        """Fold one in-order batch in; returns the delivered samples."""
        out: List[InterfaceRates] = []
        for rec_type, rec_id, node, if_index, fields in batch.records:
            if rec_type in (REC_FULL, REC_REFRESH):
                self._keys[rec_id] = (node, if_index)
                self._last[rec_id] = fields
                if rec_type == REC_FULL:
                    out.append(InterfaceRates(node, if_index, *fields))
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
                out.append(InterfaceRates(key[0], key[1], *fields))
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
                out.append(InterfaceRates(key[0], key[1], *new))
        if batch.keyframe:
            # Every key was just re-stated: advance records are safe again.
            self.desync = False
            self.needs_keyframe = False
        return out

    def reset(self) -> None:
        """Forget everything (sender restarted: new incarnation)."""
        self._keys.clear()
        self._last.clear()
        self.desync = False
        self.needs_keyframe = False
