"""Wire-level delta shipping of counter readings (the dataflow layer).

Workers ship what the agents said; the root derives the rates with the
flat poller's own :meth:`~repro.core.poller.Derivation.derive`.  A batch
holds one **agent record** per agent that answered a poll -- the worker
that read it, sysUpTime ticks, the worker's receive time -- with an entry
per polled interface.  A sender keeps, per (node, ifIndex), an id and the
last six Counter32 values it shipped; an entry is

``same``  the id alone: the values equal the last shipped;
``moved`` the id and the six values as varints;
``full``  id, node, ifIndex and values.  It mints an id with the key's
          first reading -- an id new to the receiver marks a reading that
          only sets a baseline -- and inside a keyframe re-states one.

Integers travel as integers, so the root derives from exactly the
readings the worker took.  Ids are never reused within an incarnation:
a key the encoder forgot (:meth:`DeltaEncoder.follow`) mints a new one.

Every batch carries a (worker, incarnation, seq) envelope, flags the last
of its sender's poll cycle and names the workers whose readings it
carries (a leaf forwards its workers' readings, each tagged with the
worker that took it).  The closing batch is the sender's heartbeat: a
varint after the flags byte echoes the assignment version it applied,
and a leaf's names the ids it could not vouch for that cycle (flag
``0x04``).  Parsing (:func:`parse_delta`) is stateless;
:meth:`DeltaDecoder.apply` must run in sequence order.  A lost batch is a
missed poll (:mod:`repro.core.distributed`): the receiver keeps its id
table and baselines and only :meth:`DeltaDecoder.forget_values`, so a
``moved`` or ``full`` entry of a known id derives against the reading
before the loss, spanning it, and a ``same`` entry -- values the receiver
may never have seen -- is skipped until its id is re-stated.  A keyframe
re-states each agent's last reading, all ``full``: a receiver that lost
nothing reads readings it has (same sysUpTime, no sample), one that lost
values reads them again.  The receiver asks for one with ``kfreq``;
senders also send one every ``keyframe_every`` batches.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple

DELTA_MAGIC = 0xD7

_FLAG_KEYFRAME = 0x01
_FLAG_CLOSES = 0x02  # the last batch of the sender's poll cycle; av follows
_FLAG_UNVOUCHED = 0x04  # a count and that many ids follow av

# An entry's head is one varint: id << 2 | kind.
REC_SAME = 0
REC_MOVED = 1
REC_FULL = 2

_F64 = struct.Struct("<d")
_COUNTERS = 6  # the Counter32 columns of a reading, in poller._COLUMNS order

#: An agent's reading between tiers: ``(worker, node, uptime, time, rows,
#: first)``, rows ``(ifIndex, six counters)``, first the baseline-only ones.
Reading = Tuple[str, str, int, float, list, Sequence[int]]


class DeltaError(ValueError):
    """Raised on malformed delta payloads."""


# ----------------------------------------------------------------------
# Varints (LEB128, unsigned)
# ----------------------------------------------------------------------
def _put_varints(out: bytearray, values: Sequence[int]) -> None:
    """Each of ``values`` as a varint, in one loop: no call a value."""
    for value in values:
        if value < 0:
            raise DeltaError(f"negative varint {value!r}")
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)


def _get_varints(data: bytes, pos: int, n: int) -> Tuple[List[int], int]:
    """``n`` varints, read in one loop: no call a value."""
    values = []
    end = len(data)
    for _ in range(n):
        value = shift = 0
        while True:
            if pos >= end:
                raise DeltaError("truncated varint")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise DeltaError("varint too long")
        values.append(value)
    return values, pos


def _put_str(out: bytearray, text: str) -> None:
    raw = text.encode()
    _put_varints(out, (len(raw),))
    out.extend(raw)


def _get_str(data: bytes, pos: int) -> Tuple[str, int]:
    (length,), pos = _get_varints(data, pos, 1)
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
    names: List[str]  # the workers whose readings the batch carries
    #: ``(tag, uptime, time, entries)`` per agent record; an entry is
    #: ``(kind, id, (node, ifIndex) | None, six counters | None)``.
    records: List[tuple]
    closes: bool  # the last batch of the sender's poll cycle
    av: int = 0  # a closing batch's applied assignment version
    #: Ids of the interfaces the sender could not vouch for this cycle.
    unvouched: List[int] = dataclasses.field(default_factory=list)


def parse_delta(payload: bytes) -> DeltaBatch:
    """Stateless wire parse, safe on out-of-order arrivals; raises
    :class:`DeltaError` when malformed.  A ``same`` entry with an id below
    32 is one byte, read in place: no Python call an unmoved interface."""
    if not is_delta(payload):
        raise DeltaError("not a delta batch")
    if len(payload) < 2:
        raise DeltaError("truncated flags")
    flags, pos, av, unvouched = payload[1], 2, 0, []
    closes = bool(flags & _FLAG_CLOSES)
    if closes:
        (av,), pos = _get_varints(payload, pos, 1)
        if av >> 32:
            raise DeltaError(f"assignment version {av} out of range")
    if flags & _FLAG_UNVOUCHED:
        (count,), pos = _get_varints(payload, pos, 1)
        unvouched, pos = _get_varints(payload, pos, count)
    worker, pos = _get_str(payload, pos)
    (incarnation, seq, count), pos = _get_varints(payload, pos, 3)
    names = []
    for _ in range(count):
        name, pos = _get_str(payload, pos)
        names.append(name)
    (count,), pos = _get_varints(payload, pos, 1)
    records: List[tuple] = []
    end = len(payload)
    for _ in range(count):
        (tag, uptime), pos = _get_varints(payload, pos, 2)
        if tag >= len(names):
            raise DeltaError(f"record names worker {tag} of {len(names)}")
        if uptime >> 32:
            raise DeltaError(f"sysUpTime {uptime} out of TimeTicks range")
        if pos + _F64.size > end:
            raise DeltaError("truncated agent record")
        (time,) = _F64.unpack_from(payload, pos)
        pos += _F64.size
        if pos < end and payload[pos] < 0x80:  # its own varint: read in place
            left = payload[pos]
            pos += 1
        else:
            (left,), pos = _get_varints(payload, pos, 1)
        entries: List[tuple] = []
        while left:
            left -= 1
            if pos >= end:
                raise DeltaError("truncated entry")
            head = payload[pos]
            if head < 0x80:  # its own varint: read in place
                pos += 1
            else:
                (head,), pos = _get_varints(payload, pos, 1)
            kind = head & 3
            if kind == REC_SAME:
                entries.append((REC_SAME, head >> 2, None, None))
                continue
            if kind == REC_FULL:
                node, pos = _get_str(payload, pos)
                (if_index, *values), pos = _get_varints(payload, pos, 1 + _COUNTERS)
                key = (node, if_index)
            elif kind == REC_MOVED:
                values, pos = _get_varints(payload, pos, _COUNTERS)
                key = None
            else:
                raise DeltaError(f"unknown entry kind {kind!r}")
            if max(values) >> 32:
                raise DeltaError(f"counter {max(values)} out of Counter32 range")
            entries.append((kind, head >> 2, key, tuple(values)))
        records.append((tag, uptime, time, entries))
    if pos != end:
        raise DeltaError("trailing bytes in delta batch")
    keyframe = bool(flags & _FLAG_KEYFRAME)
    return DeltaBatch(worker, incarnation, seq, keyframe, names, records, closes, av, unvouched)


class DeltaEncoder:
    """Sender-side last-shipped tracking and batch encoding.

    :meth:`add` writes a reading into the open batch against the id table
    of that moment, so a key :meth:`follow` forgets later does not make a
    queued reading a first one; :meth:`close` finishes the batch.  A batch
    is a keyframe or not from when it opens.
    """

    def __init__(self, worker: str, keyframe_every: int) -> None:
        self.worker = worker
        self.keyframe_every = keyframe_every
        self._ids: Dict[Tuple[str, int], int] = {}
        self._last: Dict[int, Tuple[int, ...]] = {}
        #: (worker, node) -> (uptime, time, rows): each agent's last record
        #: shipped, oldest first -- what a keyframe re-states.
        self._agents: Dict[Tuple[str, str], tuple] = {}
        self._next_id = 1
        self._pool: Optional[Set[Tuple[str, int]]] = None  # None: remember every key
        self._kf_pending = True  # the first batch always maps every id
        self._since_keyframe = 0
        self._body: Optional[bytearray] = None  # the open batch, if any (see _open)
        #: Interface readings in the open batch.
        self.entries = 0

    def force_keyframe(self) -> None:
        """Make the next batch a keyframe (receiver asked via ``kfreq``)."""
        self._kf_pending = True

    def follow(self, keys: Set[Tuple[str, int]]) -> None:
        """Remember only ``keys``, the interfaces now polled: every other
        key's id, last values and re-stated reading go.  A reading of
        another key (a late answer) travels full under a fresh id and is
        forgotten at once; a key that comes back mints a new id."""
        self._pool = keys
        for key in [key for key in self._ids if key not in keys]:
            del self._last[self._ids.pop(key)]
        for agent, (uptime, time, rows) in list(self._agents.items()):
            kept = [row for row in rows if (agent[1], row[0]) in keys]
            if not kept:
                del self._agents[agent]
            elif len(kept) < len(rows):
                self._agents[agent] = (uptime, time, kept)

    def _open(self) -> None:
        due = 0 < self.keyframe_every <= self._since_keyframe + 1
        self._keyframe, self._kf_pending = self._kf_pending or due, False
        self._body = bytearray()
        self._tags: Dict[str, int] = {}  # the batch's worker names, by tag
        self._records = 0
        self._touched: Set[Tuple[str, str]] = set()  # the agents it carries
        self.entries = 0

    def _record_head(self, body: bytearray, worker: str, uptime: int, time: float, n: int) -> None:
        tag = self._tags.get(worker)
        if tag is None:
            tag = self._tags[worker] = len(self._tags)
        _put_varints(body, (tag, uptime))
        body += _F64.pack(time)
        if n < 0x80:  # its own varint: written in place
            body.append(n)
        else:
            _put_varints(body, (n,))
        self._records += 1

    def add(
        self, worker: str, node: str, uptime: int, time: float, rows: list,
        first: Sequence[int] = (),
    ) -> None:
        """Encode one agent reading (see :data:`Reading`) into the open batch."""
        if self._body is None:
            self._open()
        body, keyframe = self._body, self._keyframe
        self._record_head(body, worker, uptime, time, len(rows))
        ids, last, pool = self._ids, self._last, self._pool
        kept = rows
        for index, values in rows:
            key = (node, index)
            rec_id = ids.get(key)
            if rec_id is None or first and index in first:
                # The key's first reading: a new id, full.
                if rec_id is not None:
                    del last[rec_id]
                rec_id = self._next_id
                self._next_id += 1
                if pool is None or key in pool:
                    ids[key] = rec_id
                    last[rec_id] = values
                else:
                    ids.pop(key, None)
                    kept = None
                kind = REC_FULL
            elif keyframe:
                last[rec_id] = values
                kind = REC_FULL
            elif values == last[rec_id]:
                head = rec_id << 2  # REC_SAME
                if head < 0x80:
                    body.append(head)
                else:
                    _put_varints(body, (head,))
                continue
            else:
                last[rec_id] = values
                kind = REC_MOVED
            if kind == REC_FULL:
                _put_varints(body, (rec_id << 2 | REC_FULL,))
                _put_str(body, node)
                _put_varints(body, (index, *values))
            else:
                _put_varints(body, (rec_id << 2 | REC_MOVED, *values))
        self.entries += len(rows)
        agent = (worker, node)
        self._touched.add(agent)
        self._agents.pop(agent, None)  # re-inserted last: the newest record
        if kept is None:
            kept = [row for row in rows if (node, row[0]) in pool]
        if kept:
            self._agents[agent] = (uptime, time, kept)

    def close(
        self, incarnation: int, seq: int, av: Optional[int] = None,
        unvouched: Sequence[Tuple[str, int]] = (),
    ) -> bytes:
        """Finish the open batch and return its bytes; with nothing added
        it is an empty batch.  Given ``av``, the assignment version the
        sender applied, it is its cycle's closing batch; it names the ids
        of the ``unvouched`` interfaces that have one."""
        if self._body is None:
            self._open()
        body, keyframe = self._body, self._keyframe
        self._body = None
        if keyframe:
            # Re-state every agent's last record the batch did not carry,
            # before it: older first, so each id ends on the sender's values.
            restated = bytearray()
            for (worker, node), (uptime, time, rows) in self._agents.items():
                if (worker, node) in self._touched:
                    continue
                self._record_head(restated, worker, uptime, time, len(rows))
                for index, values in rows:
                    _put_varints(restated, (self._ids[(node, index)] << 2 | REC_FULL,))
                    _put_str(restated, node)
                    _put_varints(restated, (index, *values))
            body = restated + body
            self._since_keyframe = 0
        else:
            self._since_keyframe += 1
        head = [] if av is None else [av]
        ids = [self._ids[key] for key in unvouched if key in self._ids] if unvouched else []
        if ids:
            head += [len(ids), *ids]
        flags = _FLAG_KEYFRAME * keyframe | _FLAG_CLOSES * (av is not None)
        out = bytearray([DELTA_MAGIC, flags | _FLAG_UNVOUCHED * bool(ids)])
        _put_varints(out, head)
        _put_str(out, self.worker)
        _put_varints(out, (incarnation, seq, len(self._tags)))
        for name in self._tags:  # in tag order
            _put_str(out, name)
        _put_varints(out, (self._records,))
        out += body
        self.entries = 0
        return bytes(out)

    def reset(self) -> None:
        """Forget everything (sender restarted: new incarnation)."""
        self._ids.clear()
        self._last.clear()
        self._agents.clear()
        self._next_id = 1
        self._kf_pending = True
        self._since_keyframe = 0
        self._body = None
        self.entries = 0


class DeltaDecoder:
    """Receiver-side id table; apply batches in sequence order.

    ``baselines`` -- ``{(worker, node): {ifIndex: (uptime, counters)}}``,
    the root's derivation state for this stream -- lives and dies with
    the stream that carried those readings.  A leaf never fills it.
    """

    def __init__(self) -> None:
        self._keys: Dict[int, Tuple[str, int]] = {}
        self._last: Dict[int, Tuple[int, ...]] = {}
        self.baselines: Dict[Tuple[str, str], Dict[int, tuple]] = {}
        self.needs_keyframe = False
        self.entries_skipped = 0

    def forget_values(self) -> None:
        """Batches of this stream were lost.  Ids are never reused within
        an incarnation and every baseline is a reading this receiver saw,
        so both stand; only the values a ``same`` entry names may have
        moved in the lost batches, and a keyframe re-states them."""
        self._last = {}
        self.needs_keyframe = True

    def keys_of(self, ids: Sequence[int]) -> List[Tuple[str, int]]:
        """The interfaces ``ids`` name, of those this receiver has mapped."""
        return [self._keys[rec_id] for rec_id in ids if rec_id in self._keys]

    def apply(self, batch: DeltaBatch) -> List[Reading]:
        """Fold one in-order batch in; returns its readings, per agent."""
        keys, last, names = self._keys, self._last, batch.names
        out: List[Reading] = []
        for tag, uptime, time, entries in batch.records:
            worker, node = names[tag], None
            for kind, rec_id, key, values in entries:
                fresh = False
                if kind == REC_FULL:
                    if keys.get(rec_id) != key:
                        keys[rec_id] = key
                        fresh = True  # an id new here: a first reading
                    last[rec_id] = values
                else:
                    key = keys.get(rec_id)
                    if kind == REC_SAME:
                        values = last.get(rec_id)
                    if key is None or values is None:
                        # The mapping (restart, adopted stream) or the values
                        # (a gap) rode a batch this receiver never saw.
                        self.entries_skipped += 1
                        self.needs_keyframe = True
                        continue
                    if kind == REC_MOVED:
                        last[rec_id] = values
                if key[0] != node:
                    node, rows, first = key[0], [], []
                    out.append((worker, node, uptime, time, rows, first))
                rows.append((key[1], values))
                if fresh:
                    first.append(key[1])
        if batch.keyframe:
            self.needs_keyframe = False  # every key was just re-stated
        return out
