"""The sample path -- poll reply to the root's rate table -- is held to the
parent commit's (``tests/sample_reference.py``) and to a call budget.

Four things, none of which reads a clock:

- **integrity**: any sequence of local and remote samples, restarts,
  cross-checks and external verdicts moves ``IntegrityPipeline`` (one
  bound record per interface, firing conditions on bound numbers, a
  verdict object only when a rule fires) exactly as it moves the old
  pipeline (a context and four lists per sample);
- **uplink**: any program of batches, linger flushes, keyframe requests
  and receiver-side losses puts the same bytes on both uplinks of a
  worker -> leaf -> root tree and delivers the same samples in the same
  order as the old sample-at-a-time sink did;
- **cost**: what one more record costs each tier, counted in Python calls
  on the three-tier rig of ``tests/costs.py``;
- **poller**: any run of poll replies lands the same samples and hands
  integrity the same arguments as the parent's reply parser did, whether
  an interface's counters moved or not.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterSource
from repro.core.deltas import parse_delta
from repro.core.poller import (
    _COLUMNS,
    InterfaceRates,
    PollTarget,
    SnmpPoller,
    _CounterSnapshot,
)
from repro.integrity import CrossPair, IntegrityConfig, IntegrityPipeline
from repro.integrity.validators import IntegrityVerdict, Severity
from repro.simnet.network import Network
from repro.snmp.ber import TAG_COUNTER32, TAG_GAUGE32
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import IF_SPEED
from repro.telemetry import Telemetry
from repro.topology.model import InterfaceRef
from tests.costs import ThreeTiers, call_counts, per_record
from tests.sample_reference import (
    ReferencePipeline,
    ReferencePoller,
    make_reference,
    reference_parse_delta,
)

POLL = 2.0

# ----------------------------------------------------------------------
# (i) integrity: one record per interface == the parent's inspect
# ----------------------------------------------------------------------
INTERFACES = [("A", 1), ("B", 1), ("C", 7)]
SPEEDS = {("A", 1): 100e6, ("B", 1): 10e6}  # C.7 has no declared speed
PAIRS = [
    CrossPair(
        primary=CounterSource("A", 1, InterfaceRef("A", "eth0")),
        secondary=CounterSource("B", 1, InterfaceRef("B", "eth0")),
    )
]

#: clean, all-zero, over either limit, no number at all, below zero
RATES = st.sampled_from(
    [0.0, 0.0, 1200.0, 5e5, 3e6, 1e9, math.nan, math.inf, -math.inf, -5.0]
)
#: the poll interval, past half a Counter32 wrap at 10 and at 100 Mb/s,
#: no number, below zero
INTERVALS = st.sampled_from([POLL, POLL, 1000.0, 5000.0, math.nan, math.inf, -1.0])
#: not polled, agreeing with either declared speed, disagreeing, absurd
POLLED_SPEEDS = st.sampled_from([None, None, 100e6, 10e6, 55e6, 0.0, math.nan])
#: how the raw octet counters moved between the two snapshots of a local
#: sample: not at all, forwards, backwards (a regressed counter)
RAW_MOVES = st.sampled_from([0, 0, 4000, -4000])

SAMPLE = st.tuples(
    st.just("sample"),
    st.sampled_from(INTERFACES),
    RATES,
    RATES,
    st.sampled_from([0.0, 0.0, 3.0]),  # packets per second, both ways
    INTERVALS,
    st.one_of(st.none(), st.tuples(RAW_MOVES, POLLED_SPEEDS)),  # None: remote
)
RESTART = st.tuples(st.just("restart"), st.sampled_from(INTERFACES))
CROSS = st.tuples(st.just("cross"))
EXTERNAL = st.tuples(
    st.just("external"),
    st.sampled_from(INTERFACES + [("D", 2)]),  # also one never sampled
    st.sampled_from(list(Severity)),
    st.booleans(),
)
OPS = st.lists(st.one_of(SAMPLE, SAMPLE, SAMPLE, RESTART, CROSS, EXTERNAL), max_size=60)


def _sample_op(iface, in_rate, out_rate, pkts, interval, raw):
    return ("sample", iface, in_rate, out_rate, pkts, interval, raw)


def _pipelines(stuck_decays_trust):
    config = IntegrityConfig(stuck_decays_trust=stuck_decays_trust)
    return [
        cls(SPEEDS, POLL, config=config, pairs=PAIRS, telemetry=Telemetry())
        for cls in (IntegrityPipeline, ReferencePipeline)
    ]


def _observable(pipe):
    """Everything the issue lists as having to stay what it is."""
    records = {
        key: {**dataclasses.asdict(rec), "last_verdict": str(rec.last_verdict)}
        for key, rec in pipe.quarantine.records().items()
    }
    events = [(e.kind, e.time, e.attrs) for e in pipe.telemetry.events.recent]
    return {
        "records": records,
        "totals": (
            pipe.quarantine.quarantined, pipe.quarantine.quarantines,
            pipe.quarantine.releases, pipe.quarantine.clock,
            pipe.quarantined_keys(),
        ),
        "last_offence": pipe._last_offence,
        "shadow": pipe._shadow,
        "stuck": pipe._stuck._state,
        "registry": pipe.telemetry.registry.snapshot(),
        "events": events,
        "status": pipe.status(),
    }


def _run(pipe, op, now):
    kind = op[0]
    if kind == "sample":
        _, (node, if_index), in_rate, out_rate, pkts, interval, raw = op
        sample = InterfaceRates(
            node, if_index, now, interval, in_rate, out_rate, pkts, pkts
        )
        if raw is None:
            return pipe.inspect(sample, None, None)
        moved, polled_speed = raw
        prev = _CounterSnapshot(100, 50_000, 50_000, 500, 500, 0, 0)
        cur = _CounterSnapshot(
            300, 50_000 + moved, 50_000 + moved, 500 + bool(moved), 500, 0, 0
        )
        return pipe.inspect(sample, prev, cur, polled_speed)
    if kind == "restart":
        return pipe.note_restart(*op[1])
    if kind == "cross":
        return [str(v) for v in pipe.run_cross_checks(now)]
    _, (node, if_index), severity, decays = op
    verdict = IntegrityVerdict(
        "probe", severity, node, if_index, now, "external", decays_trust=decays
    )
    return pipe.apply_external_verdicts([verdict], now)


@given(OPS, st.booleans())
@example(  # quarantine entry and release, remote and local, cross-checked
    [_sample_op(("A", 1), 1e9, 0.0, 3.0, POLL, None)] * 2
    + [("cross",)]
    + [_sample_op(("A", 1), 1200.0, 1200.0, 3.0, POLL, (4000, None))] * 7
    + [("cross",)],
    False,
)
@example(  # active, then frozen into the stuck rule; a restart in between
    [_sample_op(("B", 1), 1200.0, 0.0, 3.0, POLL, None)]
    + [_sample_op(("B", 1), 0.0, 0.0, 0.0, POLL, None)] * 4
    + [("restart", ("B", 1))]
    + [_sample_op(("B", 1), 0.0, 0.0, 0.0, POLL, (0, 10e6))] * 4,
    True,
)
@example(  # every rule at once on one local sample, twice
    [_sample_op(("A", 1), 5e5, math.nan, 0.0, 5000.0, (-4000, 55e6))] * 2,
    False,
)
@settings(max_examples=150, deadline=None)
def test_one_record_per_interface_decides_as_the_parents_inspect_did(ops, stuck_decays):
    new, old = _pipelines(stuck_decays)
    for i, op in enumerate(ops):
        now = POLL * (i + 1)
        assert _run(new, op, now) == _run(old, op, now), (i, op)
        assert _observable(new) == _observable(old), (i, op)


# ----------------------------------------------------------------------
# (ii) uplink: batches through the sink == samples through the sink
# ----------------------------------------------------------------------
NODES = ("p0sw0", "core", "elsewhere")
#: 3 nodes x 70 interfaces: a stream can run past the one-byte record ids
KEYS = st.tuples(st.sampled_from(NODES), st.integers(1, 70))
UPLINK_SAMPLE = st.tuples(
    KEYS,
    st.sampled_from([0.0, 0.0, 0.0, 1250.0, 99.5]),  # repeated and changed rates
    st.sampled_from([POLL, POLL, POLL, 1.99]),  # ... and intervals
)
TIERS = st.sampled_from([0, 1])  # the worker's uplink, the leaf's
UPLINK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(UPLINK_SAMPLE, min_size=1, max_size=70)),
        st.tuples(st.just("batch"), st.lists(UPLINK_SAMPLE, min_size=1, max_size=70)),
        st.tuples(st.just("linger"), TIERS),  # the linger timer fires
        st.tuples(st.just("keyframe"), TIERS),  # the receiver's kfreq arrives
        st.tuples(st.just("desync"), TIERS),  # an abandoned gap
        st.tuples(st.just("forget"), TIERS),  # a receiver that lost its maps
        st.tuples(st.just("degrade"), KEYS),  # a source marked lossy
    ),
    max_size=14,
)


class _Tree:
    """A three-tier tree, its sends captured and its root's table spied on."""

    def __init__(self, reference: bool) -> None:
        self.tiers = ThreeTiers(hosts=2, integrity=False, max_batch=32, keyframe_every=5)
        # The keys reach past the root's poll-target pool, whose other
        # interfaces the root drops; here it admits every one, as the
        # reference sink does, so that each record lands.
        self.tiers.root._pool.update((node, i) for node in NODES for i in range(1, 71))
        if reference:
            make_reference(self.tiers)
        self.landed = []
        update = self.tiers.root.rates.update
        self.tiers.root.rates.update = lambda s: (self.landed.append(s), update(s))

    def run(self, op, now: float) -> None:
        tiers = self.tiers
        kind, arg = op
        endpoints = (tiers.worker, tiers.leaf)
        receivers = (
            tiers.leaf.dm._ingest[tiers.worker.name],
            tiers.root._ingest[tiers.leaf.name],
        )
        if kind == "batch":
            for (node, if_index), rate, interval in arg:
                tiers.worker.poller.on_sample(
                    InterfaceRates(node, if_index, now, interval, rate, rate / 2, 1.0, 0.0)
                )
        elif kind == "linger":
            endpoints[arg]._flush()
        elif kind == "keyframe":
            endpoints[arg].shipper.delta.force_keyframe()
        elif kind == "desync":
            receivers[arg].delta.mark_desync()
        elif kind == "forget":
            receivers[arg].delta.reset()
        elif kind == "degrade":
            tiers.leaf.dm.degraded.mark(*arg)
            tiers.root.degraded.mark(*arg)
        tiers.carry(0)
        tiers.carry(1)

    def observable(self):
        tiers = self.tiers
        ingests = (tiers.leaf.dm, tiers.root)
        encoders = (tiers.worker.shipper.delta, tiers.leaf.shipper.delta)
        return {
            "worker uplink": tiers.worker_out,
            "leaf uplink": tiers.leaf_out,
            "landed": self.landed,
            "records": [
                (e.records_full, e.records_changed, e.records_advance,
                 e.records_refresh, e.keyframes)
                for e in encoders
            ],
            "shipped": [
                (s.samples_shipped, s.batches_shipped, s.bytes_shipped,
                 s.keyframes_shipped, s.next_seq, len(s._pending))
                for s in (tiers.worker.shipper, tiers.leaf.shipper)
            ],
            "decoders": [
                (s.delta.samples_skipped, s.delta.needs_keyframe, s.delta.desync)
                for ingest in ingests for s in ingest._ingest.values()
            ],
            "ingests": [
                (ingest.stats(), ingest.degraded.keys(), ingest.degraded.clock)
                for ingest in ingests
            ],
            "rate table": (tiers.root.rates.clock, tiers.root.rates.keys()),
        }


def _batch(keys, rate=0.0, interval=POLL):
    return ("batch", [(key, rate, interval) for key in keys])


_EVERY_KEY = [(node, i) for node in NODES for i in range(1, 71)]


@given(UPLINK_OPS)
@example(  # ids past 127, then a quiet cycle of two-byte ADVANCE records
    [_batch(_EVERY_KEY[:70]), _batch(_EVERY_KEY[70:140]), _batch(_EVERY_KEY[140:]),
     ("linger", 0), ("linger", 1),
     _batch(_EVERY_KEY[100:170]), ("linger", 0), ("linger", 1)]
)
@example(  # a batch cut mid-way by a linger flush; lost maps; a keyframe heals
    [_batch(_EVERY_KEY[:40]), ("linger", 0), _batch(_EVERY_KEY[:40], interval=1.99),
     ("forget", 1), ("degrade", _EVERY_KEY[3]), ("linger", 0), ("linger", 1),
     _batch(_EVERY_KEY[:40], rate=99.5), ("keyframe", 1), ("desync", 0),
     ("linger", 0), ("linger", 1), _batch(_EVERY_KEY[:40], rate=99.5),
     ("keyframe", 0), _batch(_EVERY_KEY[:10]), ("linger", 0), ("linger", 1)]
)
@settings(max_examples=40, deadline=None)
def test_batches_through_the_sink_ship_what_samples_through_the_sink_shipped(ops):
    new, old = _Tree(reference=False), _Tree(reference=True)
    drain = [("linger", 0), ("linger", 1)]  # nothing left queued at the end
    for i, op in enumerate(ops + drain):
        now = POLL * (i + 1)
        new.run(op, now)
        old.run(op, now)
        assert new.observable() == old.observable(), (i, op)
    for payload in new.tiers.worker_out + new.tiers.leaf_out:
        ours, theirs = parse_delta(payload), reference_parse_delta(payload)
        for field in ("worker", "incarnation", "seq", "keyframe", "records"):
            assert getattr(ours, field) == getattr(theirs, field)


# ----------------------------------------------------------------------
# (iii) what one more record costs each tier
# ----------------------------------------------------------------------
#: Helpers the sample path used to call once per record or more.
PER_RECORD_FORBIDDEN = ("_only", "_sample", "_fields", "_put_varint", "_get_varint")
_BUILT = ("<string>", "__init__")  # a dataclass's generated constructor


class TestCostPerRecord:
    """The slope, 16 against 32 records in one batch, not the intercept:
    at the parent a steady ``ADVANCE`` record cost the worker 14.1 calls,
    the leaf 11.1 and the root 27 (32 when the stuck rule fired); the
    issue asked for <= 9, <= 2, <= 6 and <= 8."""

    @pytest.fixture(scope="class")
    def quiet(self):
        return per_record(active=False)

    @pytest.fixture(scope="class")
    def stuck(self):
        return per_record(active=True)

    def test_worker(self, quiet):
        """Once six: the reply's row gathered, ``_ingest``, the clock read,
        the sample and the raw snapshot it was derived from, the shipper.
        Now an interface whose counters did not move costs its sample,
        built from the reply's interval, and the shipper."""
        calls = quiet["worker"]
        assert sum(calls.values()) <= 2, calls
        assert calls[_BUILT] == 1, calls  # the sample; no _CounterSnapshot

    def test_leaf(self, quiet):
        calls = quiet["leaf"]
        assert sum(calls.values()) <= 1, calls
        assert calls[_BUILT] == 1, calls  # the sample, decoded: nothing else

    def test_root_when_nothing_fires(self, quiet):
        """The sample, ``inspect``, the stuck rule's look, the rate table."""
        calls = quiet["root"]
        assert sum(calls.values()) <= 4, calls
        assert calls[_BUILT] == 1, calls

    def test_a_steady_run_parses_at_no_call_a_record(self):
        """The root's and a leaf's parse of a quiet cycle's batch: 16 and
        64 steady records (``ADVANCE_SAME_D``, one-byte ids) cost the same
        Python calls and the same C calls -- the run is one regex match
        and one cached ``Struct`` unpack.  The parent unpacked each."""
        from repro.core.deltas import DeltaEncoder

        def steady(n):
            encoder = DeltaEncoder("w")
            batch = [InterfaceRates("sw", i, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0) for i in range(n)]
            encoder.encode(1, 1, batch)
            payload = encoder.encode(1, 2, [dataclasses.replace(r, time=4.0) for r in batch])
            parse_delta(payload)  # the run's Struct, made once
            return call_counts(lambda: parse_delta(payload), c_calls=True)

        small, big = steady(16), steady(64)
        assert big == small, big - small

    def test_root_when_the_stuck_rule_fires(self, stuck):
        calls = stuck["root"]
        assert sum(calls.values()) <= 6, calls
        assert calls[_BUILT] == 2, calls  # the sample and its verdict
        for tier, bound in (("worker", 6), ("leaf", 1)):  # a verdict is not their cost
            assert sum(stuck[tier].values()) <= bound, stuck[tier]

    @pytest.mark.parametrize("tier", ["worker", "leaf", "root"])
    def test_no_helper_runs_per_record(self, quiet, stuck, tier):
        for calls in (quiet[tier], stuck[tier]):
            named = {name for _, name in calls}
            assert not named & set(PER_RECORD_FORBIDDEN), calls


# ----------------------------------------------------------------------
# (iv) the worker's poller: an unmoved interface's sample is the derived one
# ----------------------------------------------------------------------
POLLED = [1, 2, 2, 7]  # a duplicate index is polled once
#: how one counter moved since the last reply: not at all, by one, by a
#: whole wrap less one, by much
COUNTER_MOVES = st.sampled_from([0, 0, 0, 0, 1, 2**32 - 1, 70_000])
#: how sysUpTime moved: a poll, the same tick, across its wrap, a reboot,
#: unreadable (not TimeTicks)
UPTIME_MOVES = st.sampled_from([200, 200, 200, 0, 2**32 - 50, "reboot", None])
#: what the agent served for one cell: the counter, another type, nothing
CELL_FATES = st.sampled_from(["counter"] * 10 + ["gauge", "missing"])
POLL_REPLIES = st.lists(
    st.tuples(
        UPTIME_MOVES,
        st.lists(st.tuples(COUNTER_MOVES, CELL_FATES), min_size=18, max_size=18),
    ),
    min_size=1, max_size=10,
)


class _Inspector:
    """An integrity pipeline that records what it is handed and withholds
    fast samples."""

    def __init__(self):
        self.seen = []

    def inspect(self, sample, prev, cur, polled_speed=None):
        self.seen.append((repr(sample), prev, cur, polled_speed))
        return not sample.in_bytes_per_s > 20_000

    def note_restart(self, node, if_index):
        self.seen.append(("restart", node, if_index))


def _poller(cls, inspector):
    poller = cls(SnmpManager(Network().add_host("L")), [])
    poller.integrity = inspector
    landed = []
    poller.on_sample = lambda sample: landed.append(repr(sample))  # -0.0 is not 0.0
    return poller, landed


@given(POLL_REPLIES, st.booleans(), st.booleans())
@example(  # idle, idle, one counter moving by one, a reboot, idle again
    [(200, [(0, "counter")] * 18)] * 2
    + [(200, [(1, "counter")] + [(0, "counter")] * 17),
       ("reboot", [(0, "counter")] * 18), (200, [(0, "counter")] * 18)],
    True, True,
)
@settings(max_examples=200, deadline=None)
def test_an_unmoved_interface_samples_as_the_derived_path_did(replies, integrity, speed):
    """Any run of replies -- counters still, moving by one or by a wrap
    less one, of another type or missing; sysUpTime on, on the same tick,
    across its wrap, reset or unreadable -- lands the same samples, bit
    for bit (an unmoved rate is ``+0.0``), and hands ``inspect`` the same
    sample and raw snapshots, as the parent's snapshot-per-interface path.
    A reset is counted once per reply, where the parent counted a row."""
    inspectors = [_Inspector(), _Inspector()] if integrity else [None, None]
    (new, new_landed), (old, old_landed) = (
        _poller(cls, inspector)
        for cls, inspector in zip((SnmpPoller, ReferencePoller), inspectors)
    )
    target = PollTarget("sw", None, POLLED, include_speed=speed)
    ticks, counters, reboots = 1000, {}, 0
    for uptime_move, cells in replies:
        if uptime_move == "reboot":
            ticks = 100
        elif uptime_move is not None:
            ticks = (ticks + uptime_move) % 2**32
        tables = {col: {} for col in _COLUMNS}
        for n, (move, fate) in enumerate(cells):
            index, col = (1, 2, 7)[n // 6], _COLUMNS[n % 6]
            value = counters[index, col] = (counters.get((index, col), n * 1000) + move) % 2**32
            if fate != "missing":
                tag = TAG_COUNTER32 if fate == "counter" else TAG_GAUGE32
                tables[col][index] = (tag, value)
        if speed:
            tables[IF_SPEED] = {1: (TAG_GAUGE32, 100_000_000), 7: (TAG_GAUGE32, 10_000_000)}
        reply = (ticks if uptime_move is not None else None), tables
        restarts = old.agent_restarts
        for poller in (new, old):
            poller._on_response(target, reply)
        reboots += old.agent_restarts > restarts
        assert new_landed == old_landed
        if integrity:
            assert inspectors[0].seen == inspectors[1].seen
        value = lambda p, name: p.telemetry.registry.value(name)  # noqa: E731
        assert value(new, "poll_parse_errors_total") == value(old, "poll_parse_errors_total")
        assert new.samples_produced == old.samples_produced
        assert new.agent_restarts == reboots  # one per reply that read a reset, not per row
