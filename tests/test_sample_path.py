"""The sample path -- poll reply to the root's rate table -- is held to the
parent commit's (``tests/sample_reference.py``) and to a call budget.

Three things, none of which reads a clock:

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
  on the three-tier rig of ``tests/costs.py``.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterSource
from repro.core.deltas import parse_delta
from repro.core.poller import InterfaceRates, _CounterSnapshot
from repro.integrity import CrossPair, IntegrityConfig, IntegrityPipeline
from repro.integrity.validators import IntegrityVerdict, Severity
from repro.telemetry import Telemetry
from repro.topology.model import InterfaceRef
from tests.costs import ThreeTiers, per_record
from tests.sample_reference import (
    ReferencePipeline,
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
        """The reply's row gathered, ``_ingest``, the clock read, the
        sample and the raw snapshot it was derived from, the shipper."""
        calls = quiet["worker"]
        assert sum(calls.values()) <= 6, calls
        assert calls[_BUILT] == 2, calls

    def test_leaf(self, quiet):
        calls = quiet["leaf"]
        assert sum(calls.values()) <= 1, calls
        assert calls[_BUILT] == 1, calls  # the sample, decoded: nothing else

    def test_root_when_nothing_fires(self, quiet):
        """The sample, ``inspect``, the stuck rule's look, the rate table."""
        calls = quiet["root"]
        assert sum(calls.values()) <= 4, calls
        assert calls[_BUILT] == 1, calls

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
