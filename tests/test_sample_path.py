"""The sample path -- poll reply to the root's rate table -- is held to the
parent commit's (``tests/sample_reference.py``), to each worker's own
poller (``tests/tree_reference.py``) and to a call budget.

Four things:

- **integrity**: any sequence of samples, restarts, cross-checks and
  external verdicts moves ``IntegrityPipeline`` (one bound record per
  interface, firing conditions on bound numbers, a verdict object only
  when a rule fires) exactly as it moves the old pipeline (a context and
  four lists per sample);
- **the tree derives what the poller derives**: on a campus tree with
  churning flows, through a worker crash and restart, a leaf kill, an
  agent that stops answering, an agent reboot and a lost leaf batch,
  every sample the root admits is, bit for bit and in order, one that a
  worker's own ``SnmpPoller`` derived from the same replies -- or, after
  the lost batch, one it would have derived had it missed those replies;
- **cost**: what one more interface costs each tier, counted in Python
  calls on the three-tier rig of ``tests/costs.py``;
- **poller**: any run of poll replies lands the same samples and hands
  integrity the same arguments as the parent's reply parser did, whether
  an interface's counters moved or not.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterSource
from repro.core.deltas import is_delta, parse_delta
from repro.core.distributed import poll_targets
from repro.core.hierarchy import HierarchicalMonitor
from repro.core.poller import _COLUMNS, InterfaceRates, PollTarget, SnmpPoller
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.integrity import CrossPair, IntegrityConfig, IntegrityPipeline
from repro.integrity.validators import IntegrityVerdict, Severity
from repro.simnet.faults import AgentOutage, AgentReboot, WorkerCrash
from repro.simnet.network import Network
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.snmp.ber import TAG_COUNTER32, TAG_GAUGE32
from repro.snmp.manager import SnmpManager
from repro.snmp.mib import IF_SPEED
from repro.spec.builder import build_network
from repro.telemetry import Telemetry
from repro.telemetry.events import AGENT_RESTART
from repro.topology.model import InterfaceRef
from tests.costs import per_record
from tests.sample_reference import ReferencePipeline, ReferencePoller
from tests.tree_reference import (
    across,
    admitted_by,
    bits,
    derive_alongside,
    held_to_the_pollers,
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
#: how the raw octet counters moved between the two readings of a
#: sample: not at all, forwards, backwards (a regressed counter)
RAW_MOVES = st.sampled_from([0, 0, 4000, -4000])

SAMPLE = st.tuples(
    st.just("sample"),
    st.sampled_from(INTERFACES),
    RATES,
    RATES,
    st.sampled_from([0.0, 0.0, 3.0]),  # packets per second, both ways
    INTERVALS,
    st.tuples(RAW_MOVES, POLLED_SPEEDS),
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
        moved, polled_speed = raw
        prev = 100, (50_000, 50_000, 500, 500, 0, 0)
        cur = 300, (50_000 + moved, 50_000 + moved, 500 + bool(moved), 500, 0, 0)
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
@example(  # quarantine entry and release, cross-checked
    [_sample_op(("A", 1), 1e9, 0.0, 3.0, POLL, (4000, None))] * 2
    + [("cross",)]
    + [_sample_op(("A", 1), 1200.0, 1200.0, 3.0, POLL, (4000, None))] * 7
    + [("cross",)],
    False,
)
@example(  # active, then frozen into the stuck rule; a restart in between
    [_sample_op(("B", 1), 1200.0, 0.0, 3.0, POLL, (4000, None))]
    + [_sample_op(("B", 1), 0.0, 0.0, 0.0, POLL, (0, None))] * 4
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
# (ii) the tree derives what each worker's own poller derives
# ----------------------------------------------------------------------
#: Flows across the two pods whose rates re-draw every poll interval.
FLOWS = [("p0h0_2", "p1h1_2"), ("p1h0_2", "p0h1_1"), ("p0h1_2", "p1h0_1")]
FAULT_UNTIL = 64.0


class _Differential:
    """The two-pod campus tree with every switch polled and integrity off,
    under churn and one fault after another; every sample the root admits
    and every one a worker's poller derives from the same replies."""

    def __init__(self):
        shape = dict(switches=2, hosts_per_switch=3)
        spec = scale_spec(hierarchical=2, host_agents=False, **shape)
        build = build_network(spec, agent_seed=0)
        self.net = net = build.network
        self.plane = plane = HierarchicalMonitor(
            build, hierarchy_plan(2, **shape), poll_jitter=0.0, seed=0,
            integrity=False, targets=poll_targets(build, spec.connections),
        )
        self.shipped = []
        self.derived, self.landed = derive_alongside(plane, self.shipped), admitted_by(plane)
        rng = random.Random(7)
        for src, dst in FLOWS:
            steps = [(t, rng.choice([5.0, 20.0, 60.0]) * KBPS) for t in range(1, 62, 2)]
            StaircaseLoad(net.host(src), net.ip_of(dst), StepSchedule(steps)).start()
        sim, leaf = net.sim, plane.leaves["mon0"]
        WorkerCrash(sim, leaf.dm.workers["p0h0_1"], at=9.0, until=17.0)
        WorkerCrash(sim, plane.leaves["mon1"], at=25.0, until=33.0)  # the leaf dies
        AgentOutage(sim, build.agents["p1sw1"], at=41.0, until=46.0)  # polls time out
        AgentReboot(sim, build.agents["p0sw1"], at=49.1, outage=0.5)
        self.lost = []  # the readings of the one leaf batch lost, at 55 s
        send = leaf.shipper.send

        def lossy(payload):
            if not self.lost and net.now >= 55.0 and is_delta(payload):
                key_of = {rec_id: key for key, rec_id in leaf.shipper.delta._ids.items()}
                for _, uptime, _, entries in parse_delta(payload).records:
                    for _, rec_id, key, _ in entries:
                        self.lost.append(((key or key_of[rec_id])[0], uptime))
                return
            send(payload)

        leaf.shipper.send = lossy
        plane.start()
        net.run(FAULT_UNTIL)


@pytest.fixture(scope="module")
def differential():
    return _Differential()


class TestTheTreeDerivesWhatThePollerDerives:
    """ROADMAP item 21: the workers ship readings and the root runs the
    flat poller's derivation on them.  Held on one rig, four ways."""

    def test_every_admitted_sample_is_a_pollers_in_its_order(self, differential):
        """Bit for bit, none twice, per worker life in the order its
        poller derived them: a sample pairs two readings one worker took
        -- never two workers', never across a timed-out poll read as
        unmoved -- and after the lost batch, what the poller would have
        derived had it missed those replies: the next reading against the
        last one before them."""
        rig = differential
        spans = across(rig.shipped, set(rig.lost), rig.plane.poll_interval)
        assert held_to_the_pollers(rig.landed, rig.derived, spans) == len(rig.landed)
        spanned = {bits(s) for _, s in spans} & {bits(s) for s in rig.landed}
        assert spanned  # the root derived across the lost batch

    def test_the_faults_happened(self, differential):
        stats = differential.plane.stats()
        assert stats["failovers"] >= 1 and stats["rebalances"] >= 1  # the leaf
        assert stats["gaps_detected"] == 1 and differential.lost
        worker = differential.plane.leaves["mon0"].dm.workers["p0h0_1"]
        assert worker.incarnation == 2 and stats["decode_errors"] == 0

    def test_one_reboot_is_one_restart_at_the_root(self, differential):
        """A sysUpTime that goes backwards re-baselines at the root: one
        count, one event naming the agent."""
        plane = differential.plane
        assert plane.telemetry.registry.value("agent_restarts_total") == 1
        (event,) = plane.telemetry.events.events(AGENT_RESTART)
        assert event.attrs["node"] == "p0sw1"

    def test_most_of_what_the_pollers_derived_lands(self, differential):
        """What the faults cost, bounded: the samples the root missed are
        the ones no reading pair of one worker could give it."""
        rig = differential
        landed = len(rig.landed)
        derived = sum(1 for _, s in rig.derived if s.time < FAULT_UNTIL - 1.0)
        assert landed > 0.85 * derived, (landed, derived)


# ----------------------------------------------------------------------
# (iii) what one more interface costs each tier
# ----------------------------------------------------------------------
#: Helpers the sample path used to call once per record or more.
PER_RECORD_FORBIDDEN = (
    "_only", "_sample", "_fields", "_put_varint", "_get_varint",
    "_put_counters", "_get_counters",
)
_BUILT = ("<string>", "__init__")  # a dataclass's generated constructor


class TestCostPerRecord:
    """The slope, 12 against 24 interfaces of one agent in one batch, not
    the intercept.  While the tree shipped float rates a steady interface
    cost the worker 2 calls (its sample and the shipper), the leaf 1 (the
    sample, decoded) and the root 4 (6 when the stuck rule fired).  Now
    the worker derives nothing and an unmoved interface is its id alone:
    its row, its entry and its reading are written and read in place."""

    @pytest.fixture(scope="class")
    def quiet(self):
        return per_record(active=False)

    @pytest.fixture(scope="class")
    def stuck(self):
        return per_record(active=True)

    def test_worker(self, quiet):
        """The reply's row gathered and its one-byte entry written."""
        assert sum(quiet["worker"].values()) == 0, quiet["worker"]

    def test_leaf(self, quiet):
        """The entry parsed and resolved, the reading forwarded."""
        assert sum(quiet["leaf"].values()) == 0, quiet["leaf"]

    def test_root_when_nothing_fires(self, quiet):
        """The derived sample, ``inspect``, the stuck rule's look, the rate
        table: the flat poller's own per-sample path."""
        calls = quiet["root"]
        assert sum(calls.values()) <= 4, calls
        assert calls[_BUILT] == 1, calls

    def test_root_when_the_stuck_rule_fires(self, stuck):
        calls = stuck["root"]
        assert sum(calls.values()) <= 6, calls
        assert calls[_BUILT] == 2, calls  # the sample and its verdict
        for tier in ("worker", "leaf"):  # a verdict is not their cost
            assert sum(stuck[tier].values()) == 0, stuck[tier]

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
