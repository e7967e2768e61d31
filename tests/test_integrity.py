"""The measurement-integrity pipeline: validators, trust, cross-checks.

Unit tests cover each validator and the trust/quarantine dynamics in
isolation; the acceptance tests run corruption-class faults on the
paper's Figure-3 testbed and assert the pipeline's end-to-end promises:

- a corrupted interface is quarantined within three poll cycles of the
  fault's onset, and the paths that depend on it are never reported as
  trusted while the lie persists;
- paths that do not traverse the corrupted interface are *bit-identical*
  to a fault-free run with the same seed (the fault injection is
  size-preserving on the wire, so nothing else may shift);
- the two-ended cross-checker catches an agent that lies consistently
  from t=0 (no onset transient to trip the per-sample validators) and
  attributes the mismatch to the lying end;
- a fault-free run never trips a violation, with or without
  cross-checking (zero false positives).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.monitor import NetworkMonitor
from repro.core.poller import InterfaceRates
from repro.experiments.scenarios import Scenario
from repro.experiments.testbed import TESTBED_SPEC_TEXT, build_testbed
from repro.spec.parser import parse_spec
from repro.integrity import (
    CrossChecker,
    IntegrityConfig,
    IntegrityPipeline,
    IntegrityVerdict,
    QuarantineManager,
    RateBoundValidator,
    SampleContext,
    Severity,
    SpeedValidator,
    StuckCounterValidator,
    WrapRiskValidator,
    extra_poll_indexes,
    two_ended_pairs,
    wrap_period_seconds,
)
from repro.simnet.faults import CounterCorruption, SpeedMisreport, StuckCounters
from repro.simnet.trafficgen import KBPS, StepSchedule
from repro.snmp.datatypes import Counter32, TimeTicks
from repro.telemetry.events import (
    COUNTER_WRAP_RISK,
    CROSS_CHECK_MISMATCH,
    INTEGRITY_VIOLATION,
    QUARANTINE_ENTER,
    QUARANTINE_EXIT,
)
from tests.costs import call_counts, python_calls, scenario_with
from tests.test_core_poller import derive

POLL = 2.0


def figure3_spec():
    return parse_spec(TESTBED_SPEC_TEXT)


def collect_reports(scenario):
    """Subscribe before the run; returns label -> [PathReport, ...]."""
    reports = {}
    scenario.monitor.subscribe(
        lambda r: reports.setdefault(r.label, []).append(r)
    )
    return reports


# ----------------------------------------------------------------------
# Helpers: hand-built samples and snapshots
# ----------------------------------------------------------------------
def snapshot(uptime_s=0.0, octets_in=0, octets_out=0, ucast=0):
    """A raw reading: ``(sysUpTime, six counters)``."""
    ucast = Counter32.wrap(ucast).value
    return TimeTicks.from_seconds(uptime_s).value, (
        Counter32.wrap(octets_in).value, Counter32.wrap(octets_out).value, ucast, ucast, 0, 0,
    )


#: Two readings of an interface whose counters did not move.
IDLE = snapshot(0.0), snapshot(2.0)


def sample(node="S1", if_index=1, time=2.0, interval=2.0, in_bps=0.0, out_bps=0.0):
    return InterfaceRates(
        node=node, if_index=if_index, time=time, interval=interval,
        in_bytes_per_s=in_bps, out_bytes_per_s=out_bps,
        in_pkts_per_s=0.0, out_pkts_per_s=0.0,
    )


def context(s, prev=None, cur=None, speed=100e6, polled_speed=None):
    return SampleContext(
        sample=s,
        prev=prev if prev is not None else snapshot(0.0),
        cur=cur if cur is not None else snapshot(s.interval),
        speed_bps=speed,
        polled_speed_bps=polled_speed,
        configured_interval=s.interval,
    )


def verdict(check="rate_bound", severity=Severity.VIOLATION, decays=True, t=0.0):
    return IntegrityVerdict(
        check=check, severity=severity, node="A", if_index=1, time=t,
        decays_trust=decays,
    )


# ----------------------------------------------------------------------
# Validators
# ----------------------------------------------------------------------
class TestRateBoundValidator:
    def test_within_tolerance_is_clean(self):
        v = RateBoundValidator(tolerance=0.5)
        # 100 Mb/s line: 12.5 MB/s; 1.5x headroom allows 18.75 MB/s.
        ok = sample(in_bps=15e6, out_bps=18.7e6)
        assert v.check(context(ok)) == []

    def test_over_bound_is_violation(self):
        v = RateBoundValidator(tolerance=0.5)
        bad = sample(out_bps=20e6)
        found = v.check(context(bad))
        assert [f.check for f in found] == ["rate_bound"]
        assert found[0].severity is Severity.VIOLATION
        assert found[0].decays_trust

    def test_regression_diagnosed_separately(self):
        # A counter running backwards reads as a near-4GB wrap delta.
        prev = snapshot(0.0, octets_out=50_000)
        cur = snapshot(2.0, octets_out=10_000)
        rate = (cur[1][1] - prev[1][1]) % 2**32 / 2.0  # the out octets
        bad = sample(out_bps=rate)
        found = RateBoundValidator().check(context(bad, prev=prev, cur=cur))
        assert [f.check for f in found] == ["counter_regression"]

    def test_polled_speed_takes_precedence(self):
        # The agent's own ifSpeed claim bounds the check when present.
        v = RateBoundValidator(tolerance=0.5)
        s = sample(out_bps=5e6)  # fine at 100 Mb/s, absurd at 10 Mb/s
        assert v.check(context(s, speed=100e6)) == []
        assert v.check(context(s, speed=100e6, polled_speed=10e6))

    def test_no_speed_means_no_check(self):
        assert RateBoundValidator().check(context(sample(out_bps=1e9), speed=None)) == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            RateBoundValidator(tolerance=-0.1)


class TestStuckCounterValidator:
    def frozen_ctx(self, t):
        frozen = snapshot(0.0, octets_in=500, octets_out=500, ucast=5)
        later = snapshot(t, octets_in=500, octets_out=500, ucast=5)
        return context(sample(time=t), prev=frozen, cur=later)

    def moving_ctx(self, t):
        prev = snapshot(t - 2.0, octets_in=100, ucast=1)
        cur = snapshot(t, octets_in=300, ucast=3)
        return context(sample(time=t, in_bps=100.0), prev=prev, cur=cur)

    def test_idle_from_start_never_flags(self):
        v = StuckCounterValidator(stuck_after=3)
        for t in range(2, 30, 2):
            assert v.check(self.frozen_ctx(float(t))) == []

    def test_frozen_after_activity_flags(self):
        v = StuckCounterValidator(stuck_after=3)
        assert v.check(self.moving_ctx(2.0)) == []
        assert v.check(self.frozen_ctx(4.0)) == []
        assert v.check(self.frozen_ctx(6.0)) == []
        found = v.check(self.frozen_ctx(8.0))  # third frozen poll
        assert [f.check for f in found] == ["stuck_counters"]
        assert found[0].severity is Severity.SUSPECT
        assert not found[0].decays_trust  # stuck != malicious by default

    def test_movement_resets_streak(self):
        v = StuckCounterValidator(stuck_after=2)
        v.check(self.moving_ctx(2.0))
        v.check(self.frozen_ctx(4.0))
        assert v.check(self.moving_ctx(6.0)) == []
        assert v.check(self.frozen_ctx(8.0)) == []  # streak restarted at 1

    def test_forget_drops_state(self):
        v = StuckCounterValidator(stuck_after=2)
        v.check(self.moving_ctx(2.0))
        v.check(self.frozen_ctx(4.0))
        v.forget("S1", 1)  # agent restarted
        assert v.check(self.frozen_ctx(6.0)) == []


class TestSpeedValidator:
    def test_mismatch_is_violation(self):
        found = SpeedValidator().check(
            context(sample(), speed=100e6, polled_speed=10e6)
        )
        assert [f.check for f in found] == ["speed_mismatch"]
        assert found[0].severity is Severity.VIOLATION

    def test_agreement_within_tolerance(self):
        v = SpeedValidator(rel_tolerance=0.01)
        assert v.check(context(sample(), speed=100e6, polled_speed=100e6)) == []
        assert v.check(context(sample(), speed=100e6, polled_speed=100.5e6)) == []

    def test_unpolled_or_unrepresentable_skipped(self):
        v = SpeedValidator()
        assert v.check(context(sample(), speed=100e6, polled_speed=None)) == []
        # A >= 2^32 bit/s declared speed cannot fit in a Gauge32.
        assert v.check(context(sample(), speed=10e9, polled_speed=1e6)) == []

    @pytest.mark.parametrize("tolerance", [-0.01, math.nan])
    def test_a_tolerance_under_which_equal_speeds_disagree_is_rejected(self, tolerance):
        """``inspect`` asks no validator about a polled ifSpeed equal to
        the declared one: with a tolerance >= 0 none could object."""
        with pytest.raises(ValueError):
            SpeedValidator(rel_tolerance=tolerance)


class TestWrapRiskValidator:
    def test_wrap_period(self):
        assert wrap_period_seconds(100e6) == pytest.approx(343.6, abs=0.1)
        assert wrap_period_seconds(10e6) == pytest.approx(3436.0, abs=1.0)

    def test_short_interval_clean(self):
        assert WrapRiskValidator().check(context(sample(interval=2.0))) == []

    def test_long_interval_suspect_without_decay(self):
        long = sample(interval=200.0)  # > 171.8 s half-wrap at 100 Mb/s
        found = WrapRiskValidator().check(context(long))
        assert [f.check for f in found] == ["wrap_risk"]
        assert found[0].severity is Severity.SUSPECT
        assert not found[0].decays_trust


# ----------------------------------------------------------------------
# Trust dynamics / quarantine
# ----------------------------------------------------------------------
class TestQuarantineManager:
    def test_two_violations_quarantine(self):
        qm = QuarantineManager()
        qm.apply("A", 1, [verdict(t=0.0)], 0.0)
        assert not qm.is_quarantined("A", 1)  # 0.5: degraded, not out
        qm.apply("A", 1, [verdict(t=2.0)], 2.0)
        assert qm.is_quarantined("A", 1)  # 0.25 < 0.3
        assert qm.quarantined_keys() == [("A", 1)]

    def test_release_needs_six_clean_polls(self):
        qm = QuarantineManager()
        for t in (0.0, 2.0):
            qm.apply("A", 1, [verdict(t=t)], t)
        for i in range(5):
            qm.record_clean("A", 1, 4.0 + 2 * i)
            assert qm.is_quarantined("A", 1), f"released after {i + 1} clean polls"
        qm.record_clean("A", 1, 14.0)  # 0.25 + 6*0.1 = 0.85 >= 0.8
        assert not qm.is_quarantined("A", 1)
        rec = qm.record("A", 1)
        assert rec.quarantines == 1 and rec.releases == 1

    def test_suspect_decays_slower_than_violation(self):
        qm = QuarantineManager()
        qm.apply("A", 1, [verdict(severity=Severity.SUSPECT, t=0.0)], 0.0)
        qm.apply("B", 1, [verdict(t=0.0)], 0.0)
        assert qm.trust("A", 1) == pytest.approx(0.7)
        assert qm.trust("B", 1) == pytest.approx(0.5)

    def test_non_decaying_verdict_leaves_trust_alone(self):
        qm = QuarantineManager()
        qm.apply("A", 1, [verdict(check="wrap_risk", severity=Severity.SUSPECT,
                                  decays=False, t=0.0)], 0.0)
        assert qm.trust("A", 1) == 1.0
        assert qm.record("A", 1).suspects == 1  # still counted

    def test_trust_capped_at_one(self):
        qm = QuarantineManager()
        for i in range(20):
            qm.record_clean("A", 1, float(i))
        assert qm.trust("A", 1) == 1.0

    def test_unknown_interface_fully_trusted(self):
        qm = QuarantineManager()
        assert qm.trust("nobody", 9) == 1.0
        assert not qm.is_quarantined("nobody", 9)

    @pytest.mark.parametrize("step", [-0.1, math.nan])
    def test_a_recovery_that_loses_trust_is_rejected(self, step):
        """``inspect`` settles nothing for a clean sample of a pristine
        interface: with a step >= 0 there is nothing to recover."""
        with pytest.raises(ValueError):
            QuarantineManager(recover_step=step)
        assert QuarantineManager(recover_step=0.0).recover_step == 0.0

    def test_a_known_interface_builds_no_record(self):
        """``record`` probes before it creates: ``setdefault(key,
        TrustRecord())`` built an eight-field record per sample, per
        ``record_clean`` and per ``apply``, to throw it away."""
        qm = QuarantineManager()
        first = qm.record("A", 1)
        noted = [verdict(severity=Severity.SUSPECT, decays=False)]
        found = []

        def a_thousand_calls():
            for i in range(1000):
                found.append(qm.record("A", 1))
                qm.record_clean("A", 1, float(i))
                qm.apply("A", 1, noted, float(i))

        calls = call_counts(a_thousand_calls, by_file=True)
        assert calls[("<string>", "__init__")] == 0, calls  # dataclass constructors
        assert all(rec is first for rec in found)
        assert qm.records() == {("A", 1): first} and first.suspects == 1000

    @given(st.lists(st.sampled_from(["violation", "suspect", "clean"]), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_score_bounded_and_state_consistent(self, moves):
        qm = QuarantineManager()
        for i, move in enumerate(moves):
            t = float(i)
            if move == "clean":
                qm.record_clean("A", 1, t)
            else:
                sev = Severity.VIOLATION if move == "violation" else Severity.SUSPECT
                qm.apply("A", 1, [verdict(severity=sev, t=t)], t)
            rec = qm.record("A", 1)
            assert 0.0 <= rec.score <= 1.0
            if rec.quarantined:
                # Hysteresis: inside quarantine the score is always
                # below the release threshold.
                assert rec.score < 0.8
        rec = qm.record("A", 1)
        assert rec.releases <= rec.quarantines


# ----------------------------------------------------------------------
# Per-sample bookkeeping stays O(1) in the number of tracked interfaces
# ----------------------------------------------------------------------
def tracked_pipeline(n_interfaces):
    """A pipeline that has already seen one sample from every interface."""
    speeds = {(f"sw{i // 50}", i % 50 + 1): 100e6 for i in range(n_interfaces)}
    pipe = IntegrityPipeline(speeds, POLL)
    for node, if_index in speeds:
        assert pipe.inspect(sample(node=node, if_index=if_index), *IDLE)
    return pipe


class TestPerSampleCost:
    def test_inspect_call_count_independent_of_tracked_interfaces(self):
        """The trust gauges must not walk every record on every sample,
        and a clean sample of a pristine interface looks its interface up
        once, builds nothing, settles nothing and writes no gauge: 3
        Python calls in all -- this test's lambda, ``inspect`` and the
        stuck-counter rule, which keeps state and so
        sees every sample (18 while every sample built a context, asked
        four validators for a list each and wrote its trust gauge; 27
        while the aggregate gauge and both transition counters were
        re-written per sample too)."""
        counts = {}
        for n in (10, 1000):
            pipe = tracked_pipeline(n)
            again = sample(node="sw0", if_index=1, time=4.0)
            counts[n] = python_calls(lambda: pipe.inspect(again, *IDLE))
        assert counts[10] == counts[1000] <= 3, counts

    def test_a_firing_rule_costs_its_verdict_and_no_more(self):
        """The stuck-counter rule fires on nine idle-campus samples in
        ten, so the firing path is the common one: the validator's
        verdict and the suspect counter are all it adds, the trust
        record's tallies moved in place (5 calls, on every plane; 23 and
        22 before)."""
        counts = {}
        for n in (10, 1000):
            pipe = tracked_pipeline(n)
            frozen = snapshot(0.0, octets_in=500, octets_out=500, ucast=5)
            moved = snapshot(2.0, octets_in=900, octets_out=900, ucast=9)

            def poll(i, before, after, rate):
                s = sample(node="sw0", if_index=1, time=4.0 + 2 * i, in_bps=rate)
                return python_calls(lambda: pipe.inspect(s, before, after))

            poll(0, frozen, moved, 200.0)  # activity, then three frozen polls
            quiet = [poll(i, moved, moved, 0.0) for i in (1, 2, 3, 4)]
            assert quiet[0] == quiet[1] < quiet[2] == quiet[3], quiet
            assert pipe.quarantine.record("sw0", 1).suspects == 2
            counts[n] = quiet[3]
        assert counts[10] == counts[1000] <= 5, counts

    MOVES = st.tuples(
        st.sampled_from([("A", 1), ("A", 2), ("B", 1)]),
        st.sampled_from(["violation", "suspect", "clean", "clean"]),
    )

    @given(st.lists(MOVES, max_size=120))
    @example(  # quarantine, release, quarantine again on one interface
        [(("A", 1), "violation")] * 2
        + [(("A", 1), "clean")] * 6
        + [(("A", 1), "violation")] * 2
    )
    @settings(max_examples=60, deadline=None)
    def test_running_counts_match_a_recount(self, moves):
        pipe = IntegrityPipeline({}, POLL)
        manager = pipe.quarantine
        registry = pipe.telemetry.registry
        for i, ((node, if_index), move) in enumerate(moves):
            t = POLL * i
            if move == "clean":
                pipe.inspect(sample(node=node, if_index=if_index, time=t), *IDLE)
            else:
                sev = Severity.VIOLATION if move == "violation" else Severity.SUSPECT
                pipe.apply_external_verdicts(
                    [IntegrityVerdict("probe", sev, node, if_index, t)], t
                )
            records = manager.records().values()
            recount = (
                sum(r.quarantined for r in records),
                sum(r.quarantines for r in records),
                sum(r.releases for r in records),
            )
            assert recount[0] == len(manager.quarantined_keys())
            assert (
                manager.quarantined, manager.quarantines, manager.releases
            ) == recount
            assert (
                registry.value("quarantined_interfaces"),
                registry.value("integrity_quarantines_total"),
                registry.value("integrity_quarantine_releases_total"),
            ) == recount


# ----------------------------------------------------------------------
# What the direction of a comparison decides
# ----------------------------------------------------------------------
class TestRatesThatAreNoNumber:
    """``RateBoundValidator`` passes a rate on ``rate <= limit`` and
    ``WrapRiskValidator`` an interval on ``interval <= half_wrap``; both
    are false for NaN, so a value that is no number falls through and is
    judged.  Any guard put in front of them must be written the same way
    round: ``rate > limit`` would wave a NaN into the rate table."""

    @pytest.mark.parametrize("direction", ["in_bps", "out_bps"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_remote_nan_or_infinite_rate_is_a_rate_bound_violation(
        self, rate, direction
    ):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L")
        pipe = IntegrityPipeline({("S1", 1): 100e6}, POLL, telemetry=monitor.telemetry)
        bad = sample(**{direction: rate})

        def accept(s):  # what a root's derivation does with one sample
            if pipe.inspect(s, *IDLE):
                monitor.rates.update(s)

        accept(bad)
        assert monitor.rates.latest("S1", 1) is None  # never reached the table
        rec = pipe.quarantine.record("S1", 1)
        assert rec.violations == 1 and rec.score == 0.5
        assert rec.last_verdict.check == "rate_bound"
        assert rec.last_verdict.severity is Severity.VIOLATION
        registry = monitor.telemetry.registry
        assert registry.value("integrity_violations_by_check_total", check="rate_bound") == 1
        assert registry.value("integrity_samples_rejected_total") == 1
        accept(sample(time=4.0, in_bps=1000.0))  # a sane one still lands
        assert monitor.rates.latest("S1", 1).time == 4.0

    def test_a_nan_interval_draws_wrap_risk_and_is_admitted(self):
        pipe = IntegrityPipeline({("S1", 1): 100e6}, POLL)
        assert pipe.inspect(sample(interval=math.nan), *IDLE)
        rec = pipe.quarantine.record("S1", 1)
        assert rec.last_verdict.check == "wrap_risk"
        assert rec.last_verdict.severity is Severity.SUSPECT
        assert (rec.suspects, rec.violations, rec.score) == (1, 0, 1.0)


# ----------------------------------------------------------------------
# Cross-checking
# ----------------------------------------------------------------------
class TestCrossPairs:
    def test_testbed_pairs(self):
        pairs = two_ended_pairs(figure3_spec())
        labels = sorted(p.label for p in pairs)
        # L, S1, S2 attach to the switch with agents on both ends; the
        # hub legs (N1, N2, switch.port8) have a hub in the middle and
        # the S3-S6 legs have no host agent, so neither cross-checks.
        assert labels == [
            "L.eth0<->switch.port1",
            "S1.hme0<->switch.port2",
            "S2.hme0<->switch.port3",
        ]
        for pair in pairs:
            assert pair.primary.node != "switch"  # host end preferred
            assert pair.secondary.node == "switch"

    def test_extra_poll_indexes(self):
        pairs = two_ended_pairs(figure3_spec())
        assert extra_poll_indexes(pairs) == {"switch": [1, 2, 3]}


class TestCrossChecker:
    def pair(self):
        return next(
            p for p in two_ended_pairs(figure3_spec()) if p.primary.node == "S1"
        )

    def samples(self, pair, a_out, b_in, t=10.0):
        a, b = pair.primary, pair.secondary
        return {
            a.key(): sample(node=a.node, if_index=a.if_index, time=t,
                            out_bps=a_out, in_bps=100.0),
            b.key(): sample(node=b.node, if_index=b.if_index, time=t,
                            in_bps=b_in, out_bps=100.0),
        }

    def test_agreement_within_tolerance(self):
        pair = self.pair()
        checker = CrossChecker([pair], breach_count=1)
        findings = checker.check(self.samples(pair, 100_000.0, 110_000.0), 10.0)
        assert [f.mismatch for f in findings] == [False]

    def test_mismatch_debounced(self):
        pair = self.pair()
        checker = CrossChecker([pair], breach_count=2)
        first = checker.check(self.samples(pair, 200_000.0, 50_000.0, t=10.0), 10.0)
        assert not any(f.mismatch for f in first)  # one breach: noise
        second = checker.check(self.samples(pair, 200_000.0, 50_000.0, t=12.0), 12.0)
        assert [f.mismatch for f in second] == [True]
        assert checker.mismatches == 1

    def test_agreement_resets_streak(self):
        pair = self.pair()
        checker = CrossChecker([pair], breach_count=2)
        checker.check(self.samples(pair, 200_000.0, 50_000.0, t=10.0), 10.0)
        checker.check(self.samples(pair, 100_000.0, 100_000.0, t=12.0), 12.0)
        third = checker.check(self.samples(pair, 200_000.0, 50_000.0, t=14.0), 14.0)
        assert not any(f.mismatch for f in third)

    def test_small_absolute_noise_ignored(self):
        pair = self.pair()
        checker = CrossChecker([pair], breach_count=1, abs_floor_bps=4096.0)
        # 3 KB/s apart is under the absolute floor even though the
        # relative disagreement is large.
        findings = checker.check(self.samples(pair, 4000.0, 1000.0), 10.0)
        assert not any(f.mismatch for f in findings)

    def test_stale_end_skips_the_pair(self):
        pair = self.pair()
        checker = CrossChecker([pair], breach_count=1, max_sample_age=4.0)
        samples = self.samples(pair, 200_000.0, 50_000.0, t=2.0)
        assert checker.check(samples, 10.0) == []  # both ends 8 s old

    def test_recent_offender_attribution(self):
        pair = self.pair()
        checker = CrossChecker([pair], breach_count=1)
        findings = checker.check(
            self.samples(pair, 200_000.0, 50_000.0), 10.0,
            recent_offender=lambda node, i: node == "S1",
        )
        assert findings[0].mismatch and findings[0].blamed == "S1"
        verdicts = checker.verdicts_for(findings[0])
        assert [(v.node, v.severity) for v in verdicts] == [("S1", Severity.VIOLATION)]

    def test_tie_suspects_both_ends(self):
        pair = self.pair()
        checker = CrossChecker([pair], breach_count=1)
        findings = checker.check(self.samples(pair, 200_000.0, 50_000.0), 10.0)
        assert findings[0].mismatch and findings[0].blamed is None
        verdicts = checker.verdicts_for(findings[0])
        assert {v.node for v in verdicts} == {"S1", "switch"}
        assert {v.severity for v in verdicts} == {Severity.SUSPECT}


# ----------------------------------------------------------------------
# Satellite: sysUpTime (TimeTicks) wraps at 2^32 hundredths (~497 days)
# ----------------------------------------------------------------------
class TestTimeTicksWrap:
    def test_delta_seconds_across_wrap(self):
        before = TimeTicks(2 ** 32 - 100)  # 1 s before the wrap
        after = TimeTicks(100)  # 1 s after
        assert before.delta_seconds(TimeTicks(2 ** 32 - 300)) == pytest.approx(2.0)
        assert after.delta_seconds(before) == pytest.approx(2.0)

    @given(start=st.integers(0, 2 ** 32 - 1), ticks=st.integers(1, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_delta_seconds_wrap_invariant(self, start, ticks):
        older = TimeTicks(start)
        newer = TimeTicks((start + ticks) % 2 ** 32)
        assert newer.delta_seconds(older) == pytest.approx(ticks / 100.0)

    @given(start=st.integers(0, 2 ** 32 - 1), delta=st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_counter32_delta_wrap_invariant(self, start, delta):
        older = Counter32(start)
        newer = Counter32((start + delta) % 2 ** 32)
        assert newer.delta(older) == delta

    def test_rate_stays_finite_and_correct_through_ingest(self):
        """Drive the real poller ingest across the sysUpTime wrap."""
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_interval=POLL)
        poller = monitor.poller
        wrap = 2 ** 32
        # Baseline 1 s before the wrap, next poll 1 s after: the raw
        # tick values regress but the wrap-aware delta is 2 s.
        derive(poller, "S1", 1, snapshot_at_ticks(wrap - 100, octets=1_000))
        derive(poller, "S1", 1, snapshot_at_ticks(100, octets=1_000 + 25_000))
        got = poller.rates.latest("S1", 1)
        assert got is not None
        assert got.interval == pytest.approx(2.0)
        assert math.isfinite(got.in_bytes_per_s)
        assert got.in_bytes_per_s == pytest.approx(12_500.0)
        # The integrity pipeline saw nothing wrong with it.
        assert monitor.integrity.trust("S1", 1) == 1.0
        assert monitor.telemetry.events.count(INTEGRITY_VIOLATION) == 0


def snapshot_at_ticks(ticks, octets):
    octets, ucast = Counter32.wrap(octets).value, Counter32.wrap(octets // 500).value
    return TimeTicks(ticks % 2 ** 32).value, (octets, octets, ucast, ucast, 0, 0)


# ----------------------------------------------------------------------
# Satellite: Counter32 wrap-risk configuration guard
# ----------------------------------------------------------------------
class TestWrapRiskGuard:
    def test_slow_polling_warns_once_per_fast_interface(self):
        pipeline = IntegrityPipeline(
            speeds={("A", 1): 100e6, ("B", 1): 10e6},
            poll_interval=200.0,  # beyond 171.8 s at 100 Mb/s, safe at 10
        )
        assert pipeline.wrap_risky_interfaces == [("A", 1)]
        events = pipeline.telemetry.events.events(COUNTER_WRAP_RISK)
        assert len(events) == 1
        assert events[0].attrs["node"] == "A"
        assert events[0].attrs["half_wrap_seconds"] == pytest.approx(171.8)

    def test_paper_interval_is_safe(self):
        pipeline = IntegrityPipeline(speeds={("A", 1): 100e6}, poll_interval=POLL)
        assert pipeline.wrap_risky_interfaces == []
        assert pipeline.telemetry.events.count(COUNTER_WRAP_RISK) == 0

    def test_monitor_surfaces_the_warning(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_interval=200.0)
        assert monitor.telemetry.events.count(COUNTER_WRAP_RISK) >= 1


# ----------------------------------------------------------------------
# Acceptance: corruption on the Figure-3 testbed
# ----------------------------------------------------------------------
FAULT_AT = 10.0
RUN_UNTIL = 40.0


def corrupted_scenario(fault=True):
    scenario = Scenario(poll_interval=POLL, seed=0)
    scenario.watch("S1", "N1")
    scenario.watch("S4", "S5")
    scenario.reports = collect_reports(scenario)
    if fault:
        CounterCorruption(
            scenario.network.sim,
            scenario.build.agents["S1"],
            at=FAULT_AT,
            events=scenario.monitor.telemetry.events,
        )
    scenario.run(RUN_UNTIL)
    return scenario


@pytest.fixture(scope="module")
def corrupted_run():
    return corrupted_scenario(fault=True)


@pytest.fixture(scope="module")
def clean_run():
    return corrupted_scenario(fault=False)


class TestCorruptionAcceptance:
    def test_clean_run_has_zero_false_positives(self, clean_run):
        stats = clean_run.monitor.stats()
        assert stats["integrity_violations"] == 0
        assert stats["integrity_rejected"] == 0
        assert stats["integrity_quarantined"] == 0

    def test_quarantined_within_three_cycles(self, corrupted_run):
        bus = corrupted_run.monitor.telemetry.events
        entries = bus.events(QUARANTINE_ENTER)
        assert entries, "corruption never triggered quarantine"
        first = entries[0]
        assert first.attrs["node"] == "S1"
        assert first.time <= FAULT_AT + 3 * POLL
        assert corrupted_run.monitor.integrity.is_quarantined("S1", 1)

    def test_violations_detected_and_samples_withheld(self, corrupted_run):
        stats = corrupted_run.monitor.stats()
        assert stats["integrity_violations"] > 0
        assert stats["integrity_rejected"] > 0
        assert stats["integrity_quarantined"] == 1
        checks = {
            e.attrs["check"]
            for e in corrupted_run.monitor.telemetry.events.events(INTEGRITY_VIOLATION)
        }
        # Random 32-bit garbage both overshoots line rate and regresses.
        assert checks <= {"rate_bound", "counter_regression"}
        assert checks

    def test_affected_path_is_never_trusted_under_corruption(self, corrupted_run):
        series = corrupted_run.reports["S1<->N1"]
        post = [r for r in series if r.time > FAULT_AT + 3 * POLL]
        assert post
        for report in post:
            assert not report.trusted, report.summary()
            assert report.degraded or report.unavailable or report.any_quarantined

    def test_unaffected_path_is_bit_identical(self, corrupted_run, clean_run):
        label = "S4<->S5"
        with_fault = corrupted_run.path_series(label)
        without = clean_run.path_series(label)
        assert len(with_fault) == len(without) > 0
        assert np.array_equal(with_fault.times(), without.times())
        assert np.array_equal(with_fault.used(), without.used())
        assert np.array_equal(with_fault.available(), without.available())

    def test_trust_recovers_after_fault_would_clear(self):
        scenario = Scenario(poll_interval=POLL, seed=0)
        scenario.watch("S1", "N1")
        reports = collect_reports(scenario)
        CounterCorruption(
            scenario.network.sim, scenario.build.agents["S1"],
            at=10.0, until=16.0,
            events=scenario.monitor.telemetry.events,
        )
        scenario.run(60.0)
        bus = scenario.monitor.telemetry.events
        assert bus.count(QUARANTINE_ENTER) == 1
        assert bus.count(QUARANTINE_EXIT) == 1
        release = bus.last(QUARANTINE_EXIT)
        assert release.attrs["node"] == "S1"
        assert release.time > 16.0
        assert not scenario.monitor.integrity.is_quarantined("S1", 1)
        assert scenario.monitor.integrity.trust("S1", 1) >= 0.8
        settled = [
            r for r in reports["S1<->N1"]
            if r.time >= release.time + 2 * POLL
        ]
        assert settled and all(r.trusted for r in settled)


# ----------------------------------------------------------------------
# Acceptance: two-ended cross-checks catch a consistent liar
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def byzantine_run():
    """S1 under-reports ifOutOctets by 70% from t=0: no onset transient,
    so only the cross-check can catch it."""
    scenario = scenario_with({"cross_check": True}, poll_interval=POLL, seed=1)
    scenario.watch("S1", "N1")
    scenario.reports = collect_reports(scenario)
    scenario.add_load("L", "S1", StepSchedule.pulse(5.0, 35.0, 200 * KBPS))
    CounterCorruption(
        scenario.network.sim, scenario.build.agents["S1"],
        at=0.0, mode="scaled", scale=0.3,
        events=scenario.monitor.telemetry.events,
    )
    scenario.run(RUN_UNTIL)
    return scenario


class TestCrossCheckAcceptance:
    def test_clean_cross_check_run_is_quiet(self):
        scenario = scenario_with({"cross_check": True}, poll_interval=POLL, seed=1)
        scenario.watch("S1", "N1")
        scenario.add_load("L", "S1", StepSchedule.pulse(5.0, 35.0, 200 * KBPS))
        scenario.run(RUN_UNTIL)
        stats = scenario.monitor.stats()
        assert stats["cross_check_mismatches"] == 0
        assert stats["integrity_violations"] == 0
        assert stats["integrity_quarantined"] == 0

    def test_mismatch_flagged_and_blamed_on_the_liar(self, byzantine_run):
        bus = byzantine_run.monitor.telemetry.events
        mismatches = bus.events(CROSS_CHECK_MISMATCH)
        assert mismatches, "cross-check never fired on a lying agent"
        assert all(e.attrs["pair"] == "S1.hme0<->switch.port2" for e in mismatches)
        blamed = {e.attrs["blamed"] for e in mismatches}
        assert blamed == {"S1"}, f"attribution hit the wrong end: {blamed}"

    def test_liar_quarantined_and_path_untrusted(self, byzantine_run):
        monitor = byzantine_run.monitor
        assert monitor.integrity.is_quarantined("S1", 1)
        assert monitor.stats()["integrity_quarantined"] >= 1
        late = [
            r for r in byzantine_run.reports["S1<->N1"] if r.time > 20.0
        ]
        assert late and not any(r.trusted for r in late)

    def test_status_surface_reflects_the_quarantine(self, byzantine_run):
        status = byzantine_run.monitor.integrity.status()
        assert "S1:1" in status["quarantined"]
        row = next(r for r in status["interfaces"] if r["node"] == "S1")
        assert row["quarantined"] and row["trust"] < 0.3
        assert {p["pair"] for p in status["pairs"]} == {
            "L.eth0<->switch.port1",
            "S1.hme0<->switch.port2",
            "S2.hme0<->switch.port3",
        }


# ----------------------------------------------------------------------
# Acceptance: the other corruption classes
# ----------------------------------------------------------------------
class TestOtherFaultClasses:
    def test_stuck_counters_blamed_by_cross_check(self):
        scenario = scenario_with({"cross_check": True}, poll_interval=POLL, seed=0)
        scenario.watch("S2", "N1")
        scenario.add_load("L", "S2", StepSchedule.pulse(5.0, 38.0, 250 * KBPS))
        StuckCounters(
            scenario.network.sim, scenario.build.agents["S2"],
            at=16.0, events=scenario.monitor.telemetry.events,
        )
        scenario.run(RUN_UNTIL)
        bus = scenario.monitor.telemetry.events
        mismatches = bus.events(CROSS_CHECK_MISMATCH)
        assert mismatches
        assert {e.attrs["blamed"] for e in mismatches} == {"S2"}
        assert scenario.monitor.integrity.is_quarantined("S2", 1)
        # The per-sample validator annotated the freeze as SUSPECT too.
        assert scenario.monitor.telemetry.registry.value(
            "integrity_suspect_samples_total"
        ) > 0

    def test_speed_misreport_caught_by_polled_ifspeed(self):
        scenario = scenario_with({"cross_check": True}, poll_interval=POLL, seed=0)
        scenario.watch("S1", "N1")
        SpeedMisreport(
            scenario.network.sim, scenario.build.agents["S1"],
            if_index=1, claimed_bps=10_000_000, at=8.0,
            events=scenario.monitor.telemetry.events,
        )
        scenario.run(30.0)
        checks = {
            e.attrs["check"]
            for e in scenario.monitor.telemetry.events.events(INTEGRITY_VIOLATION)
        }
        assert "speed_mismatch" in checks
        assert scenario.monitor.integrity.is_quarantined("S1", 1)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestIntegrityCli:
    def test_corrupt_flag_shows_quarantine(self, capsys):
        from repro.cli import main

        assert main([
            "integrity", "--corrupt", "S1:random:10", "--until", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "QUARANTINED" in out
        assert "integrity_violation" in out
        assert "integrity stats:" in out

    def test_json_format(self, capsys):
        import json

        from repro.cli import main

        assert main([
            "integrity", "--cross-check", "--until", "10", "--format", "json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"status", "events", "stats"}
        assert len(data["status"]["pairs"]) == 3
        assert data["stats"]["integrity_violations"] == 0

    def test_malformed_corrupt_spec(self, capsys):
        from repro.cli import main

        assert main(["integrity", "--corrupt", "S1:random"]) == 2
        assert main(["integrity", "--corrupt", "S9:random:5"]) == 2
        assert main(["integrity", "--corrupt", "S1:banana:5"]) == 2


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestIntegrityKnobs:
    def test_custom_config_reaches_the_pipeline(self):
        build = build_testbed()
        cfg = IntegrityConfig(rate_tolerance=0.9, quarantine_below=0.1)
        monitor = NetworkMonitor(build, "L", integrity=cfg)
        assert monitor.integrity.config.rate_tolerance == 0.9
        assert monitor.integrity.quarantine.quarantine_below == 0.1

    def test_integrity_off_keeps_stats_resolvable(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", integrity=False)
        monitor.watch_path("S1", "N1")
        monitor.start()
        build.network.run(10.0)
        assert monitor.integrity is None
        stats = monitor.stats()
        assert stats["integrity_violations"] == 0
        assert stats["integrity_rejected"] == 0
        assert stats["samples"] > 0
