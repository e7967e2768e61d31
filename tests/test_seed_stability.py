"""Seed stability of the headline reproduction claims.

EXPERIMENTS.md reports seed-0 numbers; the claims must not be artifacts
of one lucky seed.  A compressed staircase run is evaluated across seeds
and every quantity must stay inside the bands the paper's shape defines.

The second half pins the other direction: one seed must always produce
the same event trace, to the last timestamp bit and tie-break.
"""

import hashlib

import pytest

from repro.analysis.series import stable_mask
from repro.analysis.stats import compute_table2
from repro.core.hierarchy import HierarchicalMonitor
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.experiments.scenarios import Scenario
from repro.simnet.engine import Simulator
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network

SCHEDULE = StepSchedule([(20.0, 200 * KBPS), (110.0, 0.0)])
RUN_UNTIL = 140.0


def run_seed(seed: int):
    scenario = Scenario(seed=seed)
    label = scenario.watch("S1", "N1")
    scenario.add_load("L", "N1", SCHEDULE)
    scenario.run(RUN_UNTIL)
    pair = scenario.series_pair(label, ["N1"])
    stable = stable_mask(pair.times, SCHEDULE, window=2.0, guard=1.0)
    return compute_table2(pair.measured_kbps, pair.generated_kbps, stable=stable)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_headline_bands_hold_across_seeds(seed):
    stats = run_seed(seed)
    # Background: non-zero, same order as the paper's 0.824 KB/s.
    assert 0.1 < stats.background < 5.0
    # Systematic error: positive (headers), single-digit percent.
    level = stats.levels[0]
    assert level.avg_less_background > level.generated
    assert level.pct_error < 6.0
    # Worst-case single samples: larger than the mean, bounded.
    assert stats.max_pct_error < 30.0


def test_seeds_differ_but_agree():
    results = [run_seed(seed) for seed in (5, 6)]
    means = [r.levels[0].avg_less_background for r in results]
    assert means[0] != means[1]  # genuinely different runs...
    assert abs(means[0] - means[1]) / means[0] < 0.02  # ...same physics


# ----------------------------------------------------------------------
# Same seed -> same event trace (ROADMAP 4c)
# ----------------------------------------------------------------------
# The golden hashes were recorded at the commit *before* the simulator's
# heap, frame and snapshot paths were rewritten for speed (PR 14) and
# must never change in a PR that claims "same events, same order": they
# cover every callback the engine fires, its timestamp to the last bit,
# and the FIFO order of simultaneous events.  A change that alters the
# trace on purpose re-records them and says so.
GOLDEN_TESTBED_TRACE = "9f50e3cbae33d13d081402d37750c792e35a2c1fb15db038d87857aad405488a"
GOLDEN_CAMPUS_TRACE = "d809a119c41e87225f41b75c7edead6af52ed9dd77e63b7e824e6c04f36169b5"
TRACE_UNTIL = 20.0


class _Traced:
    """A scheduled callback that logs ``(time, qualname)`` when fired."""

    __slots__ = ("sim", "fn", "log")

    def __init__(self, sim, fn, log):
        self.sim, self.fn, self.log = sim, fn, log

    def __call__(self, *args, **kwargs):
        name = getattr(self.fn, "__qualname__", type(self.fn).__qualname__)
        self.log(f"{self.sim.now!r} {name}\n".encode())
        return self.fn(*args, **kwargs)


def traced_run(monkeypatch, build_and_run):
    """Run ``build_and_run()`` with every event the engine fires hashed.

    Wraps callbacks at the two public scheduling entry points, so it
    holds for any engine that keeps that surface -- it does not look at
    the heap.  Returns ``(sha256 hexdigest, events logged)``.
    """
    digest = hashlib.sha256()
    count = [0]

    def log(line):
        digest.update(line)
        count[0] += 1

    with monkeypatch.context() as patch:
        for name in ("schedule", "schedule_at"):
            original = getattr(Simulator, name)

            def traced(self, when, callback, *args, _original=original, **kwargs):
                if not isinstance(callback, _Traced):  # schedule may call schedule_at
                    callback = _Traced(self, callback, log)
                return _original(self, when, callback, *args, **kwargs)

            patch.setattr(Simulator, name, traced)
        sim = build_and_run()
    assert count[0] == sim.events_processed  # nothing fired unlogged
    return digest.hexdigest(), count[0]


def figure3_under_load():
    scenario = Scenario(seed=0)
    scenario.watch("S1", "N1")
    scenario.add_load("L", "N1", StepSchedule([(2.0, 300 * KBPS), (12.0, 100 * KBPS)]))
    scenario.run(TRACE_UNTIL)
    return scenario.network.sim


def small_campus():
    shape = dict(switches=2, hosts_per_switch=3)
    build = build_network(
        scale_spec(hierarchical=2, host_agents=False, **shape), agent_seed=0
    )
    monitor = HierarchicalMonitor(
        build, hierarchy_plan(2, **shape), poll_interval=2.0, poll_jitter=0.0, seed=0
    )
    monitor.watch_path("p0h0_2", "p1h1_2")
    StaircaseLoad(
        build.network.host("p0h0_2"),
        build.network.ip_of("p1h1_2"),
        StepSchedule([(1.0, 50 * KBPS), (9.0, 20 * KBPS)]),
    ).start()
    monitor.start()
    build.network.run(TRACE_UNTIL)
    return build.network.sim


@pytest.mark.parametrize(
    "build_and_run, golden",
    [(figure3_under_load, GOLDEN_TESTBED_TRACE), (small_campus, GOLDEN_CAMPUS_TRACE)],
    ids=["testbed", "campus"],
)
def test_event_trace_is_pinned(monkeypatch, build_and_run, golden):
    first, events = traced_run(monkeypatch, build_and_run)
    again, _ = traced_run(monkeypatch, build_and_run)
    assert first == again, "two runs of one seed fired different events"
    assert events > 5_000  # the trace covers real traffic, not an idle net
    assert first == golden, (
        f"event trace changed ({events} events): a timestamp, a tie-break "
        "or an event count moved"
    )
