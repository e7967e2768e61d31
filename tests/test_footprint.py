"""A monitor process holds what it monitors.

Two footprint guards.  numpy is imported on the first array a process
computes -- a matrix, a stream, a probe statistic, an analysis or a
chart -- so a plane that only polls and reports never loads it; the
check runs in a fresh interpreter, since this one has numpy already.
And a plane that is dropped frees its network: no module-level registry
keeps a host, a socket or a sink alive.
"""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

from repro.core.distributed import DistributedMonitor
from repro.core.hierarchy import HierarchicalMonitor
from repro.core.monitor import NetworkMonitor
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.experiments.testbed import build_testbed
from repro.spec.builder import build_network

ROOT = Path(__file__).resolve().parent.parent

RUN_WITHOUT_ARRAYS = """
import sys

def numpy_loaded():
    return any(name.startswith("numpy.") for name in sys.modules)

from repro import NetworkMonitor, build_testbed
from repro.core.hierarchy import HierarchicalMonitor
from repro.experiments.scale import hierarchy_plan, scale_spec
from repro.spec.builder import build_network

testbed = build_testbed()
flat = NetworkMonitor(testbed, "L")
testbed_label = flat.watch_path("S1", "N1")
flat.start()
testbed.network.run(20.0)

shape = dict(switches=2, hosts_per_switch=3)
campus = build_network(scale_spec(hierarchical=2, host_agents=False, **shape))
tree = HierarchicalMonitor(campus, hierarchy_plan(2, **shape), poll_jitter=0.0)
campus_label = tree.watch_path("p0h0_2", "p1h1_2")
tree.start()
campus.network.run(20.0)

for monitor, label in ((flat, testbed_label), (tree, campus_label)):
    report = monitor.current_report(label)
    assert report.available_bps > 0, report
assert not numpy_loaded(), "a plane that computes no array loaded numpy"

publisher = flat.enable_streaming()
testbed.network.run(30.0)
assert numpy_loaded()
assert len(publisher.matrix.snapshot(testbed.network.sim.now).reports) > 0

from repro.analysis.stats import compute_table2
table = compute_table2(
    [1.0, 1.0, 10.5, 11.5, 20.0, 22.0], [0.0, 0.0, 10.0, 10.0, 20.0, 20.0]
)
assert [level.generated for level in table.levels] == [10.0, 20.0], table
assert table.background == 1.0 and table.mean_pct_error == 0.0, table
"""


def test_numpy_loads_on_the_first_array_computed():
    """The Figure-3 testbed under the flat monitor and a 2-pod campus under
    the hierarchical one run 20 sim-s each without numpy; streaming and
    Table 2 then load it, and work."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_ARRAYS],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


def _flat_with_everything():
    """The flat plane with matrix, stream, probing and topology sync on."""
    spec = scale_spec(switches=2, hosts_per_switch=2, arity=1, redundant_uplinks=1)
    build = build_network(spec)
    monitor = NetworkMonitor(build, "h0_0")
    monitor.enable_topology_sync()
    monitor.watch_path("h0_1", "h1_1")
    monitor.enable_streaming()
    monitor.enable_probing()
    return build, monitor


def _distributed():
    build = build_testbed()
    monitor = DistributedMonitor(build, "L", ["L", "S1", "S2"], poll_jitter=0.0)
    monitor.watch_path("S1", "N1")
    return build, monitor


def _hierarchical():
    shape = dict(switches=2, hosts_per_switch=3)
    build = build_network(scale_spec(hierarchical=2, host_agents=False, **shape))
    monitor = HierarchicalMonitor(build, hierarchy_plan(2, **shape), poll_jitter=0.0)
    monitor.watch_path("p0h0_2", "p1h1_2")
    return build, monitor


class TestADroppedPlaneFreesItsNetwork:
    def _dropped(self, make):
        build, monitor = make()
        monitor.start()
        build.network.run(12.0)
        assert monitor.history.reports_held > 0  # the plane did report
        network = weakref.ref(build.network)
        del build, monitor
        gc.collect()
        return network

    def test_the_probed_flat_plane(self):
        network = self._dropped(_flat_with_everything)
        assert network() is None, "a dropped flat plane's network is still alive"

    def test_the_distributed_plane(self):
        assert self._dropped(_distributed)() is None

    def test_the_hierarchical_plane(self):
        assert self._dropped(_hierarchical)() is None
