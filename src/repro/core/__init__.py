"""The network QoS monitor -- the paper's primary contribution.

Pipeline (paper §3):

1. :mod:`repro.core.traversal` -- traverse the communication path between
   two hosts over the spec topology (recursive, with infinite-loop
   detection), yielding the series of network connections.
2. :mod:`repro.core.poller`    -- poll every SNMP-enabled component
   periodically for the Table-1 MIB-II objects and convert cumulative
   counters into per-interval byte/packet rates using sysUpTime deltas.
3. :mod:`repro.core.counters`  -- decide, per connection, which polled
   interface supplies its traffic figure (host end, switch end, or the
   switch port facing an SNMP-less host).
4. :mod:`repro.core.bandwidth` -- per-connection used/available bandwidth
   with the switch rule (u_i = t_i) and the hub rule (u_i = Σ t_j, clamped
   to the hub speed); path available bandwidth A = min_i (m_i - u_i).
5. :mod:`repro.core.monitor`   -- :class:`~repro.core.monitor.ReportCore`
   is steps 1, 3 and 4 plus watches, history, subscribers and the
   optional streaming / probing / topology-sync planes, emitting
   :class:`~repro.core.report.PathReport` records into
   :mod:`repro.core.history` (each path's reports of the last
   ``HISTORY_HORIZON_S`` seconds) and to subscribers (the RM middleware);
   :class:`NetworkMonitor` is that core fed by a local step-2 poller.

Extensions implementing the paper's §5 future work:

- :mod:`repro.core.latency`     -- path latency estimation + UDP probes.
- :mod:`repro.core.discovery`   -- dynamic topology discovery from the
  switches' bridge-MIB forwarding tables.
- :mod:`repro.core.topology_sync` -- keeps any plane's active topology
  in step with spanning tree and host moves.
- :mod:`repro.core.distributed` -- the same report core fed by remote
  workers: ``UplinkEndpoint`` (the sending end of a sample stream; a
  ``MonitorWorker`` is one over a poller), ``SampleIngest`` (leases,
  ARQ, assignments) and :class:`DistributedMonitor` = core + ingest.
- :mod:`repro.core.hierarchy`   -- the two-level tree: a
  ``LeafCoordinator`` is an uplink endpoint over an ingest, and
  ``HierarchicalMonitor`` a ``DistributedMonitor`` whose endpoints are
  leaves.
"""

from repro.core.bandwidth import BandwidthCalculator, ConnectionMeasurement
from repro.core.counters import CounterSource
from repro.core.discovery import DiscoveryResult, TopologyDiscoverer
from repro.core.distributed import DistributedMonitor
from repro.core.health import (
    AgentHealth,
    AgentHealthTracker,
    HealthState,
    HealthTransition,
)
from repro.core.history import HISTORY_HORIZON_S, MeasurementHistory, PathSeries
from repro.core.latency import LatencyEstimator, PathProber
from repro.core.linkstate import LinkStateRegistry
from repro.core.matrix import BandwidthMatrix, MatrixSnapshot
from repro.core.monitor import NetworkMonitor
from repro.core.poller import InterfaceRates, RateTable, SnmpPoller
from repro.core.report import PathReport
from repro.core.traversal import NoPathError, find_path

__all__ = [
    "AgentHealth",
    "AgentHealthTracker",
    "BandwidthCalculator",
    "BandwidthMatrix",
    "ConnectionMeasurement",
    "CounterSource",
    "DiscoveryResult",
    "DistributedMonitor",
    "HISTORY_HORIZON_S",
    "HealthState",
    "HealthTransition",
    "InterfaceRates",
    "LatencyEstimator",
    "LinkStateRegistry",
    "MatrixSnapshot",
    "MeasurementHistory",
    "NetworkMonitor",
    "NoPathError",
    "PathProber",
    "PathReport",
    "PathSeries",
    "RateTable",
    "SnmpPoller",
    "TopologyDiscoverer",
    "find_path",
]
