"""Streaming subscriptions over the all-pairs bandwidth matrix.

The push-based consumption surface for the monitor's measurements:
instead of polling :class:`~repro.core.matrix.BandwidthMatrix` snapshots
and diffing them, a consumer registers a :class:`Subscription` (with a
bounded queue and an overflow policy) and receives typed events --
:class:`PairChanged`, :class:`PathDegraded`, :class:`PathRestored` --
for exactly the pairs it watches, driven by the incremental dataflow's
dirty-pair recomputation.  Standing :class:`ThresholdQuery` /
:class:`PercentileQuery` predicates evaluate incrementally on the same
feed, and :class:`QuantileDeadbandFilter` significance filters keep
sub-noise-floor twitches from ever becoming events.

Entry points: :meth:`repro.core.monitor.ReportCore.enable_streaming`
(every monitor plane) wires a publisher into the monitor's emit cycle; ``repro stream`` on the
CLI demonstrates the surface end to end.
"""

from repro.stream.events import (
    TOPOLOGY_PAIR,
    PairChanged,
    PathDegraded,
    PathRerouted,
    PathRestored,
    ProbeDisagreement,
    QueryCleared,
    QueryFired,
    StreamEvent,
    TopologyChanged,
    pair_key,
)
from repro.stream.manager import (
    StreamError,
    SubscriptionManager,
    register_stream_metrics,
)
from repro.stream.publisher import MatrixPublisher
from repro.stream.queries import (
    ContinuousQuery,
    PercentileQuery,
    QueryError,
    ThresholdQuery,
)
from repro.stream.significance import QuantileDeadbandFilter
from repro.stream.subscription import (
    DEFAULT_QUEUE_BOUND,
    OverflowPolicy,
    Subscription,
)

__all__ = [
    "DEFAULT_QUEUE_BOUND",
    "ContinuousQuery",
    "MatrixPublisher",
    "OverflowPolicy",
    "PairChanged",
    "PathDegraded",
    "PathRerouted",
    "PathRestored",
    "PercentileQuery",
    "ProbeDisagreement",
    "QuantileDeadbandFilter",
    "QueryCleared",
    "QueryError",
    "QueryFired",
    "StreamError",
    "StreamEvent",
    "Subscription",
    "SubscriptionManager",
    "TOPOLOGY_PAIR",
    "ThresholdQuery",
    "TopologyChanged",
    "pair_key",
    "register_stream_metrics",
]
