"""Active probing: a second measurement modality beside passive SNMP.

The passive monitor infers path capacity from interface counters; this
package *measures* it, by sending short UDP probe trains over the same
simulated network the workload uses.  A train yields achievable
throughput (packet-pair dispersion over the train), one-way loss with
sequence-gap accounting, and RFC 3550-style interarrival jitter, all
rolled into a typed :class:`ProbeReport`.

Probing is budgeted like polling is: :class:`ProbeScheduler` sizes its
round interval so probe bytes never exceed a configured fraction of the
narrowest link on any watched path, and spends it only on a watch in
doubt (one train per poll interval for the rest); :class:`ProbeCrossValidator`
turns debounced active/passive disagreements into localized findings
(unmetered hub segment, stale counter, or quarantine-candidate agent)
that feed the integrity pipeline, the telemetry event bus, and the
streaming surface.

Entry point: :meth:`repro.core.monitor.ReportCore.enable_probing` (every
monitor plane).
"""

from repro.probe.crossval import ProbeCrossValidator, ProbeDisagreementFinding
from repro.probe.scheduler import (
    DEFAULT_BUDGET_FRACTION,
    ProbeScheduler,
    register_probe_metrics,
)
from repro.probe.stats import (
    ProbeReport,
    ProbeStats,
    dispersion_bps,
    interarrival_jitter,
    mean_abs_consecutive,
    sequence_loss,
)
from repro.probe.train import (
    PROBE_DSCP,
    PROBE_PORT,
    PROBE_TOS,
    ProbeError,
    ProbeSink,
    ProbeTrain,
)

__all__ = [
    "DEFAULT_BUDGET_FRACTION",
    "PROBE_DSCP",
    "PROBE_PORT",
    "PROBE_TOS",
    "ProbeCrossValidator",
    "ProbeDisagreementFinding",
    "ProbeError",
    "ProbeReport",
    "ProbeScheduler",
    "ProbeSink",
    "ProbeStats",
    "ProbeTrain",
    "dispersion_bps",
    "interarrival_jitter",
    "mean_abs_consecutive",
    "register_probe_metrics",
    "sequence_loss",
]
