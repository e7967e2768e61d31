"""Two-level coordinator tree for 10k-host-scale monitoring.

One coordinator ingesting every worker's batches scales linearly in one
host's receive path and one process's per-stream bookkeeping.  The
hierarchical plane splits the poll-target pool into *shards*: each shard
is owned by a :class:`LeafCoordinator` -- the fault-tolerant
:class:`~repro.core.distributed.SampleIngest` of the flat plane over the
shard's worker hosts, with no report core behind it -- which merges its
workers' streams and ships them up one delta-encoded, sequenced stream.
The :class:`HierarchicalMonitor` root therefore sees *one stream per
shard* (an idle shard's heartbeats aside), not one per worker, and
derives its rate table and path reports exactly like the flat plane.

The tree reuses the flat plane's machinery at both levels, by
construction rather than duplication:

* **Root ingest** -- ``HierarchicalMonitor`` *is* a
  ``DistributedMonitor`` whose "workers" are leaf coordinators: leases,
  gap detection, degraded-source marking, versioned assignments and the
  watch/report surface are inherited unchanged.
  Shard assignment rides the same ``assign`` control message workers
  use, so a lost shard datagram heals through the same stale-echo
  resend.
* **Leaf uplink** -- a leaf and a worker are the same
  :class:`~repro.core.distributed.UplinkEndpoint` (sequenced shipping,
  assign/keyframe control) over different sample sources, and both ship
  when their poll cycle closes -- a leaf's, once its workers' closing
  batches are in -- and that closing batch is their heartbeat.
* **One loss model, twice** -- a batch lost worker->leaf or leaf->root
  is a missed poll: nothing is resent, the receiving tier keeps its ids
  and baselines, and the root derives the next reading of each interface
  across the hole, as the flat poller does after a timed-out poll.
* **Failover, twice** -- a dead *worker* is handled inside its leaf
  (the shard repartitions over the surviving workers); a dead *leaf*
  is handled by the root (its shard's targets repartition over the
  surviving leaves, which forward them to their own workers).  Both are
  the same ``_rebalance`` code path.

A leaf coordinator crash kills only the coordinator *process*: its
workers -- separate hosts -- keep polling and shipping into the void.
On restart the leaf resumes with fresh ingest state, *adopts* its
workers' mid-flight sequence streams instead of reading everything
since seq 1 as lost, and heals its delta decoders with keyframe requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.deltas import DeltaDecoder, Reading
from repro.core.distributed import DistributedMonitor, SampleIngest, UplinkEndpoint
from repro.core.poller import PollTarget
from repro.simnet.address import IPv4Address
from repro.spec.builder import BuildResult
from repro.telemetry import Telemetry


class LeafCoordinator(UplinkEndpoint):
    """One shard: a local coordinator over its worker hosts, plus an
    uplink to the hierarchy root.

    The reading source is a :class:`~repro.core.distributed.SampleIngest`
    over the shard's workers whose sink relays to this endpoint's
    shipper, so the root drives leaves with the unmodified flat
    machinery.  No report core, derivation or integrity (the root has
    them), no telemetry registry worth exporting.
    """

    def __init__(
        self,
        build: BuildResult,
        host_name: str,
        worker_hosts: Sequence[str],
        targets: Sequence[PollTarget],
        root_ip: IPv4Address,
        poll_interval: float,
        poll_jitter: float,
        seed: int,
        pipeline_window: int,
        **shipping,
    ) -> None:
        super().__init__(build, host_name, root_ip, poll_interval, **shipping)
        self.dm = SampleIngest(
            build,
            host_name,
            list(worker_hosts),
            sink=self._relay,
            telemetry=Telemetry.disabled(clock=lambda: self.sim.now),
            poll_interval=poll_interval,
            poll_jitter=poll_jitter,
            seed=seed,
            pipeline_window=pipeline_window,
            targets=list(targets),
            adopt_streams=True,
            **shipping,
        )
        self.dm.on_cycle = self._ship_cycle

    @property
    def poller(self) -> SampleIngest:
        """Where ``targets`` (the applied target list) lives: a worker's
        is its poller's, a shard's is its ingest's pool."""
        return self.dm

    @property
    def requests_sent(self) -> int:
        """Total SNMP requests issued by this shard's workers."""
        return sum(w.requests_sent for w in self.dm.workers.values())

    @property
    def window_peak(self) -> int:
        """Deepest pipeline occupancy any of this shard's workers hit."""
        return max(
            (w.poller.window_peak for w in self.dm.workers.values()), default=0
        )

    def start(self, at: Optional[float] = None) -> None:
        self.dm.start(at=at)
        super().start(at)

    def stop(self) -> None:
        super().stop()
        self.dm.stop()

    def _teardown(self) -> None:
        """The leaf coordinator *process* goes.  Its workers -- separate
        hosts -- keep polling and shipping into the void; only the
        shard-local ingest, the uplink and the control listener stop."""
        super()._teardown()
        self.dm.suspend()

    def _rebuild(self) -> None:
        """Fresh shard ingest that *adopts* the workers' mid-flight
        streams rather than demanding history it never saw."""
        self.dm.resume()

    def _apply_targets(self, targets: List[PollTarget]) -> None:
        self.dm.set_target_pool(targets)

    def _relay(self, decoder: DeltaDecoder, readings: List[Reading]) -> int:
        """Forward a batch's readings, still tagged with who took them."""
        for _, node, _, _, rows, _ in readings if self.dm.degraded else ():
            for if_index, _ in rows:  # fresh data: no longer known-lossy here
                self.dm.degraded.clear(node, if_index)
        return self.shipper.enqueue(*readings)

    def _ship_cycle(self) -> None:
        """The shard's cycle is over: ship what its workers delivered, if
        anything, naming what a lost batch or lease left it unable to vouch for."""
        if self.shipper.delta.entries:
            self.shipper.flush(self.assign_version, self.dm.degraded.keys())


class HierarchicalMonitor(DistributedMonitor):
    """The root of the coordinator tree.

    ``plan`` is :func:`repro.experiments.scale.hierarchy_plan` output:
    it names the root host, each shard's leaf coordinator host, the
    worker hosts inside each shard, and each shard's *member* nodes
    (the affinity map: a target's home shard is the pod it lives in, so
    monitoring traffic stays inside the pod until aggregation).  Leaves
    are driven through the inherited flat-plane machinery -- leases, gap
    detection, versioned ``assign`` messages -- and ship delta-encoded
    reading streams; the root's report surface is the flat coordinator's,
    and so are its options, except that the tree batches 32 samples per
    datagram where the flat plane batches 8 -- at both levels:
    ``max_batch`` rides the shipping options through each leaf into its
    shard's ingest and on to every worker under it.
    """

    def __init__(
        self,
        build: BuildResult,
        plan: Dict[str, object],
        max_batch: int = 32,
        **options,
    ) -> None:
        shards = plan["shards"]
        if not shards:
            raise ValueError("plan has no shards")
        self.plan = plan
        self._shard_workers: Dict[str, List[str]] = {
            leaf: list(shard["workers"]) for leaf, shard in shards.items()
        }
        self._shard_of: Dict[str, str] = {
            member: leaf
            for leaf, shard in shards.items()
            for member in shard["members"]
        }
        super().__init__(
            build,
            coordinator_host=plan["root"],
            worker_hosts=list(shards),
            max_batch=max_batch,
            **options,
        )

    # -- hooks into the flat machinery ------------------------------------
    def _affinity(self, target: PollTarget) -> Optional[str]:
        return self._shard_of.get(target.node)

    def _make_worker(
        self, name: str, targets: List[PollTarget], index: int
    ) -> LeafCoordinator:
        return LeafCoordinator(
            self.build,
            name,
            self._shard_workers[name],
            targets,
            self.coordinator.primary_ip,
            self.poll_interval,
            self.poll_jitter,
            seed=self.seed + 1000 * (index + 1),
            **self._endpoint_options,
        )

    # -- introspection ------------------------------------------------------
    @property
    def leaves(self) -> Dict[str, LeafCoordinator]:
        return self.workers

    def stats(self) -> Dict[str, float]:
        """Flat counters plus per-shard poll/uplink economics."""
        out = super().stats()
        out["shards"] = float(len(self.workers))
        for name, leaf in self.workers.items():
            out[f"per_shard_exchanges.{name}"] = float(leaf.requests_sent)
            out[f"per_shard_keyframes.{name}"] = float(
                leaf.shipper.keyframes_shipped
            )
            out[f"per_shard_window_peak.{name}"] = float(leaf.window_peak)
        return out
