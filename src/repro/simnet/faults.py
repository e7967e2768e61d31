"""Fault injection for the simulated LAN.

DeSiDeRaTa "performs QoS monitoring and failure detection"; a monitor
that is only ever shown a healthy network is untestable on half its job.
This module injects the failures a real LAN suffers:

- :class:`LinkFailure`      -- take a link down (both directions drop
  everything) and optionally restore it later.  Interface operational
  state follows, so SNMP ``ifOperStatus`` and link-state traps react.
- :class:`PacketLoss`       -- random, seeded per-direction frame loss on
  a link (a flaky cable).
- :class:`AgentOutage`      -- an SNMP daemon stops answering for a while
  (the process crashed); the manager sees timeouts, exactly what the
  paper's monitor would have experienced.
- :class:`AgentReboot`      -- the daemon dies *and comes back with
  sysUpTime and all counters reset* (host reboot / demon restart),
  exercising the poller's restart-detection and re-baselining path.
- :class:`ResponseDelay`    -- the agent still answers, just slowly (an
  overloaded host), exercising the manager's adaptive RTO estimation.
- :class:`Flap`             -- a link that goes down and up periodically
  (a half-seated connector), exercising link-state and health hysteresis.
- :class:`CounterCorruption` -- the agent *answers normally but lies*:
  octet counters come back random, frozen or scaled (firmware bugs,
  memory corruption, byzantine agents), exercising the measurement-
  integrity pipeline end to end.
- :class:`StuckCounters`    -- CounterCorruption specialised to frozen
  traffic counters (octets and packets), the classic wedged-driver bug.
- :class:`SpeedMisreport`   -- the agent claims a wrong ifSpeed,
  exercising the integrity pipeline's speed cross-validation.
- :class:`WorkerCrash`      -- a distributed monitoring *worker* process
  dies (the host stays healthy), exercising lease expiry and poll-target
  failover in the distributed plane.
- :class:`NetworkPartition` -- links silently drop everything while
  staying administratively up (grey failure): no linkDown trap, no
  oper-status change, only end-to-end liveness machinery notices.

All injections are plain objects driven by the simulation clock and are
fully deterministic under a seed.  Each is a :class:`Fault`: a window
``[at, until)`` plus an ``(apply, revert)`` pair.

**Overlapping faults compose.**  What a fault overrides on its target --
a channel's ``drop_filter``, an interface's admin state, an agent's
``on_receive``, ``mib`` or ``response_delay``, a worker's ``crashed``
flag -- it *holds* (:class:`_Override`): the value in force is the
target's own passed through every active holder in arrival order, so the
newest filter or handler wins, MIB rewrites and extra delays stack, and
the target is back at its base exactly when the last of them ends.

The lying faults are **size-preserving**: a corrupted value is re-encoded
padded with leading zero octets to the genuine value's BER content
length (a legal encoding the decoder accepts), so response datagrams
keep their exact original size and timing.  That matters here because
SNMP responses are real bytes on the simulated wire and count into the
measured octet rates -- a fault that changed message sizes would perturb
measurements on every shared link, not just lie about one interface.
"""

from __future__ import annotations

import functools
import random
from typing import TYPE_CHECKING, List, Optional

from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.packet import EthernetFrame

if TYPE_CHECKING:  # pragma: no cover - simnet must not import telemetry eagerly
    from repro.telemetry.events import EventBus


class FaultError(RuntimeError):
    """Raised for invalid fault configuration."""


def _link_label(link: Link) -> str:
    return f"{link.end_a.full_name}<->{link.end_b.full_name}"


def find_link(network, a: str, b: str, index: int = 0) -> Link:
    """The ``index``-th link joining devices ``a`` and ``b`` (by name).

    Redundant uplinks are parallel links between the same two switches;
    ``index`` (wiring order) selects which one.  Raises
    :class:`FaultError` when no such link exists, so chaos scenarios fail
    loudly on topology typos instead of silently injecting nothing.
    """
    matches = [
        link
        for link in network.links
        if {link.end_a.device_name, link.end_b.device_name} == {a, b}
    ]
    if not matches:
        raise FaultError(f"no link joins {a!r} and {b!r}")
    if not 0 <= index < len(matches):
        raise FaultError(
            f"{a!r}<->{b!r} has {len(matches)} link(s); no index {index}"
        )
    return matches[index]


class _Override:
    """One overridable attribute of one target: the ``base`` value it has
    with no fault in force and each active fault's ``over(below) ->
    value``, re-derived whenever a holder comes or goes, in any order."""

    def __init__(self, write) -> None:
        self.write = write
        self.base = None
        self.holders = {}  # fault -> over, in arrival order

    def derive(self) -> None:
        value = self.base
        for over in self.holders.values():
            value = over(value)
        self.write(value)


class Fault:
    """A window ``[at, until)`` plus an ``(apply, revert)`` pair.

    The base owns what every injection repeats: the window check, begin
    (and, when bounded, end) scheduling, the :attr:`active` flag -- the
    ground truth "is this fault in force right now?" --, the idempotent
    end, and lifecycle publication on the optional ``events`` bus
    (normally the monitor's ``telemetry.events``), so experiments can
    correlate injected failures with the monitor's reaction on one
    timeline (a fault whose constructor takes no bus is given one as
    ``fault.events`` before it begins).  A concrete fault validates its own parameters and supplies
    ``apply()`` and ``revert()``, each returning the attributes of the
    event it causes.  What ``apply`` overrides on the target it takes with
    :meth:`_hold`, never by saving the previous value itself; the base
    gives it back, whatever else overlaps, before ``revert`` runs.
    """

    def __init__(
        self,
        sim: Simulator,
        at: Optional[float],
        until: Optional[float] = None,
        events: Optional["EventBus"] = None,
    ) -> None:
        """``at=None``: nothing is scheduled; the subclass begins it."""
        if until is not None and until <= at:
            raise FaultError(
                f"{type(self).__name__} end {until!r} must follow start {at!r}"
            )
        self.sim = sim
        self.at = at
        self.until = until
        self.events = events
        self.active = False
        self._held: List[_Override] = []
        if at is not None:
            sim.schedule_at(max(at, sim.now), self._begin)
        if until is not None:
            sim.schedule_at(max(until, sim.now), self._end)

    def _begin(self) -> None:
        self.active = True
        self._publish(True, self.apply())

    def _end(self) -> None:
        if not self.active:
            return
        self.active = False
        while self._held:
            override = self._held.pop()
            override.holders.pop(self, None)  # None: held twice (a link listed twice)
            override.derive()
        self._publish(False, self.revert())

    def _publish(self, injected: bool, attrs: dict) -> None:
        if self.events is None:
            return
        from repro.telemetry.events import FAULT_CLEARED, FAULT_INJECTED

        self.events.publish(
            FAULT_INJECTED if injected else FAULT_CLEARED,
            self.sim.now,
            fault=type(self).__name__,
            **attrs,
        )

    def _override(self, target, attr: str, write=None) -> _Override:
        """The record for ``target.attr`` (set through ``write(value)``
        if given), kept on the simulator all faults of one run share."""
        overrides = vars(self.sim).setdefault("fault_overrides", {})
        override = overrides.get((target, attr))
        if override is None:
            write = write or functools.partial(setattr, target, attr)
            override = overrides[target, attr] = _Override(write)
        if not override.holders:
            override.base = getattr(target, attr)
        return override

    def _hold(self, target, attr: str, over, write=None) -> None:
        """Override ``target.attr`` with ``over(below)`` until this fault ends."""
        override = self._override(target, attr, write)
        override.holders[self] = over
        override.derive()
        self._held.append(override)

    def _rebase(self, target, attr: str, remake) -> None:
        """Replace the un-overridden value itself with ``remake(old)`` (a
        reboot's fresh MIB): active holders now override the new base."""
        override = self._override(target, attr)
        override.base = remake(override.base)
        override.derive()


class LinkFailure(Fault):
    """Severs a link at ``at`` and optionally restores it at ``until``.

    Implementation: both endpoint interfaces are administratively downed,
    which makes transmission fail (out_discards) and reception drop
    (in_discards) -- indistinguishable, from above, from a yanked cable.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        at: float,
        until: Optional[float] = None,
        events: Optional["EventBus"] = None,
    ) -> None:
        super().__init__(sim, at, until, events)
        self.link = link

    @classmethod
    def between(cls, network, a: str, b: str, *args, index: int = 0, **kwargs):
        """This fault on the ``index``-th link joining devices ``a`` and
        ``b`` (the rest are the constructor's arguments after ``link``):
        the by-name form chaos scenarios use to hit a specific uplink of
        a redundant switch-to-switch pair."""
        return cls(network.sim, find_link(network, a, b, index), *args, **kwargs)

    def apply(self) -> dict:
        for iface in self.link.endpoints:
            # set_admin_up notifies the link-state observers (traps).
            self._hold(iface, "admin_up", lambda below: False, iface.set_admin_up)
        return dict(link=_link_label(self.link))

    def revert(self) -> dict:
        return dict(link=_link_label(self.link))


class PacketLoss(Fault):
    """Seeded random frame loss on a link (both directions).

    Installs a drop filter on both directional channels: each offered
    frame is dropped with probability ``loss_rate`` before it enqueues,
    counted in the channel's drop statistics.  Permanent from
    construction: the injection event fires immediately and there is no
    matching cleared event.
    """

    def __init__(
        self,
        link: Link,
        loss_rate: float,
        seed: int = 0,
        events: Optional["EventBus"] = None,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise FaultError(f"loss rate {loss_rate!r} outside [0, 1]")
        self.link = link
        self.loss_rate = loss_rate
        self.rng = random.Random(seed)
        self.frames_lost = 0
        super().__init__(link.sim, None, None, events)
        self._begin()

    def _should_drop(self, frame: EthernetFrame) -> bool:
        if self.rng.random() < self.loss_rate:
            self.frames_lost += 1
            return True
        return False

    def apply(self) -> dict:
        for channel in (self.link._a_to_b, self.link._b_to_a):
            self._hold(channel, "drop_filter", lambda below: self._should_drop)
        return dict(link=_link_label(self.link), loss_rate=self.loss_rate)


class AgentOutage(Fault):
    """An SNMP agent stops responding during [at, until).

    Models a crashed/hung daemon: requests are still *received* (and
    counted) but produce no response, so the manager runs into its
    timeout/retry machinery.
    """

    def __init__(
        self,
        sim: Simulator,
        agent,
        at: float,
        until: float,
    ) -> None:
        super().__init__(sim, at, until)
        self.agent = agent
        self.requests_ignored = 0

    def _black_hole(self, payload, size, src_ip, src_port) -> None:
        self.agent.in_packets += 1
        self.requests_ignored += 1

    def apply(self) -> dict:
        self._hold(self.agent.socket, "on_receive", lambda below: self._black_hole)
        return dict(agent=self.agent.name)

    def revert(self) -> dict:
        return dict(agent=self.agent.name)


class AgentReboot(AgentOutage):
    """The SNMP daemon's host reboots: silent during [at, at+outage),
    then back **with sysUpTime restarted and every counter zeroed**.

    This is the failure mode the poller's ``agent_restarts`` branch
    exists for: after the reboot the old counter baselines are garbage
    (they would yield colossal negative-looking deltas), and the first
    post-reboot poll must only re-establish baselines.  The sysUpTime
    reset is what gives the restart away, exactly as MIB-II intends.
    """

    def __init__(self, sim: Simulator, agent, at: float, outage: float) -> None:
        if outage <= 0:
            raise FaultError(f"non-positive reboot outage {outage!r}")
        super().__init__(sim, agent, at, at + outage)
        self.outage = outage
        self.rebooted = False

    def revert(self) -> dict:
        # Local imports: simnet must not depend on snmp at module level.
        from repro.snmp.mib import CachingMibTree, MibError, build_mib2, register_snmp_group

        device = getattr(self.agent.endpoint, "switch", self.agent.endpoint)
        for iface in getattr(device, "interfaces", []):
            counters = iface.counters
            for name in counters.__slots__:
                setattr(counters, name, 0)

        def fresh_mib(old_mib):
            # Rebuild the MIB with boot_time = now, so sysUpTime restarts at
            # zero; preserve a caching wrapper's refresh interval if present,
            # and stop the old wrapper's timer: nobody serves its snapshot.
            mib = build_mib2(device, self.sim, boot_time=self.sim.now)
            try:
                register_snmp_group(mib, self.agent)
            except MibError:
                pass
            if isinstance(old_mib, CachingMibTree):
                old_mib.stop()
                mib = CachingMibTree(mib, self.sim, old_mib.refresh_interval)
            return mib

        # The fresh tree replaces the agent's own, not whatever a lying
        # fault serves in front of it: one still active keeps lying over
        # the new tree until its own window closes.
        self._rebase(self.agent, "mib", fresh_mib)
        self.rebooted = True
        return dict(super().revert(), rebooted=True)


class ResponseDelay(Fault):
    """An alive-but-slow agent: responses take ``extra`` seconds longer
    during [at, until) (or forever, when ``until`` is None).

    Models an overloaded host whose daemon still answers everything.  A
    fixed-timeout manager would retransmit (or give up on) every poll; an
    adaptive one should raise that destination's RTO and keep polling
    cleanly once the estimator converges.
    """

    def __init__(
        self,
        sim: Simulator,
        agent,
        extra: float,
        at: float,
        until: Optional[float],
    ) -> None:
        if extra <= 0:
            raise FaultError(f"non-positive extra delay {extra!r}")
        super().__init__(sim, at, until)
        self.agent = agent
        self.extra = extra

    def apply(self) -> dict:
        self._hold(self.agent, "response_delay", lambda below: below + self.extra)
        return dict(agent=self.agent.name, extra=self.extra)

    def revert(self) -> dict:
        return dict(agent=self.agent.name)


class _TamperedMib:
    """Delegating MIB view that rewrites selected values on the way out.

    Wraps whatever the agent currently serves (a plain ``MibTree`` or a
    ``CachingMibTree``) and applies ``rewrite(oid, value)`` to every GET,
    GETNEXT and successor-run result.  Everything else -- subtree checks,
    attributes like ``refresh_interval`` -- delegates to the wrapped
    tree, so the agent cannot tell the difference and neither can a
    reboot fault that later replaces ``agent.mib`` wholesale.  **Every
    method that returns MIB values must be defined here**: one that fell
    through ``__getattr__`` would bypass the lie.
    """

    def __init__(self, inner, rewrite) -> None:
        self.inner = inner
        self._rewrite = rewrite

    def get(self, oid):
        value = self.inner.get(oid)
        return None if value is None else self._rewrite(oid, value)

    def get_next(self, oid):
        hit = self.inner.get_next(oid)
        if hit is None:
            return None
        next_oid, value = hit
        return next_oid, self._rewrite(next_oid, value)

    def get_next_run(self, oid, count):
        # Spelled out, not left to __getattr__: forwarded to the wrapped
        # tree a GetBulk repeater would be served the truth, not the lie.
        return [
            (next_oid, self._rewrite(next_oid, value))
            for next_oid, value in self.inner.get_next_run(oid, count)
        ]

    def readers(self, oids):
        # Spelled out too: forwarded, a reply plan would serve the truth.
        readers = self.inner.readers(oids)
        if readers is None:
            return None
        return [self._lying(oid, reader) for oid, reader in zip(oids, readers)]

    def _lying(self, oid, reader):
        rewrite = self._rewrite
        if callable(reader):
            return lambda: rewrite(oid, reader())
        return lambda: rewrite(oid, reader)

    def has_subtree(self, oid):
        return self.inner.has_subtree(oid)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _padded_unsigned(prototype, value: int):
    """Re-encode ``value`` as ``prototype``'s type, padded to its length.

    Returns an instance whose ``encode()`` output is byte-for-byte the
    same *length* as the prototype's: the content is left-padded with
    zero octets up to the prototype's minimal content length (BER
    permits redundant leading zeros for unsigned types and the decoder
    accepts them).  ``value`` must fit in the prototype's length; use
    :func:`_fit_to_length` first.
    """
    from repro.snmp import ber

    target_len = len(ber.encode_unsigned_content(prototype.value, prototype.bits))

    class _Padded(type(prototype)):
        def encode(self) -> bytes:
            content = ber.encode_unsigned_content(self.value, self.bits)
            if len(content) < target_len:
                content = b"\x00" * (target_len - len(content)) + content
            return ber.encode_tlv(self.tag, content)

    _Padded.__name__ = f"Padded{type(prototype).__name__}"
    return _Padded(value)


def _fit_to_length(value: int, prototype) -> int:
    """Shrink ``value`` until its minimal encoding fits the prototype's."""
    from repro.snmp import ber

    target_len = len(ber.encode_unsigned_content(prototype.value, prototype.bits))
    while len(ber.encode_unsigned_content(value, prototype.bits)) > target_len:
        value >>= 8
    return value


class CounterCorruption(Fault):
    """An agent that answers normally but serves corrupted octet counters.

    Modes (all size-preserving, see the module docstring):

    - ``"random"`` -- every read of a targeted counter returns a fresh
      seeded-random value.  Deltas become garbage; derived rates blow
      through the line-rate bound almost every poll, so the per-sample
      validators catch this without any cross-checking.
    - ``"stuck"``  -- the first value read after injection is frozen and
      served forever.  Deltas are zero: individually plausible, only
      suspicious after activity, conclusively caught by the two-ended
      cross-check.
    - ``"scaled"`` -- the true value is multiplied by ``scale`` (mod
      2^32).  Rates scale accordingly and stay under line rate for
      ``scale < 1``: invisible to per-sample validation, this is the
      byzantine case the two-ended cross-check exists for.

    ``if_index`` limits corruption to one interface (None: all).  The
    corrupted columns default to ifInOctets/ifOutOctets; pass ``columns``
    to widen (see :class:`StuckCounters`).
    """

    MODES = ("random", "stuck", "scaled")
    #: Default corrupted columns, as names in :mod:`repro.snmp.mib`
    #: (resolved at injection: simnet must not import snmp at module level).
    COLUMNS = ("IF_IN_OCTETS", "IF_OUT_OCTETS")

    def __init__(
        self,
        sim: Simulator,
        agent,
        at: float,
        until: Optional[float] = None,
        mode: str = "random",
        scale: float = 0.5,
        if_index: Optional[int] = None,
        columns=None,
        events: Optional["EventBus"] = None,
    ) -> None:
        if mode not in self.MODES:
            raise FaultError(f"unknown corruption mode {mode!r}; pick from {self.MODES}")
        if mode == "scaled" and scale < 0:
            raise FaultError(f"negative scale {scale!r}")
        super().__init__(sim, at, until, events)
        self.agent = agent
        self.mode = mode
        self.scale = scale
        self.if_index = if_index
        self.rng = random.Random(0)  # the random mode's values, reproducible
        self.values_corrupted = 0
        self._frozen = {}  # oid -> first value served while stuck
        self._columns = columns

    def apply(self) -> dict:
        if self._columns is None:
            from repro.snmp import mib

            self._columns = tuple(getattr(mib, name) for name in self.COLUMNS)
        self._hold(
            self.agent, "mib", lambda below: _TamperedMib(below, self._rewrite)
        )
        return dict(
            agent=self.agent.name, mode=self.mode,
            if_index=self.if_index if self.if_index is not None else "*",
        )

    def revert(self) -> dict:
        self._frozen.clear()
        return dict(agent=self.agent.name, mode=self.mode)

    def _targets(self, oid) -> bool:
        for column in self._columns:
            if oid.startswith(column):
                if self.if_index is None or oid.arcs[-1] == self.if_index:
                    return True
        return False

    def _rewrite(self, oid, value):
        from repro.snmp.datatypes import Counter32

        if not isinstance(value, Counter32) or not self._targets(oid):
            return value
        if self.mode == "random":
            corrupt = self.rng.randrange(1 << 32)
        elif self.mode == "stuck":
            corrupt = self._frozen.setdefault(oid, value.value)
        else:  # scaled
            corrupt = int(value.value * self.scale) % (1 << 32)
        corrupt = _fit_to_length(corrupt, value)
        self.values_corrupted += 1
        return _padded_unsigned(value, corrupt)


class StuckCounters(CounterCorruption):
    """All of an interface's traffic counters freeze (wedged driver).

    :class:`CounterCorruption` in ``"stuck"`` mode widened to the packet
    counters too, so the served ifTable row is self-consistent -- octets
    and packets stop together, exactly like a driver that stopped
    updating its statistics block.
    """

    COLUMNS = CounterCorruption.COLUMNS + (
        "IF_IN_UCAST_PKTS",
        "IF_OUT_UCAST_PKTS",
        "IF_IN_NUCAST_PKTS",
        "IF_OUT_NUCAST_PKTS",
    )

    def __init__(
        self,
        sim: Simulator,
        agent,
        at: float,
        until: Optional[float] = None,
        if_index: Optional[int] = None,
        events: Optional["EventBus"] = None,
    ) -> None:
        super().__init__(
            sim, agent, at, until=until, mode="stuck",
            if_index=if_index, events=events,
        )


class SpeedMisreport(Fault):
    """The agent claims a wrong ifSpeed for one interface.

    Models a misnegotiated NIC or buggy firmware: the monitor's
    rate-vs-capacity reasoning silently skews unless the integrity
    pipeline's speed validator compares the claim against the topology
    declaration.  Size-preserving only when the claimed value's minimal
    encoding is no longer than the true one (it is padded up); a longer
    claim raises at injection time rather than silently perturbing the
    wire.
    """

    def __init__(
        self,
        sim: Simulator,
        agent,
        if_index: int,
        claimed_bps: float,
        at: float,
        until: Optional[float] = None,
        events: Optional["EventBus"] = None,
    ) -> None:
        if claimed_bps <= 0:
            raise FaultError(f"non-positive claimed speed {claimed_bps!r}")
        super().__init__(sim, at, until, events)
        self.agent = agent
        self.if_index = if_index
        self.claimed_bps = int(claimed_bps)
        self.values_corrupted = 0

    def apply(self) -> dict:
        self._hold(
            self.agent, "mib", lambda below: _TamperedMib(below, self._rewrite)
        )
        return dict(
            agent=self.agent.name, if_index=self.if_index,
            claimed_bps=self.claimed_bps,
        )

    def revert(self) -> dict:
        return dict(agent=self.agent.name, if_index=self.if_index)

    def _rewrite(self, oid, value):
        from repro.snmp.datatypes import Gauge32
        from repro.snmp.mib import IF_SPEED

        if not isinstance(value, Gauge32):
            return value
        if not (oid.startswith(IF_SPEED) and oid.arcs[-1] == self.if_index):
            return value
        claimed = min(self.claimed_bps, (1 << 32) - 1)
        if _fit_to_length(claimed, value) != claimed:
            raise FaultError(
                f"claimed speed {claimed} encodes longer than the true"
                f" ifSpeed {value.value}; this would change response sizes"
            )
        self.values_corrupted += 1
        return _padded_unsigned(value, claimed)


class WorkerCrash(Fault):
    """A monitoring *worker* process dies at ``at`` (and optionally comes
    back at ``until``).

    The distributed plane's own failure mode: the worker's host and its
    SNMP agent are perfectly healthy, but the ``MonitorWorker`` process
    stops polling, shipping and heartbeating.  Exercises the
    coordinator's lease expiry, poll-target failover and (with
    ``until``) recovery rebalancing.

    Duck-typed against the worker (``crash()`` / ``restart()`` and the
    ``crashed`` flag they keep) so simnet never imports ``repro.core``;
    anything exposing those works.
    """

    def __init__(
        self,
        sim: Simulator,
        worker,
        at: float,
        until: Optional[float] = None,
        events: Optional["EventBus"] = None,
    ) -> None:
        super().__init__(sim, at, until, events)
        self.worker = worker

    def _set_crashed(self, crashed: bool) -> None:
        if crashed:
            self.worker.crash()
        else:
            self.worker.restart()

    def apply(self) -> dict:
        self._hold(self.worker, "crashed", lambda below: True, self._set_crashed)
        return dict(worker=self.worker.name)

    def revert(self) -> dict:
        return dict(worker=self.worker.name, restarted=True)


class NetworkPartition(Fault):
    """One or more links drop *everything* during [at, until) -- but stay
    administratively up.

    Unlike :class:`LinkFailure`, no interface goes oper-down, so no
    linkDown trap fires and ``ifOperStatus`` keeps reading up: the
    classic grey failure (a misprogrammed switch fabric, a one-way
    radio shadow) that only end-to-end liveness machinery can see.
    Frames offered to the partitioned channels are silently dropped and
    counted in :attr:`frames_dropped`.

    Composes with :class:`PacketLoss` and with other partitions of the
    same link: whatever filtered the channel before filters it again at
    heal, unless that has ended meanwhile.
    """

    def __init__(
        self,
        sim: Simulator,
        links,
        at: float,
        until: float,
        events: Optional["EventBus"] = None,
    ) -> None:
        self.links = list(links)
        if not self.links:
            raise FaultError("NetworkPartition needs at least one link")
        super().__init__(sim, at, until, events)
        self.frames_dropped = 0

    def _channels(self):
        for link in self.links:
            yield link._a_to_b
            yield link._b_to_a

    def _drop(self, frame: EthernetFrame) -> bool:
        self.frames_dropped += 1
        return True

    def apply(self) -> dict:
        for channel in self._channels():
            self._hold(channel, "drop_filter", lambda below: self._drop)
        return dict(links=[_link_label(link) for link in self.links])

    def revert(self) -> dict:
        return dict(
            links=[_link_label(link) for link in self.links],
            frames_dropped=self.frames_dropped,
        )


class Flap(LinkFailure):
    """A link that cycles down/up: down for ``down_for`` seconds, up for
    ``up_for``, repeating from ``at`` until ``until`` (a down phase in
    progress then is cut short -- the link is always restored at the end).

    The classic half-seated connector.  Exercises trap storms, the
    poller's oper-status backstop, and the health tracker's requirement
    of *consecutive* successes before declaring recovery.  Each down
    phase is one :class:`LinkFailure` application: :attr:`active` reads
    true while the link is down and every phase publishes its own
    injected/cleared pair.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        at: float,
        down_for: float,
        up_for: float,
        until: Optional[float] = None,
        events: Optional["EventBus"] = None,
    ) -> None:
        if down_for <= 0 or up_for <= 0:
            raise FaultError(
                f"flap phases must be positive, got down {down_for!r} / up {up_for!r}"
            )
        super().__init__(sim, link, at, until, events)
        self.down_for = down_for
        self.up_for = up_for
        self.flaps = 0  # down phases begun

    def apply(self) -> dict:
        self.flaps += 1
        attrs = super().apply()
        self.sim.schedule(self.down_for, self._end)
        return dict(attrs, flap=self.flaps)

    def revert(self) -> dict:
        self.sim.schedule(self.up_for, self._rearm)
        return dict(super().revert(), flap=self.flaps)

    def _rearm(self) -> None:
        if self.until is None or self.sim.now < self.until:
            self._begin()
