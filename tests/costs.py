"""Cost guards without a wall clock: count Python-level calls instead.

A function's Python-call count is exact and repeats bit for bit, so a
test can bound the cost of a hot path on any box, however noisy.  The
rigs those guards run on live here too.
"""

import functools
import gc
import os
import sys
from collections import Counter
from unittest import mock


def call_counts(fn, by_file: bool = False, c_calls: bool = False) -> Counter:
    """Python-level calls made while ``fn`` runs, by function name.

    ``by_file`` keys them ``(source file, function name)`` instead, for a
    guard that must tell one module's ``begin`` or ``__init__`` from
    another's.  ``c_calls`` also counts calls into C (``dict.get``,
    ``int.from_bytes``, ...), keyed ``("<C>", qualified name)``: a guard
    on a loop that makes no Python call per item.  The collector is held
    off meanwhile: ``gc.callbacks`` hooks (hypothesis installs one) are
    Python calls that come and go with memory pressure.
    """
    calls: Counter = Counter()

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename, code.co_name) if by_file else code.co_name] += 1
        elif event == "c_call" and c_calls:
            calls[("<C>", getattr(arg, "__qualname__", repr(arg)))] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def python_calls(fn) -> int:
    """Total Python-level calls made while ``fn`` runs."""
    return sum(call_counts(fn).values())


def scenario_with(monitor_options, **options):
    """A :class:`~repro.experiments.scenarios.Scenario` (``options``)
    whose monitor is also built with ``monitor_options``: how a test
    reaches a monitor option the scenario does not forward."""
    from repro.core.monitor import NetworkMonitor
    from repro.experiments import scenarios

    monitor = functools.partial(NetworkMonitor, **monitor_options)
    with mock.patch.object(scenarios, "NetworkMonitor", monitor):
        return scenarios.Scenario(**options)


def fig4_prefix(until: float = 120.0, **monitor_options):
    """``(scenario, watch label)``: the Figure-4 experiment
    (:mod:`repro.experiments.fig4`, seed 0) run to ``until`` -- by default
    its quiet lead-in and first load level -- with ``monitor_options``
    passed to its monitor."""
    from repro.experiments import fig4

    scenario = scenario_with(monitor_options, seed=0)
    label = scenario.watch(fig4.PATH_SRC, fig4.PATH_DST)
    scenario.add_load(fig4.LOAD_SRC, fig4.LOAD_DST, fig4.LOAD_SCHEDULE)
    scenario.run(until)
    return scenario, label


def switch_chain(n_switches: int):
    """``(net, src, dst)``: two hosts joined by a line of ``n_switches``
    unmanaged switches, announced and with every FDB warm.  Adding a
    switch adds exactly one hop to the path, so the difference between
    two chains is what one switch hop costs."""
    from repro.simnet.network import Network

    net = Network()
    src, dst = net.add_host("src"), net.add_host("dst")
    switches = [net.add_switch(f"sw{i}", 4, managed=False) for i in range(n_switches)]
    for a, b in zip([src] + switches, switches + [dst]):
        net.connect(a, b)
    net.announce_hosts()
    net.run(0.01)
    return net, src, dst


def datagram_cost(net, src, dst):
    """``(calls by name, events fired)`` for one 1000-byte datagram from
    a socket on ``src`` to the DISCARD service on ``dst``, sent after a
    first one has warmed ports and routes."""
    from repro.simnet.sockets import DISCARD_PORT

    sock = src.create_socket()
    target = (dst.primary_ip, DISCARD_PORT)
    sock.sendto(972, target)
    net.run(net.now + 1.0)
    delivered, fired, until = dst.discard.datagrams, net.sim.events_processed, net.now + 1.0

    def send_one():
        sock.sendto(972, target)
        net.run(until)

    calls = call_counts(send_one)
    assert dst.discard.datagrams == delivered + 1
    return calls, net.sim.events_processed - fired


def repeated_bulk_poll(ports: int):
    """``(calls, varbinds)``: the Python calls, by ``(source file, function
    name)``, the agent of a managed ``ports``-port switch makes answering a
    whole-table GetBulk of sysUpTime and the poller's six counter columns
    it answered twice before, and the varbinds of its reply.  The request
    is handed over, the replies never sent: nothing moves in between."""
    from repro.core.poller import _COLUMNS
    from repro.simnet.network import Network
    from repro.snmp.agent import SnmpAgent
    from repro.snmp.message import VERSION_2C, Message
    from repro.snmp.mib import SYS_UPTIME, build_mib2
    from repro.snmp.pdu import Pdu

    net = Network()
    host, sw = net.add_host("L"), net.add_switch("sw", ports, managed=True)
    net.connect(host, sw)
    net.announce_hosts()
    agent = SnmpAgent(net.endpoint("sw"), build_mib2(sw, net.sim))
    names = [SYS_UPTIME.parent] + [column.extend(0) for column in _COLUMNS]
    request = Message(VERSION_2C, "public", Pdu.get_bulk_request(1, names, 1, ports)).encode()

    def answer():
        agent._on_datagram(request, len(request), host.primary_ip, 4000)

    answer()
    answer()
    return call_counts(answer, by_file=True), 1 + ports * len(_COLUMNS)


#: Names that must not run per frame: addresses are compared and hashed
#: as integers, and their flags are attributes fixed at construction; a
#: destination is resolved once per sender, the FDB probed and a port's
#: spanning-tree state read without a call.
PER_FRAME_FORBIDDEN = (
    "__hash__", "__eq__", "__ne__", "is_broadcast", "is_multicast",
    "forwarding", "_lookup", "route_for", "resolve_mac", "_is_local_ip",
)


class ThreeTiers:
    """A worker, its leaf coordinator and the hierarchy root, driven by hand.

    One pod of one switch under a :class:`HierarchicalMonitor` that is
    never started.  What the worker and the leaf ship lands in
    ``worker_out`` and ``leaf_out`` (every payload ever, in order);
    :meth:`carry` takes what is new one tier up.  :meth:`poll` feeds the
    worker's poller one reply for the first ``n`` interfaces of the
    switch and carries the reading to the root, returning the Python
    calls each tier made on the way -- worker ``_on_response`` + its
    closing batch, leaf ingest + relay + the shard's closing batch, root
    ingest and derivation -- by ``(source file, function name)``.
    """

    NODE = "p0sw0"

    def __init__(self, hosts: int = 32, **options) -> None:
        from repro.core.distributed import poll_targets
        from repro.core.hierarchy import HierarchicalMonitor
        from repro.experiments.scale import hierarchy_plan, scale_spec
        from repro.spec.builder import build_network

        spec = scale_spec(hierarchical=1, switches=1, hosts_per_switch=hosts,
                          host_agents=False)
        self.build = build_network(spec)
        plan = hierarchy_plan(1, switches=1, hosts_per_switch=hosts, workers_per_shard=1)
        # Every interface of the switch is in the pool, watched or not.
        self.root = HierarchicalMonitor(
            self.build, plan, poll_interval=2.0, poll_jitter=0.0,
            targets=poll_targets(self.build, spec.connections), **options
        )
        (self.leaf,) = self.root.leaves.values()
        (self.worker,) = self.leaf.dm.workers.values()
        self.worker_out, self.leaf_out = [], []
        self.worker.shipper.send = self.worker_out.append
        self.leaf.shipper.send = self.leaf_out.append
        self._carried = [0, 0]  # payloads of each list already taken up
        self._polls = 0

    def carry(self, tier: int) -> None:
        """Hand tier ``tier``'s new payloads (0: worker's, 1: leaf's) to
        the ingest above it."""
        out, ingest = (
            (self.worker_out, self.leaf.dm), (self.leaf_out, self.root)
        )[tier]
        for payload in out[self._carried[tier]:]:
            ingest._on_delta(payload)
        self._carried[tier] = len(out)

    def poll(self, n: int, octets: int):
        """One poll cycle through all three tiers: every counter of the
        first ``n`` interfaces reads ``octets``, two seconds of sysUpTime
        after the last poll."""
        from repro.core.poller import _COLUMNS, PollTarget
        from repro.snmp.ber import TAG_COUNTER32

        self._polls += 1
        target = PollTarget(
            self.NODE, self.build.network.ip_of(self.NODE), list(range(1, n + 1))
        )
        row = {i: (TAG_COUNTER32, octets) for i in target.if_indexes}
        reply = 200 * self._polls, {column: row for column in _COLUMNS}

        def on_worker():
            self.worker.poller._on_response(target, reply)
            self.worker.shipper.flush()  # the worker's cycle closes

        def on_leaf():
            self.carry(0)  # its closing batch ends the shard's cycle: the leaf ships

        def on_root():
            self.carry(1)

        return {
            tier: call_counts(step, by_file=True)
            for tier, step in (("worker", on_worker), ("leaf", on_leaf), ("root", on_root))
        }


def per_record(active: bool, sizes=(12, 24)):
    """``{tier: Counter}``: what one more steady interface -- a ``same``
    entry, its id alone -- costs each tier, by ``(source file, function
    name)``: the difference between a ``sizes[1]``- and a
    ``sizes[0]``-interface cycle over the difference in interfaces.  Both
    sizes fit one batch, one agent record and one-byte entry heads (ids
    below 32), so the slope is the entry and the intercept (the batch,
    the datagram, the agent record) drops out.  With ``active`` the
    counters move once and then freeze, and by the measured cycle the
    root's stuck-counter rule fires on every sample; without, they never
    move and nothing fires.
    """
    cycles = []
    for n in sizes:
        tiers = ThreeTiers()
        tiers.poll(n, 1000)  # the baseline
        for _ in range(5):  # into the steady state: same entries only
            calls = tiers.poll(n, 1500 if active else 1000)
        cycles.append(calls)
    small, large = cycles
    span = sizes[1] - sizes[0]
    out = {}
    for tier in small:
        delta = Counter(large[tier])
        delta.subtract(small[tier])
        out[tier] = Counter({k: v / span for k, v in delta.items() if v})
    return out


class HandManager:
    """An :class:`~repro.snmp.manager.SnmpManager` stand-in that sends
    nothing: ``poll_interfaces`` keeps each exchange's callback and
    errback in ``pending`` for the caller to answer by hand.  Its
    telemetry hub, on the clock of its own simulator, is off unless
    ``telemetry``."""

    def __init__(self, telemetry: bool = False) -> None:
        from repro.simnet.engine import Simulator
        from repro.telemetry import Telemetry

        self.sim = Simulator()
        self.telemetry = Telemetry(lambda: self.sim.now, enabled=telemetry)
        self.pending = []

    def poll_interfaces(self, address, if_indexes, columns, callback, errback, **_):
        self.pending.append((callback, errback))


_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def per_exchange(outcome: str, sizes=(4, 8), interfaces: int = 4) -> Counter:
    """What one more exchange costs a steady poll cycle with telemetry
    off, by ``(source file, function name)``: the difference between a
    ``sizes[1]``- and a ``sizes[0]``-agent cycle -- the cycle opened, every
    exchange launched and answered by hand, all ``"ok"`` (``interfaces``
    counters moved) or all ``"timeout"`` -- over the difference in agents.
    Only the package's frames count (and the ``__init__`` a dataclass
    generates), not the comprehension frames Python 3.11 counts and 3.12
    inlines: the slope is the same on both."""
    import repro
    from repro.core.poller import _COLUMNS, PollTarget, SnmpPoller
    from repro.snmp.ber import TAG_COUNTER32
    from repro.snmp.errors import SnmpTimeout

    package, cycles = os.path.dirname(repro.__file__), []
    for n in sizes:
        manager = HandManager()
        targets = [PollTarget(f"a{i}", None, list(range(1, interfaces + 1))) for i in range(n)]
        poller = SnmpPoller(manager, targets)

        def cycle(k, answer):
            poller._poll_cycle()
            reply = 200 * k, {column: {i: (TAG_COUNTER32, 1000 * k) for i in
                                       range(1, interfaces + 1)} for column in _COLUMNS}
            for callback, errback in manager.pending:
                if answer == "ok":
                    callback(reply)
                else:
                    errback(SnmpTimeout("a", 2))
            manager.pending.clear()

        cycle(1, "ok")  # the baseline
        cycle(2, "ok")  # the first rates
        calls = call_counts(lambda: cycle(3, outcome), by_file=True)
        cycles.append(Counter({
            key: v for key, v in calls.items()
            if key[0].startswith(package) or key[0] == "<string>"
            if key[1] not in _COMPREHENSIONS
        }))
    small, large = cycles
    delta = Counter(large)
    delta.subtract(small)
    span = sizes[1] - sizes[0]
    return Counter({k: v / span for k, v in delta.items() if v})
