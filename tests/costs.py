"""Cost guards without a wall clock: count Python-level calls instead.

A function's Python-call count is exact and repeats bit for bit, so a
test can bound the cost of a hot path on any box, however noisy.  The
rigs those guards run on live here too.
"""

import functools
import gc
import sys
from collections import Counter
from unittest import mock


def call_counts(fn, by_file: bool = False) -> Counter:
    """Python-level calls made while ``fn`` runs, by function name.

    ``by_file`` keys them ``(source file, function name)`` instead, for a
    guard that must tell one module's ``begin`` or ``__init__`` from
    another's.  The collector is held off meanwhile: ``gc.callbacks``
    hooks (hypothesis installs one) are Python calls that come and go
    with memory pressure.
    """
    calls: Counter = Counter()

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename, code.co_name) if by_file else code.co_name] += 1

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
    switch and carries the samples to the root, returning the Python
    calls each tier made on the way -- worker ``_on_response`` + flush,
    leaf ingest + relay + flush, root ingest -- by ``(source file,
    function name)``.
    """

    NODE = "p0sw0"

    def __init__(self, hosts: int = 32, **options) -> None:
        from repro.core.hierarchy import HierarchicalMonitor
        from repro.experiments.scale import hierarchy_plan, scale_spec
        from repro.spec.builder import build_network

        spec = scale_spec(hierarchical=1, switches=1, hosts_per_switch=hosts,
                          host_agents=False)
        self.build = build_network(spec)
        plan = hierarchy_plan(1, switches=1, hosts_per_switch=hosts, workers_per_shard=1)
        self.root = HierarchicalMonitor(
            self.build, plan, poll_interval=2.0, poll_jitter=0.0, **options
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
            self.worker._flush()

        def on_leaf():
            self.carry(0)
            self.leaf._flush()

        def on_root():
            self.carry(1)

        return {
            tier: call_counts(step, by_file=True)
            for tier, step in (("worker", on_worker), ("leaf", on_leaf), ("root", on_root))
        }


def per_record(active: bool, sizes=(16, 32)):
    """``{tier: Counter}``: what one more steady ``ADVANCE`` record costs
    each tier, by ``(source file, function name)`` -- the difference
    between a ``sizes[1]``- and a ``sizes[0]``-interface cycle over the
    difference in records.  Both sizes fit one batch and one-byte record
    ids, so the slope is the record and the intercept (the batch, the
    datagram) drops out.  With ``active`` the counters move once and
    then freeze, and by the measured cycle the root's stuck-counter rule
    fires on every record; without, they never move and nothing fires.
    """
    cycles = []
    for n in sizes:
        tiers = ThreeTiers()
        tiers.poll(n, 1000)  # the baseline
        for _ in range(5):  # into the steady state: ADVANCE records only
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
