"""What the tree planes' samples are held to: each worker's own poller.

A worker ships its readings and derives nothing; the root derives them
with :meth:`~repro.core.poller.Derivation.derive`.  The reference is the
derivation the worker's :class:`~repro.core.poller.SnmpPoller` would
have made itself, on the same replies, against its own baselines -- the
ones it drops when an assignment moves an interface away and back, and
loses when the worker restarts.  :func:`derive_alongside` has every
worker's poller make it, reply by reply, before the reading ships, by
test-side instrumentation only.  A batch lost on the way up is a missed
poll: the root derives the next reading across it, as the poller would
had that reply timed out (:func:`across`).  Nothing here is called by the
product.
"""

from typing import Collection, List, Optional, Tuple

from repro.core.hierarchy import LeafCoordinator
from repro.core.poller import Derivation
from repro.telemetry import Telemetry

#: ``(poller, sample)``: the poller (one per worker life) that derived it.
Derived = List[Tuple[object, object]]
#: ``(poller, node, sysUpTime, time, rows)``: a reading a worker shipped.
Shipped = List[tuple]


def workers_of(plane) -> list:
    """Every polling worker of a tree plane, under its leaves or not."""
    out = []
    for endpoint in plane.workers.values():
        if isinstance(endpoint, LeafCoordinator):
            out += endpoint.dm.workers.values()
        else:
            out.append(endpoint)
    return out


def _derive_too(worker, derived: Derived, shipped: Optional[Shipped]) -> None:
    poller = worker.poller
    read = poller._derive  # the reply's parse, then ``on_reading``
    if shipped is not None:
        ship = poller.on_reading

        def logged(node, uptime, now, rows):
            shipped.append((poller, node, uptime, now, rows))
            return ship(node, uptime, now, rows)

        poller.on_reading = logged

    def both(node, if_indexes, uptime, tables):
        ship, poller.on_reading = poller.on_reading, None
        try:
            read(node, if_indexes, uptime, tables)  # derived here, as the flat poller does
        finally:
            poller.on_reading = ship
        read(node, if_indexes, uptime, tables)  # and shipped

    poller._derive = both
    poller.on_sample = lambda sample: derived.append((poller, sample))


def derive_alongside(plane, shipped: Optional[Shipped] = None) -> Derived:
    """From now on, every sample each worker's own poller derives from the
    replies it reads, in order, with the poller that derived it, and into
    ``shipped``, when given, every reading it ships; a restarted worker's
    new poller is instrumented as it is built."""
    derived: Derived = []
    for worker in workers_of(plane):
        _derive_too(worker, derived, shipped)
        rebuild = worker._rebuild

        def rebuilt(*args, worker=worker, rebuild=rebuild):
            rebuild(*args)
            _derive_too(worker, derived, shipped)

        worker._rebuild = rebuilt
    return derived


def bits(sample) -> tuple:
    """A sample, floats by their repr: -0.0 is not 0.0, NaN is NaN."""
    return (sample.node, sample.if_index) + tuple(
        repr(f) for f in (
            sample.time, sample.interval, sample.in_bytes_per_s,
            sample.out_bytes_per_s, sample.in_pkts_per_s, sample.out_pkts_per_s,
        )
    )


def admitted_by(plane) -> list:
    """From now on, every sample the plane's rate table admits, in order."""
    landed = []
    update = plane.rates.update
    plane.rates.update = lambda sample: (landed.append(sample), update(sample))
    return landed


def across(shipped: Shipped, lost: Collection[Tuple[str, int]], interval: float) -> Derived:
    """What each poller would have derived from the reading after one of
    ``lost`` (``(node, sysUpTime)`` readings its root never saw) had it
    missed the reply: that reading against the last one before it."""
    derivation = Derivation(Telemetry.disabled(), interval)
    baselines, spanning, out = {}, set(), []
    for poller, node, uptime, time, rows in shipped:
        key = (id(poller), node)
        if (node, uptime) in lost:
            spanning.add(key)
            continue
        samples = derivation.derive(baselines.setdefault(key, {}), node, uptime, time, rows)
        if key in spanning:
            spanning.discard(key)
            out += [(poller, sample) for sample in samples]
    return out


def held_to_the_pollers(landed, derived, spans: Derived = ()) -> int:
    """Every admitted sample is, bit for bit, one a worker's own poller
    derived -- or one of ``spans`` (:func:`across`), in the place of the
    poller's own sample of that reading -- none twice, and per worker life
    in the order that poller derived them.  Returns how many matched."""
    where, own = {}, {}
    for position, (poller, sample) in enumerate(derived):
        assert bits(sample) not in where, sample  # two pollers never agree to the bit
        where[bits(sample)] = (poller, position)
        own[(id(poller), sample.node, sample.if_index, sample.time)] = position
    for poller, sample in spans:
        position = own[(id(poller), sample.node, sample.if_index, sample.time)]
        where.setdefault(bits(sample), (poller, position))
    last = {}
    for sample in landed:
        poller, position = where.pop(bits(sample), (None, None))
        assert poller is not None, f"admitted, derived by no poller: {sample}"
        key = (id(poller), sample.node, sample.if_index)
        assert last.get(key, -1) < position, f"out of order: {sample}"
        last[key] = position
    return len(landed)
