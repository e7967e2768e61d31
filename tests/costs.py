"""Cost guards without a wall clock: count Python-level calls instead.

A function's Python-call count is exact and repeats bit for bit, so a
test can bound the cost of a hot path on any box, however noisy.
"""

import gc
import sys
import time
from collections import Counter


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


def overhead(with_feature, without, rounds: int = 3):
    """``(calls with, calls without, wall ratio)`` of two whole runs.

    The call counts are what a guard asserts on; the wall ratio (best of
    ``rounds`` each, the noise-robust estimator) is for printing beside
    them: for a feature that is a percent of the run it moves by more
    between two readings than the feature costs.
    """

    def best_of(fn):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    calls = python_calls(with_feature), python_calls(without)
    return (*calls, best_of(with_feature) / best_of(without))


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
#: as integers, and their flags are attributes fixed at construction.
PER_FRAME_FORBIDDEN = ("__hash__", "__eq__", "__ne__", "is_broadcast", "is_multicast")
