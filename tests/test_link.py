"""Unit tests for duplex links: serialisation, queueing, drops."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.engine import Simulator
from repro.simnet.link import Link, LinkError, _Channel
from repro.simnet.nic import Interface
from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram
from tests import link_reference


class Sink:
    """Minimal device: records delivered frames with their arrival time."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.received = []

    def on_frame(self, iface, frame):
        self.received.append((self.sim.now, frame))


def make_iface(sim, name, speed=100e6, promiscuous=True):
    sink = Sink(sim, name)
    iface = Interface(
        device=sink,
        local_name="eth0",
        mac=MacAddress(hash_tag(name)),
        speed_bps=speed,
        promiscuous=promiscuous,
    )
    return iface, sink


def hash_tag(name: str) -> int:
    return sum(ord(c) for c in name) + 1


def make_frame(size_payload=972, src=1, dst=2):
    packet = IPPacket(
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("10.0.0.2"),
        payload=UDPDatagram(1, 2, payload_size=size_payload),
    )
    return EthernetFrame(MacAddress(src), MacAddress(dst), packet)  # size = payload + 28


class TestWiring:
    def test_min_speed_rule(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a", speed=100e6)
        b, _ = make_iface(sim, "b", speed=10e6)
        link = Link(sim, a, b)
        assert link.bandwidth_bps == 10e6

    def test_explicit_bandwidth_overrides(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        assert Link(sim, a, b, bandwidth_bps=5e6).bandwidth_bps == 5e6

    def test_self_connection_rejected(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        with pytest.raises(LinkError):
            Link(sim, a, a)

    def test_double_attach_rejected(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        c, _ = make_iface(sim, "c")
        Link(sim, a, b)
        with pytest.raises(LinkError):
            Link(sim, a, c)

    def test_peer_of(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        link = Link(sim, a, b)
        assert link.peer_of(a) is b
        assert link.peer_of(b) is a
        c, _ = make_iface(sim, "c")
        with pytest.raises(LinkError):
            link.peer_of(c)

    def test_connected_peer_property(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        assert a.connected_peer is None
        Link(sim, a, b)
        assert a.connected_peer is b

    def test_non_positive_bandwidth_rejected(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        with pytest.raises(LinkError):
            Link(sim, a, b, bandwidth_bps=0)


class TestTransmission:
    def test_delivery_after_tx_plus_prop(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, sink = make_iface(sim, "b")
        Link(sim, a, b, bandwidth_bps=1e6, prop_delay=0.001)
        frame = make_frame(972)  # 1000 wire bytes = 8000 bits = 8 ms at 1 Mb/s
        assert a.transmit(frame)
        sim.run(1.0)
        assert len(sink.received) == 1
        t, got = sink.received[0]
        assert got is frame
        assert t == pytest.approx(0.008 + 0.001)

    def test_fifo_serialisation(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, sink = make_iface(sim, "b")
        Link(sim, a, b, bandwidth_bps=1e6, prop_delay=0.0)
        for _ in range(3):
            a.transmit(make_frame(972))
        sim.run(1.0)
        times = [t for t, _f in sink.received]
        assert times == pytest.approx([0.008, 0.016, 0.024])

    def test_duplex_directions_independent(self):
        sim = Simulator()
        a, sink_a = make_iface(sim, "a")
        b, sink_b = make_iface(sim, "b")
        Link(sim, a, b, bandwidth_bps=1e6, prop_delay=0.0)
        a.transmit(make_frame(972, src=1, dst=2))
        b.transmit(make_frame(972, src=2, dst=1))
        sim.run(1.0)
        # Both arrive at 8 ms: no shared serialiser between directions.
        assert sink_a.received[0][0] == pytest.approx(0.008)
        assert sink_b.received[0][0] == pytest.approx(0.008)

    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, sink = make_iface(sim, "b")
        link = Link(sim, a, b, bandwidth_bps=1e6, max_queue_bytes=2500)
        sent = [a.transmit(make_frame(972)) for _ in range(5)]
        # First frame starts transmitting immediately (leaves the queue),
        # then the 2500-byte queue fits two more 1000-byte frames.
        assert sent == [True, True, True, False, False]
        assert a.counters.out_discards == 2
        sim.run(1.0)
        assert len(sink.received) == 3

    def test_drops_not_counted_as_sent_octets(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        Link(sim, a, b, bandwidth_bps=1e6, max_queue_bytes=1000)
        for _ in range(5):
            a.transmit(make_frame(972))
        # 1 transmitting + 1 queued accepted; 3 dropped.
        assert a.counters.out_octets == 2000

    def test_channel_stats(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        link = Link(sim, a, b, bandwidth_bps=1e6)
        a.transmit(make_frame(972))
        sim.run(1.0)
        chan = link.channel_from(a)
        assert (chan.frames_dropped, chan.octets_dropped, chan.queue_bytes) == (0, 0, 0)
        # What a channel delivered is what its far end counted in.
        assert (b.counters.in_ucast_pkts, b.counters.in_octets) == (1, 1000)


# ----------------------------------------------------------------------
# The analytic channel against the event-per-stage one it replaced
# ----------------------------------------------------------------------
class OneWay:
    """As much of a link as an interface needs to transmit into a bare channel."""

    def __init__(self, channel):
        self.channel = channel

    def channel_from(self, src):
        return self.channel


def drive(channel_class, bandwidth, prop_delay, max_queue_bytes, loss, program):
    """Run ``program`` against one channel; return everything observable.

    A step offers a frame ``("after", gap, size)`` seconds after the last
    offer -- a zero gap is a coincident offer -- or ``("at_departure", k,
    size)`` at the very instant a frame accepted earlier leaves the
    serialiser: the last one is "exactly when the serialiser frees", an
    earlier one "exactly when a waiting frame starts".  ``("bandwidth",
    bps, None)`` reassigns the rate mid-run, once the last accepted frame
    is on the wire (a frame still *waiting* would take the new rate on
    the old channel and keep the one it was offered at on the new: see
    ``test_bandwidth_assigned_mid_run_applies_to_later_offers``).

    The driver works out those instants with the channel's own float
    expressions, fires everything due up to and including the instant,
    then offers: at a tie the serialiser frees first, then the offer is
    made -- the one order the analytic channel knows.
    """
    sim = Simulator()
    far_end, sink = make_iface(sim, "b")
    channel = channel_class(sim, bandwidth, prop_delay, max_queue_bytes, far_end)
    if channel_class is _Channel:
        # Today's channel is state: the transmitting interface advances it.
        near, _ = make_iface(sim, "a")
        near.attach(OneWay(channel))
        offer = near.transmit
    else:
        offer = channel.send
    sent = []
    loss_rate, loss_seed = loss
    if loss_rate:
        rng = random.Random(loss_seed)
        channel.drop_filter = lambda frame: rng.random() < loss_rate
    offers = []
    now = free_at = last_start = 0.0
    departures = []
    for kind, value, size in program:
        if kind == "bandwidth":
            now = max(now, last_start)
            sim.run(now)
            assert channel.queue_bytes == 0
            channel.bandwidth_bps = bandwidth = value
            continue
        if kind == "after":
            now += value
        else:
            ahead = [t for t in departures if t >= now]
            if ahead:
                now = ahead[value % len(ahead)]
        sim.run(now)
        queued = channel.queue_bytes
        sent.append(make_frame(size - 28))
        accepted = offer(sent[-1])
        offers.append((now, size, accepted, queued, channel.queue_bytes))
        if accepted:
            last_start = max(now, free_at)
            free_at = last_start + size * 8.0 / bandwidth
            departures.append(free_at)
    sim.run_until_idle()
    counters = (
        far_end.counters.in_ucast_pkts,
        far_end.counters.in_octets,
        channel.frames_dropped,
        channel.octets_dropped,
        channel.queue_bytes,
    )
    number = {id(frame): n for n, frame in enumerate(sent)}
    arrivals = [(t.hex(), number[id(frame)]) for t, frame in sink.received]
    return offers, arrivals, counters, sim.now.hex()


SIZES = st.integers(28, 1500)
STEPS = st.lists(
    st.one_of(
        # Mostly bursts: 1 us apart a 100 Mb/s wire is still busy with a
        # 28-byte frame; 1.2 ms lets a 1 500-byte one through at 10 Mb/s.
        st.tuples(
            st.just("after"),
            st.sampled_from([0.0, 0.0, 1e-6, 1e-6, 8e-5, 1.2e-3, 0.05]),
            SIZES,
        ),
        st.tuples(st.just("at_departure"), st.integers(0, 5), SIZES),
        st.tuples(st.just("bandwidth"), st.sampled_from([1e6, 10e6, 100e6]), st.none()),
    ),
    max_size=40,
)


class TestAgainstEventPerStageReference:
    @given(
        bandwidth=st.sampled_from([1e6, 10e6, 100e6]),
        prop_delay=st.sampled_from([0.0, 5e-6, 1e-3]),
        max_queue_bytes=st.sampled_from([1500, 3000, 6000, 262_144]),
        loss=st.tuples(st.sampled_from([0.0, 0.0, 0.2]), st.integers(0, 3)),
        program=STEPS,
    )
    @example(  # the third offer lands exactly as the first frame's last bit leaves
        bandwidth=1e6,
        prop_delay=5e-6,
        max_queue_bytes=1500,
        loss=(0.0, 0),
        program=[("after", 0.0, 1000), ("after", 0.0, 1000), ("at_departure", 0, 1000)],
    )
    @settings(max_examples=300, deadline=None)
    def test_same_admissions_same_arrivals_to_the_last_bit(
        self, bandwidth, prop_delay, max_queue_bytes, loss, program
    ):
        """Accept/drop decisions, ``queue_bytes`` before and after every
        offer, ``(arrival time, frame)`` bit for bit, the four counters
        and the instant the last event fires: all equal."""
        args = (bandwidth, prop_delay, max_queue_bytes, loss, program)
        assert drive(_Channel, *args) == drive(link_reference._Channel, *args)


class TestDepartureArithmetic:
    def test_offer_at_the_instant_the_serialiser_frees_finds_the_queue_moved_up(self):
        """The one tie the channel settles by rule: a frame whose
        serialisation starts *now* has left the queue, so an offer at that
        very instant is admitted against the space it freed."""
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, sink = make_iface(sim, "b")
        link = Link(sim, a, b, bandwidth_bps=1e6, prop_delay=0.0, max_queue_bytes=1000)
        assert a.transmit(make_frame(972)) and a.transmit(make_frame(972))
        assert not a.transmit(make_frame(972))  # one on the wire, one waiting: full
        sim.run(0.008)  # first frame's last bit leaves; the second starts
        assert link.channel_from(a).queue_bytes == 0
        assert a.transmit(make_frame(972))
        sim.run(1.0)
        assert [t for t, _f in sink.received] == pytest.approx([0.008, 0.016, 0.024])

    def test_bandwidth_assigned_mid_run_applies_to_later_offers(self):
        """A departure is computed when the frame is offered, so a frame
        already waiting keeps the rate it was offered at."""
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, sink = make_iface(sim, "b")
        link = Link(sim, a, b, bandwidth_bps=1e6, prop_delay=0.0)
        a.transmit(make_frame(972))
        a.transmit(make_frame(972))  # waits behind the first
        link.channel_from(a).bandwidth_bps = 8e6
        a.transmit(make_frame(972))  # offered afterwards: 1 ms on the wire
        sim.run(1.0)
        assert [t for t, _f in sink.received] == pytest.approx([0.008, 0.016, 0.017])

    def test_queue_occupancy_settles_before_it_answers(self):
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        link = Link(sim, a, b, bandwidth_bps=1e6, max_queue_bytes=4000)
        chan = link.channel_from(a)
        for _ in range(3):
            a.transmit(make_frame(972))
        assert chan.queue_bytes == 2000 and chan.utilization_estimate == 0.5
        sim.run(0.0081)  # no offer since: the second frame started on its own
        assert chan.queue_bytes == 1000 and chan.utilization_estimate == 0.25
        sim.run(1.0)
        assert chan.queue_bytes == 0

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), -1.0])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        """``nan <= 0`` is false: a NaN bandwidth used to be accepted and
        put NaN timestamps on the event heap, which wedged delivery for
        every other link of the topology."""
        sim = Simulator()
        a, _ = make_iface(sim, "a")
        b, _ = make_iface(sim, "b")
        with pytest.raises(LinkError):
            Link(sim, a, b, bandwidth_bps=bandwidth)
