"""Reply plans: a request the agent answered before is answered again from
its plan, and a plan serves what the agent's MIB view serves *now* -- a
lie while a lying fault holds and the truth after it, a rebooted tree's
values, a snapshot's values tick by tick, and a new instance's place.

Every reply is held to ``tests/snmp_reference.py::old_reply``, the
parent's handlers answering from ``agent.mib`` as it stands."""

import pytest

from repro.core.poller import _COLUMNS as POLLED
from repro.simnet.faults import AgentReboot, CounterCorruption, _TamperedMib
from repro.simnet.network import Network
from repro.snmp.agent import SnmpAgent
from repro.snmp.datatypes import Counter32
from repro.snmp.message import VERSION_2C, Message
from repro.snmp.mib import IF_IN_OCTETS, SYS_UPTIME, CachingMibTree, MibTree, build_mib2
from repro.snmp.pdu import Pdu
from tests.costs import call_counts, repeated_bulk_poll
from tests.snmp_reference import old_decode, old_reply

PORTS = 6


def rig(caching=False):
    """``(net, switch, agent, peer)``: a managed switch's agent over its
    live tree or a 5 s snapshot of it, its ports' counters off zero."""
    net = Network()
    peer = net.add_host("L")
    sw = net.add_switch("sw", PORTS, managed=True)
    net.connect(peer, sw)
    net.announce_hosts()
    tree = build_mib2(sw, net.sim)
    if caching:
        tree = CachingMibTree(tree, net.sim, refresh_interval=5.0)
    agent = SnmpAgent(net.endpoint("sw"), tree)
    for iface in sw.interfaces:
        iface.counters.in_octets += 100_000 * iface.if_index
        iface.counters.out_octets += 7_000 * iface.if_index
    net.run(net.now + 1.0)  # past the first snapshot
    return net, sw, agent, peer.primary_ip


def request(form):
    """The whole table, as a GetBulk or as a GET of every instance."""
    if form == "bulk":
        names = [SYS_UPTIME.parent] + [column.extend(0) for column in POLLED]
        return Pdu.get_bulk_request(1, names, 1, PORTS)
    oids = [SYS_UPTIME] + [column.extend(i) for column in POLLED for i in range(1, PORTS + 1)]
    return Pdu.get_request(1, oids)


def ask(agent, peer, form):
    """``(reply, from_plan)``: the agent's reply to the whole-table request,
    held to the parent's handlers over ``agent.mib``, and whether a plan
    answered it (the handlers did not run)."""
    payload = Message(VERSION_2C, "public", request(form)).encode()
    heap = {seq for _t, seq, _callback, _args in agent.sim._heap}
    calls = call_counts(lambda: agent._on_datagram(payload, len(payload), peer, 4000))
    (reply,) = [
        args[0] for _t, seq, callback, args in agent.sim._heap
        if seq not in heap and callback == agent._send_reply
    ]
    assert reply == old_reply(agent.mib, "public", payload)
    return reply, calls["_answer"] == 0


def in_octets(reply, if_index=3):
    oid = IF_IN_OCTETS.extend(if_index)
    (value,) = [vb.value for vb in old_decode(reply).pdu.varbinds if vb.oid == oid]
    return value


def warm(agent, peer, form):
    ask(agent, peer, form)
    reply, from_plan = ask(agent, peer, form)
    assert from_plan and len(agent._plans) == 1
    return reply


@pytest.mark.parametrize("form", ["bulk", "get"])
@pytest.mark.parametrize("caching", [False, True], ids=["mib-tree", "caching-tree"])
class TestAPlanServesTheViewOfNow:
    def test_a_lie_during_the_fault_and_the_truth_after_it(self, form, caching):
        net, sw, agent, peer = rig(caching)
        truth = warm(agent, peer, form)
        assert in_octets(truth) == Counter32(300_000)
        lie = CounterCorruption(net.sim, agent, None, mode="scaled", scale=0.5)
        lie._begin()
        assert isinstance(agent.mib, _TamperedMib)
        lied, from_plan = ask(agent, peer, form)
        assert not from_plan and in_octets(lied) == Counter32(150_000)
        lied_again, from_plan = ask(agent, peer, form)
        assert from_plan and lied_again == lied
        lie._end()
        after, from_plan = ask(agent, peer, form)
        assert not from_plan and after == truth  # the same request-id: the same bytes
        assert ask(agent, peer, form) == (truth, True)

    def test_a_reboot_serves_its_new_tree(self, form, caching):
        net, sw, agent, peer = rig(caching)
        before = warm(agent, peer, form)
        old_mib = agent.mib
        AgentReboot(net.sim, agent, at=net.now, outage=0.01)
        net.run(net.now + 0.02)
        assert agent.mib is not old_mib
        rebooted, from_plan = ask(agent, peer, form)
        assert not from_plan and in_octets(before) == Counter32(300_000)
        assert in_octets(rebooted) == Counter32(0)
        assert ask(agent, peer, form)[1]

    def test_a_counter_moves_with_the_view(self, form, caching):
        """Live, a moved counter is served at once; cached, at the next
        tick -- from the same plan either way."""
        net, sw, agent, peer = rig(caching)
        warm(agent, peer, form)
        sw.interfaces[2].counters.in_octets += 1500
        now, from_plan = ask(agent, peer, form)
        assert from_plan
        assert in_octets(now) == Counter32(300_000 if caching else 301_500)
        net.run(net.now + 5.0)  # a snapshot tick falls
        ticked, from_plan = ask(agent, peer, form)
        assert from_plan and in_octets(ticked) == Counter32(301_500)

    def test_a_new_instance_takes_its_place(self, form, caching):
        net, sw, agent, peer = rig(caching)
        warm(agent, peer, form)
        inner = agent.mib
        while not isinstance(inner, MibTree):
            inner = inner.inner
        reading = [9]
        inner.register(IF_IN_OCTETS.extend(1, 0), lambda: Counter32(reading[0]))  # row 1.0
        reply, from_plan = ask(agent, peer, form)
        assert not from_plan
        net.run(net.now + 5.0)  # laid out in the snapshot ...
        reading[0] = 10  # ... and served from it, not live
        assert ask(agent, peer, form)[1] is (not caching)
        assert ask(agent, peer, form)[1]


@pytest.mark.parametrize("form", ["bulk", "get"])
def test_a_plan_made_before_the_first_snapshot_serves_the_snapshot_after_it(form):
    """Until its first tick a caching view reads live; from it on, the
    snapshot's values -- not the live ones its plan was made of."""
    net = Network()
    peer = net.add_host("L").primary_ip
    sw = net.add_switch("sw", PORTS, managed=True)
    agent = SnmpAgent(net.endpoint("sw"), CachingMibTree(build_mib2(sw, net.sim), net.sim, 5.0))
    assert not agent.mib._snapshot
    warm(agent, peer, form)
    net.run(net.now + 1.0)
    sw.interfaces[2].counters.in_octets += 1500
    reply, from_plan = ask(agent, peer, form)
    assert not from_plan and in_octets(reply) == Counter32(0)


class TestARepeatedPollCostsWhatMoved:
    def test_nothing_moved_costs_nothing_a_varbind(self):
        """The third whole-table GetBulk of an idle 48-port switch: no
        request decoded, no VarBind, Oid or Pdu built, no successor
        sought; and nothing grows with the table: each interface's
        counters are one ``attrgetter`` call (C), compared with the tuple
        last served, and no reader is called.  The parent paid one reader
        call a varbind (``_LiveCounter.read``)."""
        (small, _few), (big, _many) = (repeated_bulk_poll(ports) for ports in (16, 48))
        names = {name for _file, name in big}
        for name in ("decode", "decode_varbinds", "successors", "get_next_run", "get_next",
                     "_answer", "_handle_get_bulk", "read"):
            assert name not in names, name
        built = [key for key in big if key[0].endswith(("pdu.py", "oid.py", "message.py"))
                 and key[1] in ("__init__", "__new__", "__post_init__")]
        assert not built, built
        assert big == small, big - small

    def test_a_counter_that_moved_and_came_back_is_served_as_it_was(self):
        """Between two serves of one plan a counter moves and returns to
        its old raw value, another moves by exactly 2**32, and a GET of
        the same rows is answered in between: every reply is the parent's
        bytes, and the plan reads no reader for a reading that stands."""
        net, sw, agent, peer = rig()
        warm(agent, peer, "bulk")
        counters = sw.interfaces[2].counters
        counters.in_octets += 1500
        ask(agent, peer, "get")  # the live counter reads the moved value
        counters.in_octets -= 1500
        sw.interfaces[3].counters.out_octets += 2**32
        reply, from_plan = ask(agent, peer, "bulk")
        assert from_plan and in_octets(reply) == Counter32(300_000)
        payload = Message(VERSION_2C, "public", request("bulk")).encode()
        calls = call_counts(lambda: agent._on_datagram(payload, len(payload), peer, 4000))
        assert calls["read"] == 0, calls
