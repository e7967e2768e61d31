"""Unit tests for spec validation."""

import pytest

from repro.experiments.scale import scale_spec
from repro.spec.parser import parse_spec
from repro.spec.validate import SpecValidationError, validate_spec
from tests.costs import call_counts


def issues_of(text, strict=False):
    return validate_spec(parse_spec(text), strict=strict)


def messages(issues, severity=None):
    return [i.message for i in issues if severity is None or i.severity == severity]


VALID = """
network topology t {
    host A { snmp community "public"; }
    host B { snmp community "public"; }
    switch sw { snmp community "public"; ports 4; }
    connect A.eth0 <-> sw.port1;
    connect B.eth0 <-> sw.port2;
}
"""


class TestErrors:
    def test_valid_spec_clean(self):
        assert messages(issues_of(VALID), "error") == []

    def test_unknown_node_in_connection(self):
        text = """
        network topology t {
            host A { }
            connect A.eth0 <-> ghost.port1;
        }
        """
        errs = messages(issues_of(text), "error")
        assert any("unknown node 'ghost'" in m for m in errs)

    def test_unknown_interface_in_connection(self):
        text = """
        network topology t {
            host A { } host B { }
            connect A.eth9 <-> B.eth0;
        }
        """
        errs = messages(issues_of(text), "error")
        assert any("unknown interface 'eth9'" in m for m in errs)

    def test_one_to_one_rule(self):
        """The paper: "one interface may only be connected to one interface"."""
        text = """
        network topology t {
            host A { } host B { } host C { }
            connect A.eth0 <-> B.eth0;
            connect A.eth0 <-> C.eth0;
        }
        """
        errs = messages(issues_of(text), "error")
        assert any("1-to-1" in m for m in errs)

    def test_qos_path_unknown_endpoint(self):
        text = """
        network topology t {
            host A { }
            qospath p { from A to Z; min_available 1 Kbps; }
        }
        """
        errs = messages(issues_of(text), "error")
        assert any("unknown node 'Z'" in m for m in errs)

    def test_qos_path_device_endpoint(self):
        text = """
        network topology t {
            host A { } switch sw { ports 2; }
            qospath p { from A to sw; min_available 1 Kbps; }
        }
        """
        errs = messages(issues_of(text), "error")
        assert any("not a host" in m for m in errs)

    def test_strict_mode_raises(self):
        text = """
        network topology t {
            host A { }
            connect A.eth0 <-> ghost.p;
        }
        """
        with pytest.raises(SpecValidationError):
            issues_of(text, strict=True)

    def test_strict_mode_passes_clean_spec(self):
        issues_of(VALID, strict=True)

    def test_a_duplicated_node_resolves_to_its_first_declaration(self):
        """``A`` is a switch first and a host second: the QoS path from
        it is judged against the switch, as ``TopologySpec.node`` would."""
        text = """
        network topology t {
            switch A { ports 2; }
            host A { }
            host B { }
            qospath p { from A to B; min_available 1 Kbps; }
        }
        """
        assert messages(issues_of(text), "error") == [
            "node 'A' declared 2 times",
            "QoS path 'p' endpoint 'A' is a switch, not a host",
        ]


class TestCost:
    def test_validation_is_linear_in_the_spec(self):
        """No wall clock.  Every check looks nodes up in one name map
        built per call; a scan of the node list per connection end or
        path endpoint made a 600-switch chain cost 3.9x the Python calls
        of a 300-switch one."""
        costs = []
        for n in (300, 600):
            spec = scale_spec(switches=n, hosts_per_switch=1, arity=1)
            calls = call_counts(lambda: validate_spec(spec))
            assert not calls["node"] and not calls["has_node"], calls
            costs.append(sum(calls.values()))
        assert costs[1] <= 2.2 * costs[0], costs


class TestWarnings:
    def test_layer2_loop_warning(self):
        text = """
        network topology t {
            switch s1 { ports 4; } switch s2 { ports 4; }
            connect s1.port1 <-> s2.port1;
            connect s1.port2 <-> s2.port2;
        }
        """
        warns = messages(issues_of(text), "warning")
        assert any("loop" in m for m in warns)

    def test_disconnected_warning(self):
        text = """
        network topology t {
            host A { } host B { } host C { }
            connect A.eth0 <-> B.eth0;
        }
        """
        warns = messages(issues_of(text), "warning")
        assert any("no connections" in m for m in warns)
        assert any("not connected" in m for m in warns)

    def test_unobservable_connection_warning(self):
        """A segment with no SNMP on either end cannot be measured."""
        text = """
        network topology t {
            host A { } host B { }
            connect A.eth0 <-> B.eth0;
        }
        """
        warns = messages(issues_of(text), "warning")
        assert any("no SNMP-enabled endpoint" in m for m in warns)

    def test_switch_side_observability_suffices(self):
        """S4 has no agent, but the switch port covers it (the paper's case)."""
        text = """
        network topology t {
            host S4 { }
            switch sw { snmp community "public"; ports 2; }
            connect S4.eth0 <-> sw.port1;
        }
        """
        warns = messages(issues_of(text), "warning")
        assert not any("no SNMP-enabled endpoint" in m for m in warns)

    def test_testbed_spec_validates_clean(self):
        from repro.experiments.testbed import TESTBED_SPEC_TEXT

        issues = issues_of(TESTBED_SPEC_TEXT, strict=True)
        assert messages(issues, "error") == []
        # hub <-> switch segment is observable from the switch side; host
        # legs from the NT hosts; so no observability warnings either.
        assert not any("no SNMP-enabled endpoint" in m for m in messages(issues))
