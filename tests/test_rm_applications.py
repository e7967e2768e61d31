"""Tests for application specs and the closed adaptation loop."""

import pytest

from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import TESTBED_SPEC_TEXT
from repro.rm.applications import ApplicationRuntime
from repro.rm.detector import QosState
from repro.simnet.trafficgen import KBPS, StaircaseLoad, StepSchedule
from repro.spec.builder import build_network
from repro.spec.parser import ParseError, parse_spec
from repro.spec.validate import validate_spec
from repro.spec.writer import write_spec
from repro.topology.model import AppFlowSpec, ApplicationSpec, TopologyError

APP_SUFFIX = """
    application sensor  { on S1; sends to tracker rate 2400 Kbps; }
    application tracker { on N1; }
}
"""


def spec_with_apps():
    text = TESTBED_SPEC_TEXT.rstrip()[:-1] + APP_SUFFIX
    return parse_spec(text)


class TestApplicationSpec:
    def test_parse_application_blocks(self):
        spec = spec_with_apps()
        sensor = spec.application("sensor")
        assert sensor.host == "S1"
        assert sensor.flows[0].dst_app == "tracker"
        assert sensor.flows[0].rate_bps == 2400e3
        assert spec.application("tracker").flows == []

    def test_missing_placement_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("network topology t { host A { } application x { } }")

    def test_self_flow_rejected(self):
        with pytest.raises(TopologyError):
            ApplicationSpec("x", "A", flows=[AppFlowSpec("x", 1.0)])

    def test_duplicate_flow_rejected(self):
        with pytest.raises(TopologyError):
            ApplicationSpec(
                "x", "A", flows=[AppFlowSpec("y", 1.0), AppFlowSpec("y", 2.0)]
            )

    def test_validation_catches_unknown_host(self):
        text = """
        network topology t {
            host A { }
            application x { on ghost; }
        }
        """
        issues = validate_spec(parse_spec(text), strict=False)
        assert any("unknown host 'ghost'" in i.message for i in issues)

    def test_validation_catches_unknown_peer(self):
        text = """
        network topology t {
            host A { }
            application x { on A; sends to phantom rate 1 Kbps; }
        }
        """
        issues = validate_spec(parse_spec(text), strict=False)
        assert any("unknown application 'phantom'" in i.message for i in issues)

    def test_validation_rejects_device_placement(self):
        text = """
        network topology t {
            host A { } switch sw { ports 2; }
            application x { on sw; }
        }
        """
        issues = validate_spec(parse_spec(text), strict=False)
        assert any("not a host" in i.message for i in issues)

    def test_writer_round_trips_applications(self):
        spec = spec_with_apps()
        again = parse_spec(write_spec(spec))
        assert again.application("sensor").flows[0].rate_bps == 2400e3
        assert again.application("tracker").host == "N1"


def runtime(auto_move=False, headroom=1.3):
    spec = spec_with_apps()
    build = build_network(spec)
    monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
    rt = ApplicationRuntime(build, monitor, auto_move=auto_move, headroom=headroom)
    return build, monitor, rt


class TestRuntimeDeployment:
    def test_flows_deployed_as_traffic(self):
        build, monitor, rt = runtime()
        monitor.start()
        rt.start()
        net = build.network
        net.run(20.0)
        # 2400 Kb/s = 300 KB/s must be arriving at N1's discard sink.
        received = net.host("N1").discard.octets
        assert received == pytest.approx(300_000 * 20, rel=0.1)

    def test_flow_watched_under_its_label(self):
        build, monitor, rt = runtime()
        rt.start()
        assert "sensor->tracker" in monitor.watched_paths()
        assert rt.state_of("sensor->tracker") is QosState.UNKNOWN  # nothing judged yet

    def test_requirement_derived_from_rate(self):
        build, monitor, rt = runtime(headroom=1.5)
        rt.start()
        flow = rt._flows["sensor->tracker"]
        assert flow.requirement.min_available_bps == pytest.approx(
            2400e3 / 8 * 1.5
        )

    def test_healthy_flow_stays_ok(self):
        build, monitor, rt = runtime()
        monitor.start()
        rt.start()
        build.network.run(30.0)
        assert rt.state_of("sensor->tracker") is QosState.OK
        assert rt.moves == []

    def test_double_start_rejected(self):
        build, monitor, rt = runtime()
        rt.start()
        with pytest.raises(TopologyError):
            rt.start()

    def test_spec_without_applications_rejected(self):
        spec = parse_spec(TESTBED_SPEC_TEXT)
        build = build_network(spec)
        monitor = NetworkMonitor(build, "L")
        with pytest.raises(TopologyError):
            ApplicationRuntime(build, monitor)

    def test_bad_headroom_rejected(self):
        spec = spec_with_apps()
        build = build_network(spec)
        monitor = NetworkMonitor(build, "L")
        with pytest.raises(TopologyError):
            ApplicationRuntime(build, monitor, headroom=0.5)


class TestManualMove:
    def test_move_rebinds_traffic_and_watch(self):
        build, monitor, rt = runtime()
        monitor.start()
        rt.start()
        net = build.network
        net.run(10.0)
        before_s2 = net.host("S2").discard.octets
        rt.move("tracker", "S2", reason="test")
        net.run(30.0)
        assert net.host("S2").discard.octets - before_s2 > 100_000
        assert rt.placement_of("tracker") == "S2"
        assert "sensor->tracker" in monitor.watched_paths()
        assert len(rt.moves) == 1

    def test_move_to_same_host_is_noop(self):
        build, monitor, rt = runtime()
        rt.start()
        rt.move("tracker", "N1")
        assert rt.moves == []

    def test_move_unknown_app_rejected(self):
        build, monitor, rt = runtime()
        with pytest.raises(TopologyError):
            rt.move("ghost", "S2")

    def test_move_to_device_rejected(self):
        build, monitor, rt = runtime()
        with pytest.raises(TopologyError):
            rt.move("tracker", "switch")


class TestAdaptationLoop:
    def test_violation_triggers_automatic_move_and_recovery(self):
        build, monitor, rt = runtime(auto_move=True)
        net = build.network
        # Interference saturates the hub where tracker lives.
        StaircaseLoad(
            net.host("L"), net.ip_of("N2"), StepSchedule.pulse(20.0, 80.0, 800 * KBPS)
        ).start()
        monitor.start()
        rt.start()
        net.run(100.0)
        assert len(rt.moves) == 1
        move = rt.moves[0]
        assert move.app == "tracker"
        assert move.from_host == "N1"
        # Moved to a switch host, never onto another occupied placement.
        assert move.to_host not in ("N1", "N2", "S1")
        assert rt.state_of("sensor->tracker") is QosState.OK
        # Recovered within a few poll intervals of the violation.
        violated_at = next(e.time for e in rt.events if e.state is QosState.VIOLATED)
        recovered_at = next(
            e.time for e in rt.events if e.state is QosState.OK and e.time > violated_at
        )
        assert recovered_at - violated_at <= 6.0
        # The flow kept running at its declared rate on the new host.
        new_home = build.network.host(move.to_host)
        assert new_home.discard.octets > 1_000_000

    def test_no_move_without_auto_move(self):
        build, monitor, rt = runtime(auto_move=False)
        net = build.network
        StaircaseLoad(
            net.host("L"), net.ip_of("N2"), StepSchedule.pulse(20.0, 60.0, 800 * KBPS)
        ).start()
        monitor.start()
        rt.start()
        net.run(70.0)
        assert rt.moves == []
        assert any(e.state is QosState.VIOLATED for e in rt.events)
        assert rt.diagnoses, "diagnosis should still run"

    def test_move_cooldown_limits_thrash(self):
        build, monitor, rt = runtime(auto_move=True)
        rt.move_cooldown = 1000.0
        net = build.network
        StaircaseLoad(
            net.host("L"), net.ip_of("N2"), StepSchedule.pulse(10.0, 90.0, 800 * KBPS)
        ).start()
        monitor.start()
        rt.start()
        net.run(100.0)
        assert len(rt.moves) <= 1
