"""Tests for the repro command-line interface."""

import pytest

from repro.cli import main

GOOD_SPEC = """
network topology demo {
    host L  { snmp community "public"; }
    host S1 { snmp community "public"; }
    host N1 { snmp community "public"; interface el0 { speed 10 Mbps; } }
    switch sw { snmp community "public"; ports 6; }
    hub hb { ports 4; }
    connect L.eth0 <-> sw.port1;
    connect S1.eth0 <-> sw.port2;
    connect sw.port3 <-> hb.port1;
    connect N1.el0 <-> hb.port2;
}
"""

BAD_SPEC = """
network topology broken {
    host A { }
    connect A.eth0 <-> ghost.port1;
}
"""


@pytest.fixture
def good_spec(tmp_path):
    path = tmp_path / "demo.net"
    path.write_text(GOOD_SPEC)
    return str(path)


@pytest.fixture
def bad_spec(tmp_path):
    path = tmp_path / "broken.net"
    path.write_text(BAD_SPEC)
    return str(path)


class TestValidate:
    def test_good_spec_exits_zero(self, good_spec, capsys):
        assert main(["validate", good_spec]) == 0
        out = capsys.readouterr().out
        assert "ok: 5 nodes, 4 connections" in out

    def test_bad_spec_exits_one(self, bad_spec, capsys):
        assert main(["validate", bad_spec]) == 1
        captured = capsys.readouterr()
        assert "unknown node 'ghost'" in captured.out
        assert "error(s)" in captured.err

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "junk.net"
        path.write_text("this is not a spec")
        assert main(["validate", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/path.net"]) == 1


class TestShow:
    def test_prints_normalised_spec(self, good_spec, capsys):
        assert main(["show", good_spec]) == 0
        out = capsys.readouterr().out
        assert "network topology demo {" in out
        assert "# hosts: L, S1, N1" in out
        assert "# snmp-enabled:" in out

    def test_bad_spec_fails(self, bad_spec):
        assert main(["show", bad_spec]) == 1


class TestMonitor:
    def test_end_to_end_monitoring(self, good_spec, capsys):
        code = main([
            "monitor", good_spec, "--host", "L",
            "--watch", "S1:N1",
            "--load", "L:N1:200:5:20",
            "--until", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S1<->N1:" in out
        assert "used max" in out
        assert "timeouts" in out

    def test_chart_flag(self, good_spec, capsys):
        code = main([
            "monitor", good_spec, "--host", "L",
            "--watch", "S1:N1", "--until", "12", "--chart",
        ])
        assert code == 0
        assert "measured used bandwidth" in capsys.readouterr().out

    def test_watch_required(self, good_spec, capsys):
        assert main(["monitor", good_spec, "--host", "L"]) == 2

    def test_malformed_watch(self, good_spec, capsys):
        code = main(["monitor", good_spec, "--host", "L", "--watch", "S1"])
        assert code == 2

    def test_malformed_load(self, good_spec, capsys):
        code = main([
            "monitor", good_spec, "--host", "L",
            "--watch", "S1:N1", "--load", "L:N1:200",
        ])
        assert code == 2

    def test_unknown_host(self, good_spec, capsys):
        code = main(["monitor", good_spec, "--host", "nope", "--watch", "S1:N1"])
        assert code == 2


class TestDiscover:
    def test_discovery_runs_clean(self, good_spec, capsys):
        assert main(["discover", good_spec, "--host", "L"]) == 0
        out = capsys.readouterr().out
        assert "sw port 1: L" in out
        assert "mismatch" not in out

    def test_bad_spec_fails(self, bad_spec):
        assert main(["discover", bad_spec, "--host", "L"]) == 1


REDUNDANT_SPEC = """
network topology redundant {
    host A { snmp community "public"; }
    host B { snmp community "public"; }
    switch sw1 { snmp community "public"; ports 4; stp "on"; }
    switch sw2 { snmp community "public"; ports 4; stp "on"; }
    connect A.eth0 <-> sw1.port1;
    connect B.eth0 <-> sw2.port1;
    connect sw1.port3 <-> sw2.port3;
    connect sw1.port4 <-> sw2.port4;
}
"""


@pytest.fixture
def redundant_spec(tmp_path):
    path = tmp_path / "redundant.net"
    path.write_text(REDUNDANT_SPEC)
    return str(path)


class TestTopology:
    def test_stp_view_and_active_paths(self, redundant_spec, capsys):
        assert main(["topology", redundant_spec, "--host", "A"]) == 0
        out = capsys.readouterr().out
        assert "root bridge" in out
        assert "blocked connections: sw1.port" in out
        assert "A <-> B [redundant]:" in out
        assert "1 topology change(s), 0 path reroute(s)" in out

    def test_fail_uplink_shows_failover(self, redundant_spec, capsys):
        code = main([
            "topology", redundant_spec, "--host", "A",
            "--until", "16", "--fail-uplink", "sw1:sw2:8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "failing active uplink" in out
        assert "1 path reroute(s)" in out
        assert "==>" in out  # the reroute's old ==> new connection series

    def test_fail_uplink_bad_format(self, redundant_spec, capsys):
        code = main([
            "topology", redundant_spec, "--host", "A", "--fail-uplink", "sw1",
        ])
        assert code == 2
        assert "--fail-uplink wants" in capsys.readouterr().err

    def test_fail_uplink_unknown_switch(self, redundant_spec, capsys):
        code = main([
            "topology", redundant_spec, "--host", "A",
            "--fail-uplink", "sw1:ghost",
        ])
        assert code == 1

    def test_loop_free_spec_has_no_stp(self, good_spec, capsys):
        assert main(["topology", good_spec, "--host", "L", "--until", "8"]) == 0
        out = capsys.readouterr().out
        assert "(no STP-enabled switches)" in out
        assert "single-path" in out


class TestMatrix:
    def test_matrix_renders(self, good_spec, capsys):
        code = main([
            "matrix", good_spec, "--host", "L",
            "--load", "L:N1:400:5:25", "--until", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "path available (KB/s)" in out
        assert "tightest pair" in out
        assert "N1" in out

    def test_matrix_utilization_metric(self, good_spec, capsys):
        code = main([
            "matrix", good_spec, "--host", "L", "--until", "10",
            "--metric", "utilization",
        ])
        assert code == 0
        assert "%" in capsys.readouterr().out

    def test_matrix_bad_host(self, good_spec, capsys):
        assert main(["matrix", good_spec, "--host", "zzz"]) == 2


class TestHistory:
    def test_default_testbed_prints_held_reports(self, capsys):
        assert main(["history", "--until", "30"]) == 0
        out = capsys.readouterr().out
        assert "history after 30.0 simulated seconds (horizon 600 s)" in out
        # Reports at 2.5, 4.5, ..., 28.5: 14 held, none trimmed.
        assert "       S1<->N1       14        0     2.50    28.50" in out
        assert "       (total)       14        0" in out

    def test_range_query_prints_reports(self, capsys):
        code = main([
            "history", "--until", "20", "--load", "L:N1:200:5:15",
            "--range", "S1:N1", "--start", "5", "--end", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "used_bps" in out and "available_bps" in out
        rows = out.split("S1<->N1:\n")[1].splitlines()[1:]
        assert [row.split()[0] for row in rows] == [
            "6.50", "8.50", "10.50", "12.50", "14.50",
        ]
        assert all(row.split()[-1] == "fresh" for row in rows)

    def test_windowed_aggregate_query(self, capsys):
        code = main([
            "history", "--until", "30", "--load", "L:N1:200:10:20",
            "--range", "S1:N1", "--window", "10", "--agg", "max",
            "--field", "used_bps",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "max(used_bps)" in out
        rows = [row.split() for row in out.split("max(used_bps)\n")[1].splitlines()]
        assert [row[0] for row in rows] == ["0.0", "10.0", "20.0"]
        peaks = [float(row[1]) for row in rows]
        assert peaks[1] > 200_000 > peaks[0]

    @pytest.mark.parametrize("agg", ["min", "max", "mean", "last"])
    def test_aggregates_match_numpy(self, agg):
        import numpy as np

        from repro.cli import _window_aggregate

        times = np.array([0.5, 1.0, 4.0, 9.5, 10.0, 10.5, 31.0])
        values = np.array([3.0, 1.0, 2.0, 7.0, 5.0, 6.0, 4.0])
        starts, out = _window_aggregate(times, values, 10.0, agg)
        assert starts.tolist() == [0.0, 10.0, 30.0]
        groups = [values[:4], values[4:6], values[6:]]
        want = {"min": np.min, "max": np.max, "mean": np.mean,
                "last": lambda g: g[-1]}[agg]
        assert out.tolist() == [want(g) for g in groups]

    def test_retention_trims_history(self, capsys):
        code = main(["history", "--until", "30", "--retention", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(horizon 10 s)" in out
        # Held: 18.5 .. 28.5 (six reports); trimmed: 2.5 .. 16.5 (eight).
        assert "       S1<->N1        6        8    18.50    28.50" in out

    def test_a_path_with_no_report_yet(self, capsys):
        assert main(["history", "--until", "1", "--range", "S1:N1"]) == 0
        out = capsys.readouterr().out
        assert "       S1<->N1        0        0        -        -" in out

    def test_unknown_range_series_fails(self, capsys):
        code = main(["history", "--until", "10", "--range", "S2:N9"])
        assert code == 2
        assert "no watched path 'S2:N9'" in capsys.readouterr().err

    def test_unknown_field_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["history", "--until", "10", "--range", "S1:N1", "--field", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_spec_file_requires_host_and_watch(self, good_spec, capsys):
        assert main(["history", good_spec]) == 2
        assert main(["history", good_spec, "--host", "L"]) == 2

    def test_spec_file_end_to_end(self, good_spec, capsys):
        code = main([
            "history", good_spec, "--host", "L", "--watch", "S1:N1",
            "--until", "20",
        ])
        assert code == 0
        assert "S1<->N1" in capsys.readouterr().out

    def test_negative_retention_rejected(self, capsys):
        assert main(["history", "--until", "10", "--retention", "-5"]) == 2
        assert "history_retention_s" in capsys.readouterr().err


class TestDistributed:
    def test_testbed_defaults_run_clean(self, capsys):
        assert main(["distributed", "--until", "15"]) == 0
        out = capsys.readouterr().out
        assert "coordinator L" in out
        assert "L [alive], S1 [alive], S2 [alive]" in out
        assert "per_worker_requests.S2" in out

    def test_crash_injection_shows_failover(self, capsys):
        code = main([
            "distributed", "--until", "40",
            "--load", "L:N1:200:5:35",
            "--crash", "S2:10:25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alive -> suspect" in out
        assert "suspect -> dead" in out
        assert "recovering -> alive" in out

    def test_spec_file_requires_coordinator_and_workers(self, good_spec, capsys):
        assert main(["distributed", good_spec, "--watch", "S1:N1"]) == 2

    def test_spec_file_plane(self, good_spec, capsys):
        code = main([
            "distributed", good_spec,
            "--coordinator", "L", "--worker", "L", "--worker", "S1",
            "--watch", "S1:N1", "--until", "15",
        ])
        assert code == 0
        assert "S1<->N1" in capsys.readouterr().out

    def test_unknown_crash_worker_rejected(self, capsys):
        assert main(["distributed", "--crash", "nope:5"]) == 2

    def test_malformed_crash_rejected(self, capsys):
        assert main(["distributed", "--crash", "S2"]) == 2


class TestExperiment:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_fig5_runs(self, capsys):
        assert main(["experiment", "fig5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "hub sum" in out


class TestStream:
    def test_default_testbed_runs_clean(self, capsys):
        code = main(["stream", "--until", "30", "--load", "L:N1:500:5:25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stream after 30.0 simulated seconds" in out
        assert "[policy drop_oldest, bound 256]" in out
        assert "stream counters:" in out
        assert "subscribers: 1" in out
        assert "filter_resets: 0" in out
        assert "subscription 'cli':" in out

    def test_threshold_query_fires(self, capsys):
        code = main([
            "stream", "--until", "20",
            "--pair", "S1:N1",
            "--load", "L:N1:300:2:18",
            "--threshold", "S1:N1:2000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "query threshold0:S1<->N1 FIRED" in out
        assert "queries: 1" in out

    def test_percentile_query_registered(self, capsys):
        code = main([
            "stream", "--until", "20",
            "--pair", "S1:N1",
            "--load", "L:N1:600:2:18",
            "--percentile", "S1:N1:0.9:0.01",
        ])
        assert code == 0
        assert "queries: 1" in capsys.readouterr().out

    def test_conflate_policy_bounds_pending(self, capsys):
        code = main([
            "stream", "--until", "30",
            "--load", "L:N1:500:5:25",
            "--policy", "conflate", "--bound", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[policy conflate, bound 4]" in out
        # At most `bound` pending events survive however long the run.
        pending = int(out.split("simulated seconds: ")[1].split(" pending")[0])
        assert pending <= 4

    def test_no_significance_suppresses_nothing(self, capsys):
        code = main([
            "stream", "--until", "20", "--no-significance",
            "--load", "L:N1:400:2:18",
        ])
        assert code == 0
        assert "suppressed: 0" in capsys.readouterr().out

    def test_spec_file_requires_host(self, good_spec, capsys):
        assert main(["stream", good_spec]) == 2

    def test_spec_file_end_to_end(self, good_spec, capsys):
        code = main([
            "stream", good_spec, "--host", "L",
            "--pair", "S1:N1", "--until", "15",
            "--load", "L:N1:300:2:12",
        ])
        assert code == 0
        assert "N1<->S1" in capsys.readouterr().out  # pair keys sort

    def test_malformed_threshold_rejected(self, capsys):
        assert main(["stream", "--threshold", "S1:N1"]) == 2

    def test_malformed_percentile_rejected(self, capsys):
        assert main(["stream", "--percentile", "S1:N1:0.9"]) == 2

    def test_bad_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--policy", "teleport"])

    def test_negative_events_rejected(self, capsys):
        assert main(["stream", "--until", "6", "--events", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --events must be >= 0" in captured.err
        assert "more" not in captured.out


class TestProbe:
    def test_default_testbed_runs_clean(self, capsys):
        code = main(["probe", "--until", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "probe plane after 30.0 simulated seconds" in out
        assert "latest trains:" in out
        assert "S1<->N1: probe achievable" in out
        assert "active and passive planes agree" in out
        assert "trains_started" in out

    def test_rtt_flag_runs_echo_sessions(self, capsys):
        code = main(["probe", "--rtt", "--until", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rtt sessions:" in out
        assert "rtt min/mean/max" in out
        assert "loss 0%" in out

    def test_budget_flag_stretches_round_interval(self, capsys):
        code = main(["probe", "--until", "20", "--budget", "0.01"])
        assert code == 0
        assert "round interval 1.92s" in capsys.readouterr().out

    def test_spec_file_requires_host(self, good_spec, capsys):
        assert main(["probe", good_spec]) == 2

    def test_spec_file_requires_watch(self, good_spec, capsys):
        assert main(["probe", good_spec, "--host", "L"]) == 2

    def test_spec_file_end_to_end(self, good_spec, capsys):
        code = main([
            "probe", good_spec, "--host", "L",
            "--watch", "S1:N1", "--until", "20",
            "--load", "L:N1:300:2:15",
        ])
        assert code == 0
        assert "S1<->N1: probe achievable" in capsys.readouterr().out

    def test_unknown_watch_host_rejected(self, capsys):
        assert main(["probe", "--watch", "S1:ghost"]) == 2

    def test_bad_budget_rejected(self, capsys):
        assert main(["probe", "--budget", "0.9"]) == 2


# ----------------------------------------------------------------------
# The prologue every spec-taking subcommand shares: load the spec, pick
# the monitor host, require and resolve the watches, start the loads.
# One row per (subcommand, malformed invocation) -> the exit code it has
# always returned.  ``--host`` may be rejected by argparse or by the
# command itself; both are a usage error, exit code 2.
# ----------------------------------------------------------------------
def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_MONITORING = ("monitor", "telemetry", "history", "integrity", "distributed", "stream", "probe")
_SPEC_ONLY = ("discover", "topology", "matrix")


def _host_args(command, host="L"):
    if command == "distributed":
        return ["--coordinator", host, "--worker", "L"]
    return ["--host", host]


def _watch_flag(command):
    return "--pair" if command == "stream" else "--watch"


class TestSharedPrologue:
    @pytest.mark.parametrize("command", _MONITORING + _SPEC_ONLY)
    def test_missing_spec_file_exits_one(self, command, capsys):
        argv = [command, "/nonexistent/path.net"] + _host_args(command)
        assert _exit_code(argv) == 1
        assert "No such file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _MONITORING + _SPEC_ONLY)
    def test_unparseable_spec_exits_one(self, command, tmp_path, capsys):
        path = tmp_path / "junk.net"
        path.write_text("this is not a spec")
        assert _exit_code([command, str(path)] + _host_args(command)) == 1
        assert "expected keyword 'network'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _MONITORING + _SPEC_ONLY)
    def test_spec_without_host_exits_two(self, command, good_spec, capsys):
        assert _exit_code([command, good_spec]) == 2

    @pytest.mark.parametrize(
        "command", [c for c in _MONITORING if c != "stream"]  # stream: every pair
    )
    def test_spec_without_watch_exits_two(self, command, good_spec, capsys):
        assert _exit_code([command, good_spec] + _host_args(command)) == 2
        assert "--watch SRC:DST" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, code",
        [(c, 2) for c in _MONITORING]
        + [("discover", 2), ("topology", 2), ("matrix", 2)],
    )
    def test_unknown_monitor_host(self, command, code, good_spec, capsys):
        argv = [command, good_spec] + _host_args(command, "zzz")
        if command in _MONITORING:
            argv += [_watch_flag(command), "S1:N1"]
        assert _exit_code(argv) == code
        assert "no host named 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [c for c in _MONITORING if c != "stream"]  # pairs filter, unresolved
    )
    def test_unknown_watch_endpoint_exits_two(self, command, good_spec, capsys):
        argv = [command, good_spec] + _host_args(command) + ["--watch", "S1:ghost"]
        assert _exit_code(argv) == 2
        assert "no node named 'ghost'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _MONITORING)
    def test_malformed_watch_exits_two(self, command, good_spec, capsys):
        argv = [command, good_spec] + _host_args(command) + [_watch_flag(command), "S1"]
        assert _exit_code(argv) == 2
        assert "wants SRC:DST" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, code", [(c, 2) for c in _MONITORING] + [("matrix", 2)]
    )
    @pytest.mark.parametrize(
        "load, message",
        [
            ("L:N1:200", "--load wants SRC:DST:KBPS:T0:T1"),
            ("L:ghost:200:1:2", "'ghost' is not an addressable endpoint"),
        ],
    )
    def test_bad_load(self, command, code, load, message, good_spec, capsys):
        argv = [command, good_spec] + _host_args(command) + ["--load", load]
        if command in _MONITORING:
            argv += [_watch_flag(command), "S1:N1"]
        assert _exit_code(argv) == code
        assert message in capsys.readouterr().err


class TestValuesTheRunCannotUse:
    """Arguments argparse accepts but the run cannot use are a usage
    error -- one ``error:`` line and exit code 2 -- never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["topology", "SPEC", "--host", "L", "--fail-uplink", "switch:hub:xyz"], "'xyz'"),
            (["history", "--range", "S1:N1", "--window", "0", "--until", "6"],
             "window must be positive"),
            (["distributed", "--hierarchy", "1", "--pod-switches", "0"],
             "need at least one switch"),
            (["probe", "--count", "1", "--until", "6"], "at least two probes"),
            (["probe", "--payload", "4", "--until", "6"], "payload_size must be >= 16"),
        ],
    )
    def test_exits_two(self, argv, message, good_spec, capsys):
        argv = [good_spec if arg == "SPEC" else arg for arg in argv]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestAPathWithNoReportYet:
    """The first report lands at 2.5 s: a run that ends before it prints
    the watched path with no reports instead of failing on it."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["monitor", "--until", "1"], "S1<->N1: 0 reports\n"),
            (["distributed", "--until", "1"], "  S1<->N1: 0 reports\n"),
            (["distributed", "--until", "1", "--hierarchy", "2"],
             "  p0h0_0<->p1h1_3: 0 reports\n"),
        ],
    )
    def test_prints_zero_reports(self, argv, line, capsys):
        assert main(argv) == 0
        assert line in capsys.readouterr().out


class TestUntil:
    """``--until`` is a finite number of simulated seconds, zero or more;
    anything else is a usage error that argparse reports, never a
    traceback from a simulator asked to run backwards."""

    @pytest.mark.parametrize("until", ["-5", "nan", "inf"])
    @pytest.mark.parametrize("command", _MONITORING + _SPEC_ONLY)
    def test_rejected_as_usage(self, command, until, good_spec, capsys):
        argv = [command]
        if command in _SPEC_ONLY:
            argv += [good_spec, "--host", "L"]
        assert _exit_code(argv + [f"--until={until}"]) == 2
        assert "argument --until: wants a finite number of seconds" in (
            capsys.readouterr().err
        )

    def test_zero_is_a_run(self, capsys):
        assert main(["monitor", "--until", "0"]) == 0
        assert "S1<->N1: 0 reports" in capsys.readouterr().out


class TestDistributedHierarchy:
    def test_two_pod_tree_runs_clean(self, capsys):
        assert main(["distributed", "--hierarchy", "2", "--until", "12"]) == 0
        out = capsys.readouterr().out
        assert "coordinator monroot; workers: mon0 [alive], mon1 [alive]" in out
        # The pool is what the one watch reads: p0sw1 and core are not polled.
        assert "mon0: p0sw0\n" in out
        assert "mon1: p1sw0, p1sw1" in out
        assert "shard economics:" in out
        assert "mon0: 6 SNMP exchanges, uplink keyframes/batches 1/5" in out
        assert "p0h0_0<->p1h1_3: 5 reports (4 trusted)" in out
        assert "samples_received                 25" in out
        assert "decode_errors                    0" in out
