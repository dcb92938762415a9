"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_experiments(self):
        code, text = run_cli("list")
        assert code == 0
        for experiment_id in ("E1", "E2", "E5-DC", "E6-RCDC-15", "E7"):
            assert experiment_id in text


class TestSimulate:
    def test_basic_run(self):
        code, text = run_cli("simulate", "2PC", "--mpl", "1",
                             "--transactions", "60")
        assert code == 0
        assert "2PC" in text
        assert "overheads per committing txn" in text
        assert "exec_msgs=4.00" in text

    def test_pure_dc_flag(self):
        code, text = run_cli("simulate", "OPT", "--mpl", "2",
                             "--transactions", "60", "--pure-dc")
        assert code == 0
        assert "OPT" in text

    def test_surprise_aborts_reported(self):
        code, text = run_cli("simulate", "2PC", "--mpl", "1",
                             "--transactions", "150",
                             "--surprise-abort-prob", "0.1")
        assert code == 0
        assert "surprise_vote" in text

    def test_unknown_protocol_is_a_cli_error(self):
        code, text = run_cli("simulate", "9PC", "--transactions", "10")
        assert code == 2
        assert text.startswith("error: unknown protocol")
        assert "2PC" in text  # the message lists the valid names


class TestMasterStallPlan:
    def test_master_stall_needs_no_topology(self):
        code, text = run_cli("simulate", "2PC", "--mpl", "4",
                             "--transactions", "120",
                             "--fault-plan", "master_stall:40:for=3000")
        assert code == 0
        (line,) = [line for line in text.splitlines()
                   if line.startswith("region faults:")]
        blocked_ms = float(line.split("ms blocked lock time")[0]
                           .rsplit(" ", 1)[1])
        assert blocked_ms > 0

    @pytest.mark.parametrize("bad", [
        "master_stall:abc:for=1", "master_stall:40", "master_stall:40:for=0",
        "master_stall:40:at=1:for=1", "master_stall:40:mttf=1:mttr=1",
    ])
    def test_malformed_master_stall_is_a_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "2PC", "--fault-plan", bad])
        assert exit_info.value.code == 2
        assert "bad fault plan spec" in capsys.readouterr().err

    def test_dc_crash_still_needs_a_topology(self):
        code, text = run_cli("simulate", "2PC", "--transactions", "10",
                             "--fault-plan", "dc_crash:0:at=1:for=1")
        assert code == 2
        assert text.startswith("error: a region fault plan needs a "
                               "multi-datacenter topology")

    def test_help_names_the_master_stall_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "master_stall:<txn>:for=<ms>" in help_text


class TestFaultFlags:
    """The fault flags are sugar that spells directives of the one fault
    plan, ahead of ``--fault-plan``'s."""

    FLAGS = ("--faults", "--mttf-ms", "25000", "--mttr-ms", "2000",
             "--msg-loss", "0.02", "--msg-delay-ms", "3")
    PLAN = "site_crash:*:mttf=25000:mttr=2000,loss:0.02,delay:3"

    def test_flags_run_the_plan_they_spell(self):
        common = ("simulate", "3PC", "--mpl", "3", "--transactions", "60",
                  "--seed", "1")
        flags_code, by_flags = run_cli(*common, *self.FLAGS)
        plan_code, by_plan = run_cli(*common, "--fault-plan", self.PLAN)
        assert flags_code == plan_code == 0
        assert by_flags == by_plan
        # One fault summary, however the faults were written.
        assert "\nfaults: " in by_flags and "\nregion faults: " in by_flags

    @pytest.mark.parametrize("argv, first_line", [
        (["--fault-plan", "site_crash:8:at=1:for=1"],
         "error: fault plan references site 8 but the system only has 8 "
         "(directive: site_crash site8 at=1ms for=1ms)"),
        (["--faults", "--msg-loss", "0.1", "--fault-plan", "loss:0.2"],
         "error: a plan takes at most one loss directive (it draws from "
         "one stream)"),
        (["--faults", "--mttf-ms", "-5"], "error: mttf_ms must be >= 0"),
    ])
    def test_bad_faults_are_cli_errors(self, argv, first_line):
        code, text = run_cli("simulate", "2PC", "--transactions", "10",
                             *argv)
        assert code == 2
        assert text.splitlines()[0] == first_line


class TestRun:
    def test_run_experiment_small(self):
        code, text = run_cli("run", "E1", "--transactions", "40",
                             "--mpls", "1", "--quiet")
        assert code == 0
        assert "Experiment 1" in text
        assert "[throughput]" in text
        assert "[block_ratio]" in text
        assert "[borrow_ratio]" in text
        assert "peak value" in text

    def test_run_progress_output(self):
        code, text = run_cli("run", "E7", "--transactions", "30",
                             "--mpls", "1")
        assert code == 0
        assert "... E7" in text

    def test_bad_mpls_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--mpls", "abc"])

    def test_run_with_export(self, tmp_path):
        code, text = run_cli("run", "E7", "--transactions", "25",
                             "--mpls", "1", "--quiet",
                             "--export", str(tmp_path / "out"))
        assert code == 0
        assert "wrote" in text
        assert (tmp_path / "out" / "E7.throughput.tsv").exists()
        assert (tmp_path / "out" / "E7.long.csv").exists()

    def test_unknown_experiment(self):
        code, text = run_cli("run", "E99", "--transactions", "10")
        assert code == 2
        assert text.startswith("error: unknown experiment 'E99'")

    @pytest.mark.parametrize("argv,message", [
        (("run", "E7", "--replications", "0"), "replications must be >= 1"),
        (("run", "E7", "--transactions", "0"),
         "measured_transactions must be >= 1"),
        (("run", "E7", "--mpls", "0"), "mpl must be >= 1"),
        (("tables", "--transactions", "0"),
         "measured_transactions must be >= 1"),
    ], ids=["replications", "transactions", "mpls", "tables-transactions"])
    def test_bad_sweep_input_is_a_cli_error(self, argv, message):
        code, text = run_cli(*argv)
        assert code == 2
        assert text == f"error: {message}\n"  # before any point runs

    def test_progress_lines_match_across_jobs(self):
        """One progress line per replication, the same set serially and
        on the pool (only their order may differ)."""
        lines = {}
        for jobs in ("1", "2"):
            code, text = run_cli("run", "E7", "--mpls", "1",
                                 "--transactions", "20",
                                 "--replications", "2", "--jobs", jobs)
            assert code == 0
            lines[jobs] = sorted(line for line in text.splitlines()
                                 if line.startswith("  ... "))
        assert lines["1"] == lines["2"]
        assert len(lines["1"]) == 5 * 2  # E7's protocols x replications
        assert "  ... E7: 2PC @ MPL 1 rep 1" in lines["1"]

    def test_run_target_ci_prints_adaptive_summary(self):
        code, text = run_cli("run", "E7", "--transactions", "25",
                             "--mpls", "1", "--replications", "4",
                             "--target-ci", "0.5", "--quiet")
        assert code == 0
        assert "adaptive replication:" in text
        assert "measured transactions total" in text
        assert "[throughput]" in text

    def test_target_ci_must_be_a_fraction(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "E1", "--target-ci", "1.5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "E1", "--target-ci", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "E1", "--target-ci", "abc"])

    def test_target_ci_conflicts_with_events_out(self, tmp_path):
        code, text = run_cli("run", "E7", "--transactions", "20",
                             "--mpls", "1", "--target-ci", "0.5",
                             "--events-out", str(tmp_path / "ev.jsonl"))
        assert code == 2
        assert "fixed replications" in text

    def test_jobs_zero_means_all_cores_at_the_cli(self):
        code, text = run_cli("run", "E7", "--transactions", "20",
                             "--mpls", "1", "--jobs", "0", "--quiet")
        assert code == 0
        assert "[throughput]" in text


class TestTables:
    def test_tables_render_and_match(self):
        code, text = run_cli("tables", "--transactions", "30")
        assert code == 0
        assert "DistDegree = 3" in text
        assert "DistDegree = 6" in text
        assert "NO" not in text  # every row matches the analytic counts

    def test_tables_with_target_ci_still_match(self):
        code, text = run_cli("tables", "--transactions", "30",
                             "--target-ci", "0.5")
        assert code == 0
        assert "DistDegree = 3" in text
        assert "NO" not in text  # adaptive mode keeps the analytic match


class TestTopologyFlags:
    def test_simulate_with_topology_reports_dc_traffic(self):
        code, text = run_cli("simulate", "2PC", "--mpl", "1",
                             "--transactions", "60",
                             "--topology", "dcs:2x4:rtt_ms=40")
        assert code == 0
        assert "topology: 2 DCs x 4 sites" in text
        assert "cross-DC msgs=" in text
        assert "cross-DC round trips/commit=" in text

    def test_uniform_topology_prints_no_wan_noise(self):
        code, text = run_cli("simulate", "2PC", "--mpl", "1",
                             "--transactions", "60",
                             "--topology", "uniform")
        assert code == 0
        assert "topology: uniform" in text

    @pytest.mark.parametrize("bad", [
        "bogus", "dcs:2x2", "dcs:2x2:rtt_ms=-1", "matrix:0,20;20",
    ])
    def test_malformed_topology_rejected_at_the_parser(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "2PC", "--topology", bad])

    def test_topology_parse_error_lists_accepted_forms(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "2PC", "--topology", "bogus"])
        err = capsys.readouterr().err
        assert "uniform" in err
        assert "dcs:" in err
        assert "matrix:" in err

    def test_site_count_mismatch_is_a_cli_error(self):
        # dcs:2x2 places 4 sites; the model defaults to 8.
        code, text = run_cli("simulate", "2PC", "--transactions", "10",
                             "--topology", "dcs:2x2:rtt_ms=40")
        assert code == 2
        assert text.startswith("error:")
        assert "num_sites=8" in text

    def test_local_cohorts_without_topology_is_a_cli_error(self):
        code, text = run_cli("simulate", "2PC", "--transactions", "10",
                             "--local-cohorts")
        assert code == 2
        assert text.startswith("error:")
        assert "prefer_local_cohorts" in text

    def test_saturation_accepts_topology(self):
        code, text = run_cli("saturation", "--protocols", "2PC",
                             "--rates", "4", "--transactions", "40",
                             "--topology", "dcs:2x4:rtt_ms=5", "--quiet")
        assert code == 0
        assert "saturation" in text

    def test_saturation_topology_mismatch_is_a_cli_error(self):
        code, text = run_cli("saturation", "--protocols", "2PC",
                             "--rates", "4", "--transactions", "40",
                             "--topology", "dcs:3x2:rtt_ms=5", "--quiet")
        assert code == 2
        assert text.startswith("error:")


class TestWan:
    def test_wan_smoke(self):
        code, text = run_cli("wan", "--protocols", "2PC,PC",
                             "--rtts", "0,40", "--placements", "spread",
                             "--transactions", "40", "--quiet")
        assert code == 0
        assert "wan: commit latency" in text
        assert "placement: spread" in text
        assert "fastest commit" in text

    def test_wan_progress_lines(self):
        code, text = run_cli("wan", "--protocols", "2PC",
                             "--rtts", "0", "--placements", "local",
                             "--transactions", "30")
        assert code == 0
        assert "wan: 2PC @ rtt=0ms (local)" in text

    def test_wan_bad_rtts_is_a_cli_error(self):
        code, text = run_cli("wan", "--rtts", "abc",
                             "--transactions", "10")
        assert code == 2
        assert text.startswith("error:")

    def test_wan_bad_placement_is_a_cli_error(self):
        code, text = run_cli("wan", "--placements", "nearby",
                             "--transactions", "10")
        assert code == 2
        assert text.startswith("error:")

    def test_wan_uneven_dcs_is_a_cli_error(self):
        code, text = run_cli("wan", "--dcs", "3", "--transactions", "10")
        assert code == 2
        assert text.startswith("error:")

    def test_wan_zero_dcs_is_a_cli_error(self):
        code, text = run_cli("wan", "--dcs", "0", "--transactions", "10")
        assert code == 2
        assert text.startswith("error: dcs topology needs num_dcs >= 1")


class TestSweepCommands:
    """The five extension sweeps share one handler; each keeps its
    flags, defaults and error lines."""

    @pytest.mark.parametrize("argv, first_line", [
        (["wan", "--dcs", "-1"], "error: dcs topology needs num_dcs >= 1 "
         "and sites_per_dc >= 1, got -1x-8"),
        (["wan", "--placements", "nearby"],
         "error: unknown placement 'nearby'; expected 'spread' or 'local'"),
        (["wan", "--rtts", "abc"],
         "error: --rtts wants comma-separated numbers, got 'abc'"),
        (["region-outage", "--outages", "asteroid"],
         "error: unknown outage 'asteroid'; expected one of dc_crash, "
         "partition"),
        (["region-outage", "--durations", "0"],
         "error: outage durations must be positive, got 0.0"),
        (["region-outage", "--topology", "dcs:1x4:rtt_ms=5"],
         "error: region-outage needs at least 2 datacenters"),
        (["replication", "--factors", "9"],
         "error: replication factor 9 exceeds the 4 available sites"),
        (["replication", "--outage-ms", "0"],
         "error: outage duration must be positive, got 0.0"),
        (["availability", "--mttfs=-5"], "error: mttf_ms must be >= 0"),
        (["saturation", "--mpl", "0"], "error: mpl must be >= 1"),
        (["availability", "--msg-loss", "1.5"],
         "error: bad fault plan spec 'loss:1.5': loss needs a probability "
         "in (0, 1), got 1.5"),
    ])
    def test_bad_settings_are_cli_errors(self, argv, first_line):
        code, text = run_cli(*argv, "--transactions", "10")
        assert code == 2
        assert text.splitlines()[0] == first_line

    @pytest.mark.parametrize("command, surface", [
        ("availability", {
            "--protocols": "2PC,PA,PC,3PC,OPT",
            "--mttfs": "0,400000,200000,100000", "--mttr-ms": 5000.0,
            "--msg-loss": 0.0, "--mpl": 2, "--transactions": 300,
            "--seed": 20250705, "--jobs": 1, "--quiet": False,
            "--topology": None, "--local-cohorts": False,
            "--replication": None}),
        ("saturation", {
            "--protocols": "2PC,PA,PC,3PC,OPT", "--rates": None,
            "--mpl": 8, "--skew": None, "--queue-limit": 64,
            "--transactions": 300, "--seed": 20250705, "--quiet": False,
            "--topology": None, "--local-cohorts": False,
            "--replication": None}),
        ("wan", {
            "--protocols": "2PC,PA,PC,3PC,OPT", "--rtts": "0,10,40,100",
            "--dcs": 2, "--placements": "spread,local", "--mpl": 2,
            "--transactions": 300, "--seed": 20250705, "--quiet": False}),
        ("region-outage", {
            "--protocols": "2PC,PA,PC,3PC,OPT",
            "--outages": "dc_crash,partition", "--durations": "2000,4000",
            "--topology": None, "--at-ms": 1000.0, "--mpl": 2,
            "--transactions": 40, "--seed": 7, "--quiet": False}),
        ("replication", {
            "--protocols": "2PC,3PC,PAXOS", "--factors": (1, 2, 3),
            "--mttfs": "0,60000", "--mttr-ms": 2000.0, "--topology": None,
            "--at-ms": 1000.0, "--outage-ms": 1500.0, "--mpl": 2,
            "--transactions": 40, "--seed": 7, "--quiet": False}),
    ])
    def test_flags_and_defaults(self, command, surface):
        import argparse
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        actions = subparsers.choices[command]._actions
        assert {action.option_strings[0]: action.default
                for action in actions
                if action.option_strings
                and "--help" not in action.option_strings} == surface


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_python_dash_m_repro_entry_point():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "repro", "list"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "E1" in proc.stdout
