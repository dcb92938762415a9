"""Tests for the top-level package API and repo-level consistency."""

import pathlib

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestBuildSystem:
    def test_defaults(self):
        system = repro.build_system("2PC")
        assert system.params.mpl == 8
        assert system.protocol.name == "2PC"

    def test_overrides_applied(self):
        system = repro.build_system("OPT", mpl=3, dist_degree=2)
        assert system.params.mpl == 3
        assert system.params.dist_degree == 2

    def test_cent_switches_topology(self):
        system = repro.build_system("CENT")
        assert system.params.topology is repro.Topology.CENTRALIZED
        assert len(system.sites) == 1

    def test_explicit_params_object(self):
        params = repro.ModelParams(mpl=2, num_sites=4, db_size=2000)
        system = repro.build_system("PC", params=params)
        assert system.params.mpl == 2
        # The original params object is not mutated by CENT handling.
        repro.build_system("CENT", params=params)
        assert params.topology is repro.Topology.DISTRIBUTED

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            repro.build_system("2PC", mpl=-1)

    def test_seed_overrides_params_seed(self):
        a = repro.build_system("2PC", seed=1)
        b = repro.build_system("2PC", seed=2)
        assert a.streams.seed != b.streams.seed


class TestSimulateFunction:
    def test_returns_result(self):
        result = repro.simulate("DPCC", mpl=1, num_sites=2, db_size=400,
                                dist_degree=2, cohort_size=2,
                                measured_transactions=40)
        assert result.protocol == "DPCC"
        assert result.committed >= 40

    def test_all_protocol_names_exposed(self):
        assert len(repro.PROTOCOL_NAMES) == 15
        for name in repro.PROTOCOL_NAMES:
            assert repro.create_protocol(name).name == name

    def test_version(self):
        assert repro.__version__


class TestRepoConsistency:
    """The docs must not drift from the code."""

    def test_design_doc_bench_targets_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for line in design.splitlines():
            if "benchmarks/bench_" in line:
                name = line.split("benchmarks/")[1].split("`")[0]
                assert (ROOT / "benchmarks" / name).exists(), (
                    f"DESIGN.md references missing {name}")

    def test_design_doc_lists_all_registered_experiments(self):
        from repro.experiments import experiment_ids
        design = (ROOT / "DESIGN.md").read_text()
        for core_id in ("E1", "E2", "E4", "E5", "E6", "E7"):
            assert core_id in design

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for line in readme.splitlines():
            if line.startswith("| `") and ".py" in line:
                name = line.split("`")[1]
                assert (ROOT / "examples" / name).exists(), (
                    f"README references missing example {name}")

    def test_every_benchmark_covers_a_paper_artifact(self):
        benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
        names = {b.stem for b in benches}
        # One per table and figure, plus prose experiments + extensions.
        required = {
            "bench_table3_overheads", "bench_table4_overheads",
            "bench_fig1_rcdc", "bench_fig2_dc", "bench_exp3_fast_network",
            "bench_fig3_distribution", "bench_fig4_nonblocking",
            "bench_fig5_surprise", "bench_exp7_sequential",
            "bench_exp8_ablations",
        }
        assert required <= names

    def test_public_modules_have_docstrings(self):
        import importlib
        for module_name in (
                "repro", "repro.config", "repro.metrics", "repro.cli",
                "repro.admission", "repro.experiments.grid",
                "repro.sim.engine", "repro.sim.events", "repro.sim.process",
                "repro.sim.resources", "repro.sim.rng", "repro.sim.stats",
                "repro.db.locks", "repro.db.deadlock", "repro.db.wal",
                "repro.db.site", "repro.db.network", "repro.db.system",
                "repro.db.transaction", "repro.db.workload", "repro.db.pages",
                "repro.core.base", "repro.core.two_phase",
                "repro.core.presumed_abort", "repro.core.presumed_commit",
                "repro.core.three_phase", "repro.core.optimistic",
                "repro.core.variants", "repro.core.centralized",
                "repro.core.unsolicited_vote", "repro.core.early_prepare",
                "repro.core.linear",
                "repro.experiments.base", "repro.experiments.overheads",
                "repro.analysis.tables", "repro.analysis.export"):
            module = importlib.import_module(module_name)
            assert module.__doc__, f"{module_name} lacks a docstring"
