"""The benchmark's own tests: exact counters, and the run contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Workloads are shrunk here so the suite stays quick; the properties
checked do not depend on run length.
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import pstats
import shutil
import subprocess
import sys

import pytest

import repro
from repro.faults import FaultConfig

import ledger
import run
import workloads

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def small(name: str, scratch: pathlib.Path) -> workloads.Workload:
    """``name`` with a fraction of its per-repetition work."""
    workload = workloads.make(name, scratch)
    if isinstance(workload, workloads.ClosedRun):
        workload.measured, workload.warmup = 120, 20
    elif isinstance(workload, workloads.SweepPureDC):
        workload.measured, workload.warmup = 15, 5
    else:
        workload.transactions, workload.checkpoint_every = 300, 150
    return workload


def counters(workload: workloads.Workload, seed: int,
             profiler: cProfile.Profile | None = None) -> dict:
    rep = workload.rep(seed, workloads.Timer(profiler), serial=True)
    assert rep.problems == []
    assert rep.totals is not None and rep.totals["commits"] > 0
    return rep.totals


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counters_repeat_exactly_and_tracing_does_not_perturb(name,
                                                              tmp_path):
    workload = small(name, tmp_path)
    first = counters(workload, 11)
    assert counters(workload, 11) == first
    profiler = cProfile.Profile()
    assert counters(workload, 11, profiler) == first
    assert counters(workload, 12) != first
    if name != "faulted-paxos":
        # Fault-free workloads never reach the fault plane or replicas.
        layers = ledger.layer_self_seconds(pstats.Stats(profiler))
        assert layers["faults"] == 0
        assert first["drops"] == 0 and first["replica_updates"] == 0


def test_inactive_planes_do_no_extra_kernel_work(tmp_path):
    def ledger_of(workload: workloads.ClosedRun) -> dict:
        workload.measured, workload.warmup = 150, 20
        metrics = ledger.counter_metrics(counters(workload, 5))
        return {key: metrics[key] for key in (
            "kernel.events_per_commit", "resources.claims_per_commit",
            "network.messages_per_commit")}

    plain = ledger_of(workloads.closed_rcdc())
    inactive_faults = workloads.closed_rcdc()
    inactive_faults.faults = FaultConfig()
    assert ledger_of(inactive_faults) == plain
    assert ledger_of(workloads.closed_rcdc(
        network_topology=repro.NetworkTopology.parse("uniform"))) == plain
    assert ledger_of(workloads.closed_rcdc(
        replication=repro.ReplicationSpec(1))) == plain


def test_modules_map_to_layers():
    assert ledger.layer_of("/x/src/repro/sim/engine.py") == "kernel"
    assert ledger.layer_of("/x/src/repro/sim/resources.py") == "resources"
    assert ledger.layer_of("/x/src/repro/core/two_phase.py") == "protocol"
    assert ledger.layer_of("/x/src/repro/obs/bus.py") == "obs"
    assert ledger.layer_of("/x/src/repro/config.py") == "experiments"
    assert ledger.layer_of("~") == "runtime"
    assert ledger.layer_of("/usr/lib/python3.11/heapq.py") == "runtime"


def run_bench(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-rcdc",
         "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_the_result_line_last():
    done = run_bench(ROOT, "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    manifest = json.loads(lines[-2])["manifest"]
    assert manifest["seed"] == 3 and manifest["failed_ratio"] == 0.0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"txn_per_ref_s", "setup_s",
                                      "peak_rss_mb"}
    assert all(metric["value"] > 0
               for metric in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
