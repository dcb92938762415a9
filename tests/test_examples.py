"""Smoke tests: every example script must run and print sane output."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.two_phase import TwoPhaseCommit
from repro.db.system import DistributedSystem
from repro.faults import FaultConfig

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "protocol_comparison.py", "lending_trace.py",
            "surprise_aborts_robustness.py", "custom_protocol.py",
            "blocking_failure_demo.py"} <= names


def test_quickstart(capfd):
    out = run_example("quickstart.py", "150")
    assert "2PC" in out and "OPT" in out
    assert "forced writes" in out


def test_lending_trace():
    out = run_example("lending_trace.py")
    assert "Scenario 1" in out
    assert "PUT ON THE SHELF" in out
    assert "chain length 1" in out
    assert "aborted borrowers: ['borrower1', 'borrower2']" in out


def test_protocol_comparison():
    out = run_example("protocol_comparison.py", "--transactions", "40",
                      "--mpls", "1")
    assert "[throughput]" in out
    assert "CENT" in out and "OPT-3PC" in out


def test_surprise_aborts_robustness():
    out = run_example("surprise_aborts_robustness.py",
                      "--transactions", "60", "--mpl", "2")
    assert "OPT gain" in out
    assert "lender aborts" in out


def test_custom_protocol():
    out = run_example("custom_protocol.py", "80")
    assert "LL-2PC" in out
    assert "OPT-LL" in out
    assert "commit_msgs/txn=6" in out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_custom_protocol_survives_faults(seed):
    """The example is the template for a new protocol, so it must hold
    up under an active fault plane: its decision wait goes through
    ``await_decision``, which times out into recovery.  (A bare inbox
    get left prepared cohorts blocked for good after a crash, and
    LL-2PC committed between a fifth and two fifths as much as 2PC.)"""
    spec = importlib.util.spec_from_file_location(
        "custom_protocol", EXAMPLES / "custom_protocol.py")
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)

    def committed(protocol):
        system = DistributedSystem(
            repro.ModelParams(mpl=2), protocol, seed=seed,
            faults=FaultConfig(mttf_ms=60_000.0, mttr_ms=2_000.0))
        system.start()
        system.env.run(until=120_000.0)
        return system.metrics.committed

    assert committed(example.LongLocks2PC()) \
        >= committed(TwoPhaseCommit()) / 2


def test_blocking_failure_demo():
    out = run_example("blocking_failure_demo.py", "--outage-ms", "3000",
                      "--transactions", "120")
    assert "2PC" in out and "3PC" in out
    assert "blocked for" in out
