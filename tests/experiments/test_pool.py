"""The warm shared pool layer: reuse, chunking, crash containment.

The contract of :mod:`repro.experiments.pool` +
:class:`~repro.experiments.runner.ParallelSweepRunner`:

- one pool per process, reused across consecutive sweeps (warm);
- chunked dispatch is byte-identical to serial execution (the golden
  fixture pins the absolute values);
- a spec that raises inside a worker surfaces the *original* exception
  and traceback in the parent, and the pool stays usable afterwards;
- ``jobs=0`` is a CLI-only convenience and is rejected by the library.
"""

import dataclasses
import json
import pathlib

import pytest

import repro
from repro.config import ModelParams
from repro.experiments import (
    MplSweep,
    ParallelSweepRunner,
    PointSpec,
    SweepWorkerError,
    shutdown_pool,
)
from repro.experiments import pool as pool_mod
from repro.experiments.runner import (
    default_chunksize,
    resolve_jobs,
    run_point_spec,
)

FIXTURE = pathlib.Path(__file__).parent.parent / "data" / "golden_sweep.json"


def _spec(protocol="2PC", mpl=1, rep=0, txns=12, seed=7) -> PointSpec:
    return PointSpec(protocol=protocol, mpl=mpl, rep=rep,
                     params=ModelParams(mpl=mpl),
                     measured_transactions=txns, warmup_transactions=2,
                     seed=seed)


def _result_bytes(result) -> bytes:
    return repr(dataclasses.asdict(result)).encode()


# ----------------------------------------------------------------------
# Warm pool lifecycle
# ----------------------------------------------------------------------
def test_pool_is_lazy_and_reused_across_sweeps():
    shutdown_pool()
    assert pool_mod.active_pool() is None
    runner = ParallelSweepRunner(jobs=2)
    runner.run([_spec(mpl=1), _spec(mpl=2)])
    first = pool_mod.active_pool()
    assert first is not None
    runner.run([_spec(mpl=1, seed=11), _spec(mpl=2, seed=11)])
    assert pool_mod.active_pool() is first, \
        "second sweep must reuse the warm pool, not respawn one"
    # A second runner (a different sweep/experiment) shares it too.
    ParallelSweepRunner(jobs=2).run([_spec(), _spec(mpl=2)])
    assert pool_mod.active_pool() is first


def test_pool_grows_but_never_shrinks():
    shutdown_pool()
    small = pool_mod.get_pool(1)
    assert pool_mod.pool_workers() == 1
    grown = pool_mod.get_pool(3)
    assert grown is not small
    assert pool_mod.pool_workers() == 3
    assert pool_mod.get_pool(2) is grown, \
        "a smaller request reuses the bigger pool"
    assert pool_mod.pool_workers() == 3


def test_shutdown_pool_is_idempotent_and_recreates_on_demand():
    pool_mod.get_pool(1)
    shutdown_pool()
    shutdown_pool()
    assert pool_mod.active_pool() is None
    assert pool_mod.pool_workers() == 0
    assert pool_mod.get_pool(1) is pool_mod.active_pool()
    shutdown_pool()


def test_get_pool_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        pool_mod.get_pool(0)


# ----------------------------------------------------------------------
# jobs=0 boundary: CLI-only convenience, rejected in the library
# ----------------------------------------------------------------------
def test_resolve_jobs_zero_boundary():
    assert resolve_jobs(0) >= 1  # CLI path: all cores
    with pytest.raises(ValueError, match="CLI convenience"):
        resolve_jobs(0, allow_all_cores=False)


def test_runner_rejects_jobs_zero():
    with pytest.raises(ValueError, match="explicit worker count"):
        ParallelSweepRunner(jobs=0)


def test_sweep_rejects_jobs_zero():
    sweep = MplSweep(["2PC"], lambda mpl: ModelParams(mpl=mpl),
                     mpls=(1, 2), measured_transactions=10)
    with pytest.raises(ValueError, match="explicit worker count"):
        sweep.run("boundary", jobs=0)


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
def test_default_chunksize_amortizes_large_grids():
    assert default_chunksize(8, 4) == 1      # small grid: plain dispatch
    assert default_chunksize(98, 4) == 7     # 7x7x2 grid, 4 workers
    assert default_chunksize(1000, 8) == 32
    assert default_chunksize(0, 4) == 1


def test_chunked_parallel_matches_serial_byte_identical():
    specs = [_spec(protocol=p, mpl=m, txns=15, seed=5)
             for p in ("2PC", "PA", "PC") for m in (1, 2, 3)]
    assert default_chunksize(len(specs), 2) == 2  # chunks, not points
    serial = ParallelSweepRunner(jobs=1).run(specs)
    chunked = ParallelSweepRunner(jobs=2).run(specs)
    for left, right in zip(serial, chunked):
        assert _result_bytes(left) == _result_bytes(right)


@pytest.mark.tier2
def test_chunked_parallel_matches_golden_fixture():
    """The chunked warm-pool path reproduces the recorded fixture
    values exactly -- same contract the serial path is held to."""
    grid = json.loads(FIXTURE.read_text())["tier1"]
    sweep = MplSweep(tuple(grid["protocols"]),
                     lambda mpl: ModelParams(mpl=mpl),
                     mpls=tuple(grid["mpls"]),
                     measured_transactions=grid["transactions"])
    results = sweep.run("golden-chunked", jobs=4)
    for (protocol, mpl), point in results.points.items():
        expected = grid["points"][f"{protocol}@{mpl}"]
        actual = json.loads(json.dumps(dataclasses.asdict(point.result)))
        assert actual == expected, f"{protocol}@{mpl} diverged"


# ----------------------------------------------------------------------
# Worker crash containment
# ----------------------------------------------------------------------
def test_poisoned_spec_surfaces_original_traceback_and_pool_survives():
    poisoned = _spec(protocol="NOT-A-PROTOCOL")
    good = [_spec(mpl=1), _spec(mpl=2)]
    runner = ParallelSweepRunner(jobs=2)
    with pytest.raises(SweepWorkerError) as excinfo:
        runner.run([good[0], poisoned, good[1]])
    message = str(excinfo.value)
    assert "unknown protocol" in message          # original message
    assert "worker traceback" in message          # remote traceback block
    assert "ValueError" in message
    assert isinstance(excinfo.value.__cause__, ValueError)
    # The worker caught the exception and returned it as data, so the
    # pool never broke -- the very next sweep reuses it.
    pool_before = pool_mod.active_pool()
    assert pool_before is not None
    results = runner.run(good)
    assert [r.mpl for r in results] == [1, 2]
    assert pool_mod.active_pool() is pool_before


def test_serial_path_raises_directly():
    with pytest.raises(ValueError, match="unknown protocol"):
        ParallelSweepRunner(jobs=1).run(
            [_spec(protocol="NOT-A-PROTOCOL"), _spec()])


# ----------------------------------------------------------------------
# Progress: completion-time semantics
# ----------------------------------------------------------------------
def test_progress_fires_after_completion_serial(monkeypatch):
    events = []
    real = run_point_spec
    monkeypatch.setattr("repro.experiments.runner.run_point_spec",
                        lambda spec, on_system: (
                            events.append(("run", spec.label)),
                            real(spec, on_system))[1])
    runner = ParallelSweepRunner(
        jobs=1, progress=lambda label: events.append(("progress", label)))
    runner.run([_spec(mpl=1), _spec(mpl=2)])
    assert events == [
        ("run", "2PC @ MPL 1"), ("progress", "2PC @ MPL 1"),
        ("run", "2PC @ MPL 2"), ("progress", "2PC @ MPL 2"),
    ]


# ----------------------------------------------------------------------
# System hook: in-process only
# ----------------------------------------------------------------------
def test_on_system_sees_each_system_and_spec_serially():
    seen = []
    specs = [_spec(mpl=1), _spec(mpl=2)]
    ParallelSweepRunner(jobs=1).run(
        specs, on_system=lambda system, spec: seen.append(
            (system.params.mpl, spec)))
    assert seen == [(1, specs[0]), (2, specs[1])]


def test_on_system_rejected_with_workers():
    with pytest.raises(ValueError, match="on_system requires jobs=1"):
        ParallelSweepRunner(jobs=2).run([_spec(mpl=1), _spec(mpl=2)],
                                        on_system=lambda system, spec: None)
