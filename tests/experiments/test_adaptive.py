"""Adaptive replication (``target_ci``): CI-driven early stopping.

The acceptance contract: with a target set, a multi-rep grid executes
measurably fewer total simulated transactions than fixed-rep mode while
every reported point's 90% CI relative half-width meets the target (or
its replication budget is exhausted, which the cap makes explicit).
"""

import pytest

from repro.config import ModelParams
from repro.experiments import MplSweep, get_experiment
from repro.experiments.base import DEFAULT_ADAPTIVE_CAP


def _sweep(replications=6, txns=20):
    return MplSweep(["2PC", "PC"], lambda mpl: ModelParams(mpl=mpl),
                    mpls=(1, 2), measured_transactions=txns,
                    warmup_transactions=2, replications=replications)


def test_adaptive_runs_fewer_transactions_than_fixed():
    fixed = _sweep().run("fixed")
    adaptive = _sweep().run("adaptive", target_ci=0.5)
    assert fixed.total_measured_transactions == 2 * 2 * 6 * 20
    assert (adaptive.total_measured_transactions
            < fixed.total_measured_transactions)
    assert adaptive.target_ci == 0.5
    # every reported point meets the target or exhausted its cap
    for point in adaptive.points.values():
        mean, half = point.metric_interval("throughput")
        assert (abs(half / mean) <= 0.5
                or len(point.results) == 6), point.protocol


def test_adaptive_points_are_the_fixed_sweeps_first_replications():
    adaptive = _sweep().run("adaptive", target_ci=0.5)
    fixed = _sweep().run("fixed")
    for key, point in adaptive.points.items():
        reps = len(point.results)
        assert 2 <= reps <= 6
        # replications keep the fixed sweep's seed scheme, in rep order
        assert point.results == fixed.points[key].results[:reps]


def test_adaptive_parallel_matches_serial():
    serial = _sweep().run("adaptive", jobs=1, target_ci=0.5)
    parallel = _sweep().run("adaptive", jobs=2, target_ci=0.5)
    assert (serial.total_measured_transactions
            == parallel.total_measured_transactions)
    for key, point in serial.points.items():
        assert point.results == parallel.points[key].results


def test_default_replications_bumps_to_adaptive_cap():
    """replications=1 means 'one long run' in fixed mode; as an
    adaptive cap it would forbid any CI, so it becomes the default."""
    results = _sweep(replications=1).run(
        "adaptive", target_ci=0.0001)  # unreachably tight
    for point in results.points.values():
        assert len(point.results) == DEFAULT_ADAPTIVE_CAP


def test_adaptive_rejects_events_out():
    with pytest.raises(ValueError, match="fixed replications"):
        _sweep().run("adaptive", target_ci=0.1, events_out="x.jsonl")


def test_tight_target_uses_more_reps_than_loose():
    loose = _sweep(replications=8).run("a", target_ci=0.8)
    tight = _sweep(replications=8).run("a", target_ci=0.05)
    assert (tight.total_measured_transactions
            > loose.total_measured_transactions)


def test_experiment_definition_target_ci_passthrough():
    definition = get_experiment("E7")
    results = definition.run(measured_transactions=15, mpls=(1,),
                             replications=4, target_ci=0.6)
    assert results.target_ci == 0.6
    assert results.total_measured_transactions <= \
        len(results.protocols) * 4 * 15
    assert results.max_rel_half_width() < float("inf")
