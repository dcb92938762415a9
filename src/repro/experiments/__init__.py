"""The paper's experiment suite (Section 5), one module per experiment.

Each experiment module exposes an :data:`EXPERIMENT` definition mapping
a paper artifact (table or figure) to a parameter sweep; the shared
runner in :mod:`repro.experiments.base` executes sweeps and collects
series; the extension studies are presets of
:mod:`repro.experiments.grid`.  ``python -m repro.cli`` runs them from
the command line; the ``benchmarks/`` directory wraps them for
pytest-benchmark.
"""

from repro.experiments.base import (
    ExperimentDefinition,
    ExperimentResults,
    MplSweep,
    SweepPoint,
)
from repro.experiments.grid import PRESETS, GridResults, run_preset
from repro.experiments.pool import shutdown_pool
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    get_experiment,
)
from repro.experiments.runner import (
    ParallelSweepRunner,
    PointSpec,
    PointSummary,
    SweepCounts,
    SweepWorkerError,
    point_seed,
    resolve_jobs,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentDefinition",
    "ExperimentResults",
    "GridResults",
    "MplSweep",
    "PRESETS",
    "ParallelSweepRunner",
    "PointSpec",
    "PointSummary",
    "SweepCounts",
    "SweepPoint",
    "SweepWorkerError",
    "experiment_ids",
    "get_experiment",
    "point_seed",
    "resolve_jobs",
    "run_preset",
    "shutdown_pool",
]
