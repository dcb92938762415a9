"""The paper's experiment suite (Section 5) and the extension studies.

:mod:`repro.experiments.definitions` binds each paper figure to a
protocol x MPL :class:`MplSweep` (:mod:`repro.experiments.base`), and
:mod:`repro.experiments.overheads` measures Tables 3/4 as one-MPL
sweeps; the extension studies are presets of
:mod:`repro.experiments.grid`.  All of them run their simulations
through :class:`ParallelSweepRunner` (:mod:`repro.experiments.runner`),
in-process at ``jobs=1`` or on the warm shared pool.
``python -m repro.cli`` runs them from the command line; the
``benchmarks/`` directory wraps them for pytest-benchmark.
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
    "SweepPoint",
    "SweepWorkerError",
    "experiment_ids",
    "get_experiment",
    "point_seed",
    "resolve_jobs",
    "run_preset",
    "shutdown_pool",
]
