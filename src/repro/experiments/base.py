"""Shared experiment machinery: MPL sweeps, replications, series.

The paper's figures plot a metric (throughput, block ratio, borrow
ratio) against the per-site multiprogramming level, one curve per
protocol.  :class:`MplSweep` runs that grid; :class:`ExperimentResults`
holds it and renders the series as text tables.

Replications: the paper uses one long run per point with batch-means
confidence intervals; we support both one long run (default) and
multiple independent replications (``replications > 1``) whose means are
combined with a Student-t interval (:func:`repro.sim.stats.confidence_interval`).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ModelParams
from repro.db.system import SimulationResult
from repro.experiments.runner import (
    ParallelSweepRunner,
    PointSpec,
    point_seed,
)
from repro.sim.stats import StoppingRule, confidence_interval

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem

#: Replication cap in adaptive (``target_ci``) mode when the caller
#: left ``replications`` at its fixed-mode default of 1.
DEFAULT_ADAPTIVE_CAP = 8

#: Builds the parameters for one sweep point.
ParamsFactory = typing.Callable[[int], ModelParams]

#: Extracts a plotted metric from a result.
MetricFn = typing.Callable[[SimulationResult], float]

METRICS: dict[str, MetricFn] = {
    "throughput": lambda r: r.throughput,
    "response_time": lambda r: r.response_time_ms,
    "block_ratio": lambda r: r.block_ratio,
    "borrow_ratio": lambda r: r.borrow_ratio,
    "abort_ratio": lambda r: r.abort_ratio,
}

DEFAULT_MPLS: tuple[int, ...] = (1, 2, 3, 4, 6, 8, 10)


@dataclasses.dataclass
class SweepPoint:
    """One (protocol, mpl) grid point: its replications' results, in
    rep order."""

    protocol: str
    mpl: int
    results: list[SimulationResult]

    @property
    def result(self) -> SimulationResult:
        """The first (or only) replication's result."""
        return self.results[0]

    def metric(self, name: str) -> float:
        """Mean of a metric across replications."""
        fn = METRICS[name]
        values = [fn(r) for r in self.results]
        return sum(values) / len(values)

    def metric_interval(self, name: str,
                        confidence: float = 0.90) -> tuple[float, float]:
        """(mean, half-width) across replications."""
        fn = METRICS[name]
        return confidence_interval([fn(r) for r in self.results],
                                   confidence)


@dataclasses.dataclass
class ExperimentResults:
    """All points of one experiment, with rendering helpers."""

    experiment_id: str
    title: str
    points: dict[tuple[str, int], SweepPoint]
    protocols: tuple[str, ...]
    mpls: tuple[int, ...]
    #: simulated work actually executed: the sum of configured measured
    #: transactions over every replication run (adaptive mode stops
    #: early, so this is how much work ``target_ci`` saved).
    total_measured_transactions: int = 0
    #: the CI target the sweep ran under (None = fixed replications).
    target_ci: float | None = None

    def point(self, protocol: str, mpl: int) -> SweepPoint:
        return self.points[(protocol, mpl)]

    def max_rel_half_width(self, metric: str = "throughput",
                           confidence: float = 0.90) -> float:
        """The loosest point's relative CI half-width (inf with < 2
        replications anywhere) -- the quantity ``target_ci`` bounds."""
        worst = 0.0
        for point in self.points.values():
            mean, half = point.metric_interval(metric, confidence)
            if half == 0.0:
                continue
            worst = max(worst,
                        abs(half / mean) if mean else float("inf"))
        return worst

    def series(self, protocol: str, metric: str = "throughput",
               ) -> list[tuple[int, float]]:
        """[(mpl, value), ...] for one curve of a figure."""
        return [(mpl, self.points[(protocol, mpl)].metric(metric))
                for mpl in self.mpls]

    def peak(self, protocol: str, metric: str = "throughput",
             ) -> tuple[int, float]:
        """(mpl, value) of the curve's maximum (peak throughput)."""
        return max(self.series(protocol, metric), key=lambda p: p[1])

    def table(self, metric: str = "throughput",
              precision: int = 2) -> str:
        """Text table: rows are MPLs, one column per protocol."""
        from repro.analysis.tables import render_series_table
        return render_series_table(self, metric, precision)

    def summary(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(self.table("throughput"))
        return "\n".join(lines)


class MplSweep:
    """Runs a protocol x MPL grid of simulations."""

    def __init__(self, protocols: typing.Sequence[str],
                 params_factory: ParamsFactory,
                 mpls: typing.Sequence[int] = DEFAULT_MPLS,
                 measured_transactions: int = 1500,
                 warmup_transactions: int | None = None,
                 replications: int = 1,
                 base_seed: int = 20250705) -> None:
        if replications < 1:
            raise ValueError("replications must be >= 1")
        if measured_transactions < 1:
            raise ValueError("measured_transactions must be >= 1")
        self.protocols = tuple(protocols)
        self.params_factory = params_factory
        self.mpls = tuple(mpls)
        self.measured_transactions = measured_transactions
        self.warmup_transactions = warmup_transactions
        self.replications = replications
        self.base_seed = base_seed

    def spec(self, protocol: str, mpl: int, rep: int) -> PointSpec:
        """Replication ``rep`` of grid point ``(protocol, mpl)``, seeded
        ``base_seed + rep * 7919``."""
        return PointSpec(protocol=protocol, mpl=mpl, rep=rep,
                         params=self.params_factory(mpl),
                         measured_transactions=self.measured_transactions,
                         warmup_transactions=self.warmup_transactions,
                         seed=point_seed(self.base_seed, rep))

    def point_specs(self) -> list[PointSpec]:
        """The whole grid as picklable specs, in (protocol, mpl, rep)
        order."""
        return [self.spec(protocol, mpl, rep) for protocol in self.protocols
                for mpl in self.mpls for rep in range(self.replications)]

    def run(self, experiment_id: str = "sweep",
            title: str = "",
            progress: typing.Callable[[str], None] | None = None,
            jobs: int = 1,
            events_out: str | None = None,
            target_ci: float | None = None,
            ) -> ExperimentResults:
        """Run the whole grid through :class:`ParallelSweepRunner`.

        ``jobs=1`` runs in-process; ``jobs>1`` fans the grid out over
        that many processes of the warm shared pool.  Results are
        identical either way -- each point's seed is fixed by
        ``(base_seed, rep)``, not by execution order -- and progress
        fires as each replication *completes* on both paths.

        ``target_ci`` switches to adaptive replication: each point runs
        waves of replications (seeds continue the
        ``base_seed + rep * 7919`` scheme) until the 90% CI relative
        half-width of its throughput drops to ``target_ci``, up to a cap
        of ``replications`` (or ``DEFAULT_ADAPTIVE_CAP`` when
        ``replications`` was left at 1).

        ``events_out`` streams every simulation event of every point to
        a JSONL file (one ``{"meta": ...}`` line per point, then its
        events); it requires the fixed-replication path at ``jobs=1``.
        """
        if events_out is not None and jobs != 1:
            raise ValueError("events_out requires jobs=1 (events are "
                             "interleaved per point, in grid order)")
        if events_out is not None and target_ci is not None:
            raise ValueError("events_out requires fixed replications "
                             "(target_ci changes how many reps run)")
        runner = ParallelSweepRunner(
            jobs=jobs,
            progress=(None if progress is None else
                      (lambda label: progress(f"{experiment_id}: {label}"))))
        keys = [(protocol, mpl) for protocol in self.protocols
                for mpl in self.mpls]
        if target_ci is None:
            specs = self.point_specs()
            if events_out is None:
                outputs = runner.run(specs)
            else:
                from repro.obs.export import JsonlExporter
                with JsonlExporter.open(events_out) as exporter:
                    def export(system: "DistributedSystem",
                               spec: PointSpec) -> None:
                        exporter.detach()
                        exporter.meta(experiment=experiment_id,
                                      protocol=spec.protocol, mpl=spec.mpl,
                                      rep=spec.rep, seed=spec.seed)
                        exporter.attach(system.bus)
                    outputs = runner.run(specs, on_system=export)
            results: dict[tuple[str, int], list[SimulationResult]] = {
                key: [] for key in keys}
            for spec, result in zip(specs, outputs):
                results[(spec.protocol, spec.mpl)].append(result)
        else:
            # cap >= 2 always: replications=1 bumps to the adaptive default.
            cap = (self.replications if self.replications > 1
                   else DEFAULT_ADAPTIVE_CAP)
            results = runner.run_adaptive(
                lambda key, rep: self.spec(*key, rep),
                {key: (StoppingRule(target_ci, min_replications=2,
                                    max_replications=cap),)
                 for key in keys},
                lambda result: (result.throughput,))
        return ExperimentResults(
            experiment_id, title,
            {key: SweepPoint(*key, results[key]) for key in keys},
            self.protocols, self.mpls,
            total_measured_transactions=self.measured_transactions * sum(
                map(len, results.values())),
            target_ci=target_ci)


@dataclasses.dataclass
class ExperimentDefinition:
    """Binds a paper artifact to a runnable sweep."""

    experiment_id: str
    title: str
    paper_artifacts: tuple[str, ...]
    protocols: tuple[str, ...]
    params_factory: ParamsFactory
    mpls: tuple[int, ...] = DEFAULT_MPLS
    #: metrics worth reporting for this experiment.
    metrics: tuple[str, ...] = ("throughput",)
    description: str = ""

    def sweep(self, measured_transactions: int = 1500,
              warmup_transactions: int | None = None,
              mpls: typing.Sequence[int] | None = None,
              replications: int = 1,
              base_seed: int = 20250705) -> MplSweep:
        return MplSweep(self.protocols, self.params_factory,
                        mpls=tuple(mpls) if mpls is not None else self.mpls,
                        measured_transactions=measured_transactions,
                        warmup_transactions=warmup_transactions,
                        replications=replications,
                        base_seed=base_seed)

    def run(self, measured_transactions: int = 1500,
            mpls: typing.Sequence[int] | None = None,
            replications: int = 1,
            progress: typing.Callable[[str], None] | None = None,
            jobs: int = 1,
            events_out: str | None = None,
            target_ci: float | None = None,
            ) -> ExperimentResults:
        sweep = self.sweep(measured_transactions=measured_transactions,
                           mpls=mpls, replications=replications)
        return sweep.run(self.experiment_id, self.title, progress=progress,
                         jobs=jobs, events_out=events_out,
                         target_ci=target_ci)
