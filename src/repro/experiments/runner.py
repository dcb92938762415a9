"""Parallel execution of experiment grids.

Every point of a paper figure -- one (protocol, MPL, replication)
triple -- is an independent simulation with its own
:class:`~repro.sim.engine.Environment` and its own deterministic seed,
so the grid is embarrassingly parallel.  This module fans it out over
the *warm* shared process pool (:mod:`repro.experiments.pool`),
amortizing worker startup across every sweep of a CLI invocation, and
groups specs into per-worker **chunks** so one IPC round dispatches
many replications at once.

A spec may also carry a :class:`~repro.faults.FaultConfig` and named
*probes* (:data:`repro.experiments.grid.PROBES`) that read counters off
the system in the worker; it then comes back as ``(result, readings)``.

Determinism: parallelism changes *scheduling*, never *inputs*.  Each
:class:`PointSpec` carries the exact seed the serial path would have
used (``base_seed + rep * 7919``), the worker runs the same
``repro.simulate`` call, and results are reassembled in grid order --
so a parallel sweep is bit-identical to a serial one.

Wire format: by default workers ship the full
:class:`~repro.db.system.SimulationResult` back (it is a flat dataclass
of scalars, and the golden byte-identity contract pins every field).
Callers that only consume the plotted scalars -- big grids, adaptive
replication -- pass ``lean=True`` and get :class:`PointSummary`
objects, which duck-type the metric attributes the experiment layer
reads and keep the return pipe minimal.

The pool is only worth its IPC overhead for real sweeps; ``jobs=1``
(the default everywhere) never touches the pool module and runs the
exact pre-existing in-process path.
"""

from __future__ import annotations

import dataclasses
import os
import traceback
import typing

from repro.config import ModelParams
from repro.db.system import SimulationResult
from repro.faults import FaultConfig
from repro.metrics import ProtocolOverheads

#: Multiplier spacing replication seeds (prime, matching the historical
#: serial behavior -- changing it would invalidate recorded results).
REPLICATION_SEED_STRIDE = 7919

#: Called with a short human-readable label as each point *completes*
#: (both serial and parallel paths -- completion-time semantics).
ProgressFn = typing.Callable[[str], None]

#: Chunks per worker the auto chunksize aims for: small enough to
#: amortize dispatch, large enough that stragglers rebalance.
_CHUNKS_PER_WORKER = 4


@dataclasses.dataclass(frozen=True)
class SweepCounts:
    """Queue state of a running sweep, for progress displays.

    ``running`` is an upper-bound estimate (the executor does not
    expose per-task start events): the number of not-yet-finished
    points that fit in the in-flight chunk windows.
    """

    queued: int
    running: int
    done: int
    total: int


#: Called with a :class:`SweepCounts` whenever ``done`` advances.
CountsFn = typing.Callable[[SweepCounts], None]


@dataclasses.dataclass(frozen=True)
class PointSpec:
    """Everything a worker process needs to run one simulation.

    Deliberately holds plain data only (``ModelParams`` is a dataclass of
    scalars and enums), so specs pickle cheaply and identically under
    both the ``fork`` and ``spawn`` start methods.
    """

    protocol: str
    mpl: int
    rep: int
    params: ModelParams
    measured_transactions: int
    warmup_transactions: int | None
    seed: int
    faults: FaultConfig | None = None
    probes: tuple[str, ...] = ()
    #: progress label; None = "<protocol> @ MPL <mpl>".
    tag: str | None = None

    @property
    def label(self) -> str:
        if self.tag is not None:
            return self.tag
        rep_suffix = f" rep {self.rep}" if self.rep else ""
        return f"{self.protocol} @ MPL {self.mpl}{rep_suffix}"


@dataclasses.dataclass(frozen=True)
class PointSummary:
    """The lean wire format: exactly the scalars the experiment layer
    (``METRICS``, tables, exports) consumes, nothing else.

    Duck-types the :class:`~repro.db.system.SimulationResult` attributes
    those consumers read, so a :class:`~repro.experiments.base.SweepPoint`
    can hold either interchangeably.
    """

    protocol: str
    mpl: int
    rep: int
    committed: int
    aborted: int
    elapsed_ms: float
    throughput: float
    response_time_ms: float
    block_ratio: float
    borrow_ratio: float
    abort_ratio: float
    response_ci_rel_half_width: float
    deadlocks: int
    shelf_entries: int
    overheads: ProtocolOverheads

    @classmethod
    def from_result(cls, spec: "PointSpec",
                    result: SimulationResult) -> "PointSummary":
        return cls(
            protocol=result.protocol, mpl=result.mpl, rep=spec.rep,
            committed=result.committed, aborted=result.aborted,
            elapsed_ms=result.elapsed_ms, throughput=result.throughput,
            response_time_ms=result.response_time_ms,
            block_ratio=result.block_ratio,
            borrow_ratio=result.borrow_ratio,
            abort_ratio=result.abort_ratio,
            response_ci_rel_half_width=result.response_ci_rel_half_width,
            deadlocks=result.deadlocks,
            shelf_entries=result.shelf_entries,
            overheads=result.overheads)


class SweepWorkerError(RuntimeError):
    """A spec raised inside a pool worker.

    The message carries the worker-side traceback verbatim; when the
    original exception pickles, it is chained as ``__cause__``.  The
    pool itself stays healthy (the worker caught the exception and
    returned it as data), so later sweeps reuse it normally.
    """


@dataclasses.dataclass(frozen=True)
class _SpecFailure:
    """How a worker reports one failed spec without killing itself."""

    label: str
    exc_type: str
    message: str
    traceback_text: str
    exception: BaseException | None


def point_seed(base_seed: int, rep: int) -> int:
    """The seed the serial runner has always used for replication ``rep``."""
    return base_seed + rep * REPLICATION_SEED_STRIDE


def run_point_spec(spec: PointSpec) -> typing.Any:
    """Execute one spec (shared by the serial path and the workers);
    ``(result, readings)`` when the spec names probes."""
    import repro  # local import: keeps worker startup lazy
    from repro.experiments.grid import PROBES

    readers: list[typing.Callable[[], dict[str, typing.Any]]] = []
    result = repro.simulate(
        spec.protocol, params=spec.params,
        measured_transactions=spec.measured_transactions,
        warmup_transactions=spec.warmup_transactions,
        seed=spec.seed, faults=spec.faults,
        on_system=(lambda system: readers.extend(
            PROBES[name](system, spec) for name in spec.probes))
        if spec.probes else None)
    if not spec.probes:
        return result
    return result, {key: value for read in readers
                    for key, value in read().items()}


def run_chunk(chunk: typing.Sequence[PointSpec], lean: bool
              ) -> list[object]:
    """Worker entry point: run a whole chunk, one IPC round per chunk.

    Must stay module-level so it pickles by reference.  Exceptions are
    caught per spec and returned as :class:`_SpecFailure` data -- the
    worker survives, the pool stays warm, and the parent re-raises with
    the original traceback attached.
    """
    out: list[object] = []
    for spec in chunk:
        try:
            result = run_point_spec(spec)
            out.append(PointSummary.from_result(spec, result) if lean
                       else result)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            import pickle
            carried: BaseException | None = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - unpicklable exception
                carried = None
            out.append(_SpecFailure(
                label=spec.label, exc_type=type(exc).__name__,
                message=str(exc), traceback_text=traceback.format_exc(),
                exception=carried))
    return out


def default_chunksize(points: int, workers: int) -> int:
    """Auto chunk size: aim for ~4 chunks per worker.

    Large grids amortize dispatch over many reps per IPC round; small
    grids degrade to chunksize 1, which is just the old per-point
    submission.
    """
    if points <= 0 or workers <= 0:
        return 1
    return max(1, -(-points // (workers * _CHUNKS_PER_WORKER)))


def resolve_jobs(jobs: int | None, *, allow_all_cores: bool = True) -> int:
    """Normalize a ``--jobs`` value.

    ``None`` means "auto" (one worker per CPU core).  ``0`` also means
    all cores, but only where that was *intended*: the CLI documents it
    (``--jobs 0``), so it resolves there (``allow_all_cores=True``, the
    default); library entry points pass ``allow_all_cores=False`` and
    reject 0 rather than silently fanning out to every core.  Negative
    values are always rejected.
    """
    if jobs is None:
        return os.cpu_count() or 1
    if jobs == 0:
        if allow_all_cores:
            return os.cpu_count() or 1
        raise ValueError(
            "jobs=0 ('all cores') is a CLI convenience; library callers "
            "must pass an explicit worker count (or None for auto)")
    if jobs < 0:
        raise ValueError(f"jobs must be >= 1 (or 0 for all cores), got {jobs}")
    return jobs


class ParallelSweepRunner:
    """Runs a list of :class:`PointSpec` over the warm shared pool.

    Results come back in *spec order* regardless of completion order, so
    callers can zip them against their grid.  Progress callbacks fire
    from the parent process as points complete -- completion-time
    semantics on **both** the serial and parallel paths -- and the
    optional ``counts`` callback reports queued/running/done totals for
    chunked mode.
    """

    def __init__(self, jobs: int | None = None,
                 progress: ProgressFn | None = None,
                 chunksize: int | None = None,
                 counts: CountsFn | None = None) -> None:
        self.jobs = resolve_jobs(jobs, allow_all_cores=False)
        self.progress = progress
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.chunksize = chunksize
        self.counts = counts

    def run(self, specs: typing.Sequence[PointSpec], *,
            lean: bool = False) -> list[SimulationResult | PointSummary]:
        if self.jobs == 1 or len(specs) <= 1:
            return self._run_serial(specs, lean)
        return self._run_parallel(specs, lean)

    # ------------------------------------------------------------------
    def _emit(self, spec: PointSpec, done: int, total: int,
              running: int) -> None:
        """Completion-time progress + counts for one finished point."""
        if self.progress is not None:
            self.progress(spec.label)
        if self.counts is not None:
            running = min(running, total - done)
            self.counts(SweepCounts(queued=total - done - running,
                                    running=running, done=done,
                                    total=total))

    def _run_serial(self, specs: typing.Sequence[PointSpec], lean: bool
                    ) -> list[SimulationResult | PointSummary]:
        results: list[SimulationResult | PointSummary] = []
        total = len(specs)
        for index, spec in enumerate(specs):
            result = run_point_spec(spec)
            results.append(PointSummary.from_result(spec, result) if lean
                           else result)
            self._emit(spec, index + 1, total, running=1)
        return results

    def _run_parallel(self, specs: typing.Sequence[PointSpec], lean: bool
                      ) -> list[SimulationResult | PointSummary]:
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments.pool import get_pool, shutdown_pool

        total = len(specs)
        workers = min(self.jobs, total)
        chunksize = (self.chunksize if self.chunksize is not None
                     else default_chunksize(total, workers))
        pool = get_pool(workers)
        results: list[SimulationResult | PointSummary | None] = \
            [None] * total
        chunks = [(start, specs[start:start + chunksize])
                  for start in range(0, total, chunksize)]
        futures = {pool.submit(run_chunk, chunk, lean): (start, chunk)
                   for start, chunk in chunks}
        done = 0
        window = workers * chunksize
        try:
            for future in concurrent.futures.as_completed(futures):
                start, chunk = futures[future]
                try:
                    chunk_results = future.result()
                except BrokenProcessPool:
                    # A worker died uncleanly (hard crash, not a Python
                    # exception); the executor is unusable -- drop it so
                    # the next sweep builds a fresh one.
                    shutdown_pool()
                    raise
                for offset, (spec, item) in enumerate(
                        zip(chunk, chunk_results)):
                    if isinstance(item, _SpecFailure):
                        raise SweepWorkerError(
                            f"sweep point '{item.label}' raised "
                            f"{item.exc_type}: {item.message}\n"
                            f"--- worker traceback ---\n"
                            f"{item.traceback_text}") from item.exception
                    results[start + offset] = item
                    done += 1
                    self._emit(spec, done, total, running=window)
        finally:
            # On failure, stop dispatching work nobody will read; chunks
            # already running finish harmlessly in the (healthy) pool.
            if done < total:
                for future in futures:
                    future.cancel()
        return typing.cast(
            "list[SimulationResult | PointSummary]", results)
