"""The one way :mod:`repro.experiments` runs simulations.

Every point of a paper figure or table -- one (protocol, MPL,
replication) triple -- and every point of an extension preset is an
independent simulation with its own
:class:`~repro.sim.engine.Environment` and its own deterministic seed,
so a grid is embarrassingly parallel.  :class:`ParallelSweepRunner`
runs a list of :class:`PointSpec`: ``jobs=1`` runs them in this
process, in order; ``jobs > 1`` fans them out over the *warm* shared
process pool (:mod:`repro.experiments.pool`), amortizing worker
startup across every sweep of a CLI invocation, and groups specs into
per-worker **chunks** so one IPC round dispatches many replications at
once.  :meth:`ParallelSweepRunner.run_adaptive` replicates points in
waves until their stopping rules settle (``--target-ci``).

A spec may also carry a :class:`~repro.faults.FaultConfig` and named
*probes* (:data:`repro.experiments.grid.PROBES`) that read counters off
the system in the worker; it then comes back as ``(result, readings)``.

Determinism: parallelism changes *scheduling*, never *inputs*.  Each
:class:`PointSpec` carries its seed (``base_seed + rep * 7919``), both
paths run it through :func:`run_point_spec`, and results come back in
spec order -- so a parallel sweep is bit-identical to a serial one.
Workers ship the full :class:`~repro.db.system.SimulationResult` back.
"""

from __future__ import annotations

import dataclasses
import os
import traceback
import typing

from repro.config import ModelParams
from repro.faults import FaultConfig
from repro.sim.stats import StoppingRule

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem

#: Multiplier spacing replication seeds (prime, matching the historical
#: serial behavior -- changing it would invalidate recorded results).
REPLICATION_SEED_STRIDE = 7919

#: Called with a short human-readable label as each point *completes*
#: (both serial and parallel paths -- completion-time semantics).
ProgressFn = typing.Callable[[str], None]

#: Chunks per worker the chunksize aims for: small enough to amortize
#: dispatch, large enough that stragglers rebalance.
_CHUNKS_PER_WORKER = 4

#: Called in this process with each built system and its spec, before
#: the system runs.
SystemHook = typing.Callable[["DistributedSystem", "PointSpec"], None]

Key = typing.TypeVar("Key", bound=typing.Hashable)


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


def run_point_spec(spec: PointSpec,
                   on_system: SystemHook | None = None) -> typing.Any:
    """Execute one spec (shared by the serial path and the workers);
    ``(result, readings)`` when the spec names probes.
    ``on_system(system, spec)`` sees the built system before it runs."""
    import repro  # local import: keeps worker startup lazy
    from repro.experiments.grid import PROBES

    readers: list[typing.Callable[[], dict[str, typing.Any]]] = []

    def attach(system: "DistributedSystem") -> None:
        if on_system is not None:
            on_system(system, spec)
        readers.extend(PROBES[name](system, spec) for name in spec.probes)

    result = repro.simulate(
        spec.protocol, params=spec.params,
        measured_transactions=spec.measured_transactions,
        warmup_transactions=spec.warmup_transactions,
        seed=spec.seed, faults=spec.faults, on_system=attach)
    if not spec.probes:
        return result
    return result, {key: value for read in readers
                    for key, value in read().items()}


def run_chunk(chunk: typing.Sequence[PointSpec]) -> list[object]:
    """Worker entry point: run a whole chunk, one IPC round per chunk.

    Must stay module-level so it pickles by reference.  Exceptions are
    caught per spec and returned as :class:`_SpecFailure` data -- the
    worker survives, the pool stays warm, and the parent re-raises with
    the original traceback attached.
    """
    out: list[object] = []
    for spec in chunk:
        try:
            out.append(run_point_spec(spec))
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
    """Chunk size: aim for ~4 chunks per worker.

    Large grids amortize dispatch over many reps per IPC round; small
    grids degrade to chunksize 1, one point per submission.
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
    """Runs a list of :class:`PointSpec`, in-process or over the warm
    shared pool.

    Results come back in *spec order* regardless of completion order, so
    callers can zip them against their grid.  Progress callbacks fire
    from the parent process as each point completes, on **both** the
    serial and parallel paths.
    """

    def __init__(self, jobs: int | None = None,
                 progress: ProgressFn | None = None) -> None:
        self.jobs = resolve_jobs(jobs, allow_all_cores=False)
        self.progress = progress

    def run(self, specs: typing.Sequence[PointSpec], *,
            on_system: SystemHook | None = None) -> list[typing.Any]:
        """Run ``specs``; each output is what :func:`run_point_spec`
        returns.  ``on_system(system, spec)`` is called with each built
        system before it runs -- the hook for observers on its event
        bus -- and so requires ``jobs=1``."""
        if on_system is not None and self.jobs > 1:
            raise ValueError("on_system requires jobs=1 (systems built "
                             "in pool workers never reach this process)")
        if self.jobs > 1 and len(specs) > 1:
            return self._run_parallel(specs)
        outputs = []
        for spec in specs:
            outputs.append(run_point_spec(spec, on_system))
            self._emit(spec)
        return outputs

    def run_adaptive(
            self, spec_for: typing.Callable[[Key, int], PointSpec],
            rules: typing.Mapping[Key, typing.Sequence[StoppingRule]],
            values: typing.Callable[[typing.Any], typing.Sequence[float]],
            ) -> dict[Key, list[typing.Any]]:
        """Replicate every key of ``rules`` until its stopping rules
        settle (CI-driven early stopping); each key's outputs come back
        in rep order.

        ``spec_for(key, rep)`` builds replication ``rep`` of ``key``, and
        the i-th value of ``values(output)`` feeds the key's i-th rule.
        Every wave runs, for each key, the most replications any of its
        rules asks for, all keys in one :meth:`run` call -- so a wave
        costs one dispatch round however many keys still converge.
        """
        outputs: dict[Key, list[typing.Any]] = {key: [] for key in rules}
        while True:
            wave = []
            for key, key_rules in rules.items():
                done = len(outputs[key])
                wanted = max(rule.next_wave() for rule in key_rules)
                wave += [(key, spec_for(key, rep))
                         for rep in range(done, done + wanted)]
            if not wave:
                return outputs
            for (key, _), output in zip(
                    wave, self.run([spec for _, spec in wave])):
                outputs[key].append(output)
                for rule, value in zip(rules[key], values(output)):
                    rule.observe(value)

    # ------------------------------------------------------------------
    def _emit(self, spec: PointSpec) -> None:
        if self.progress is not None:
            self.progress(spec.label)

    def _run_parallel(self, specs: typing.Sequence[PointSpec]
                      ) -> list[typing.Any]:
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments.pool import get_pool, shutdown_pool

        total = len(specs)
        workers = min(self.jobs, total)
        chunksize = default_chunksize(total, workers)
        pool = get_pool(workers)
        results: list[typing.Any] = [None] * total
        futures = {pool.submit(run_chunk, specs[start:start + chunksize]):
                   start for start in range(0, total, chunksize)}
        done = 0
        try:
            for future in concurrent.futures.as_completed(futures):
                start = futures[future]
                try:
                    chunk_results = future.result()
                except BrokenProcessPool:
                    # A worker died uncleanly (hard crash, not a Python
                    # exception); the executor is unusable -- drop it so
                    # the next sweep builds a fresh one.
                    shutdown_pool()
                    raise
                for index, item in enumerate(chunk_results, start):
                    if isinstance(item, _SpecFailure):
                        raise SweepWorkerError(
                            f"sweep point '{item.label}' raised "
                            f"{item.exc_type}: {item.message}\n"
                            f"--- worker traceback ---\n"
                            f"{item.traceback_text}") from item.exception
                    results[index] = item
                    done += 1
                    self._emit(specs[index])
        finally:
            # On failure, stop dispatching work nobody will read; chunks
            # already running finish harmlessly in the (healthy) pool.
            if done < total:
                for future in futures:
                    future.cancel()
        return results
