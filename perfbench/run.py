#!/usr/bin/env python3
"""Benchmark of the commit-protocol simulator.

Runs one workload (see ``workloads.py``) and prints, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are end to end:

- ``txn_per_ref_s``: simulated commits (warm-up included) per
  wall-clock second over the repetitions timed for ``--seconds``,
  scaled by how long a fixed reference loop took next to them against
  its nominal 0.1 s.  It reads as commits per second on a host running
  the loop at nominal speed, and cancels most of a shared host's drift;
  the raw rate is ``txn_per_s`` in the manifest.
- ``setup_s``: the median over fresh interpreters of the time to import
  repro, build the first system (and start the sweep's worker pool)
  and process the first simulated event, scaled by the reference loop
  in the same way; the raw samples are in the manifest.
- ``peak_rss_mb``: peak resident memory over set-up and one repetition.

With ``--trace 1`` a fixed number of repetitions runs twice, untraced
and then under ``cProfile``, and the metrics are per layer (see
``ledger.py`` and ``LAYERS.md``); the two passes must produce identical
counters and results.

A ``{"manifest": ...}`` line before the result records what ran: the
workload and its model parameters, the seed, repro's version, the git
commit when there is one, Python, the CPU count, the failure ratio
(failed over attempted runs or sweep points), the tracing overhead and
a digest of each repetition's simulated results.

Usage, from the repository root::

    python3 perfbench/run.py --workload closed-rcdc --seed 1 \\
        --seconds 20 --trace 0

Run the benchmark's own tests with
``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pathlib
import platform
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("closed-rcdc", "sweep-puredc", "open-wan-soak",
             "faulted-paxos")
#: fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7
#: a repetition still running after this long counts as failed (about
#: ten times the longest one, so a traced run ends within three minutes).
REP_TIMEOUT_S = 30
#: iterations of the reference loop timed between repetitions.
REFERENCE_ITERATIONS = 1_000_000
#: the reference loop's nominal duration: ``txn_per_ref_s`` is the
#: throughput of a host on which the loop takes exactly this long.
REFERENCE_NOMINAL_S = 0.1


def import_repro() -> None:
    """Import repro from this checkout's ``src`` (and nowhere else)."""
    sys.path.insert(0, str(SRC))
    import repro
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")


def _json_default(value: object) -> object:
    """Enums by value, anything else json cannot encode by repr."""
    return getattr(value, "value", repr(value))


def rep_seed(seed: int, index: int) -> int:
    """Seed of repetition ``index`` of a run with ``--seed seed``."""
    return seed * 65_536 + index


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop that never touches repro.

    Shared hosts change speed by several percent over tens of seconds.
    Timed between repetitions, this loop slows down and speeds up with
    the simulator, so the ratio of the two cancels most of the drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def reference_scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference-loop timings, scaled
    to a host on which the loop takes :data:`REFERENCE_NOMINAL_S`."""
    return seconds * REFERENCE_NOMINAL_S * 2 / (before + after)


class RepTimeout(Exception):
    pass


def _on_alarm(signum: int, frame: object) -> None:
    raise RepTimeout(f"repetition exceeded {REP_TIMEOUT_S} s")


def guarded_rep(workload, seed: int, timer, serial: bool):
    """Run one repetition; None if it raised or timed out."""
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, REP_TIMEOUT_S)
    try:
        return workload.rep(seed, timer, serial)
    except Exception:  # noqa: BLE001 - a failed repetition is counted
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Tally:
    """Attempts, failures, digests and counters across repetitions."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reps = []
        self.digests = []

    def add(self, rep) -> None:
        self.attempted += self.workload.units
        if rep is None:
            self.failed += self.workload.units
            self.digests.append(None)
            return
        self.failed += rep.failed
        for problem in rep.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.reps.append(rep)
        self.digests.append(rep.digest)

    def totals(self) -> dict:
        from ledger import add_totals
        totals: dict = {}
        for rep in self.reps:
            add_totals(totals, rep.totals or {})
        return totals


def measure_setup(workload: str, seed: int) -> tuple[list[float], float]:
    """Raw ``setup_s`` samples, each from a fresh interpreter, and their
    median in reference seconds (see :func:`reference_scaled`)."""
    samples = []
    reference = [reference_seconds()]
    for index in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--seed", str(rep_seed(seed, index)),
             "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
        reference.append(reference_seconds())
    return samples, statistics.median(
        reference_scaled(sample, reference[index], reference[index + 1])
        for index, sample in enumerate(samples))


def probe_setup(workload: str, seed: int) -> float:
    """Time from before ``import repro`` to the first simulated event."""
    start = time.perf_counter()
    import_repro()
    import workloads
    runner = workloads.make(workload, ROOT)
    try:
        runner.first_event(seed)
        return time.perf_counter() - start
    finally:
        runner.teardown()


def run_untraced(workload, seed: int, seconds: float
                 ) -> tuple[Tally, dict]:
    """A warm-up repetition, then repetitions until ``seconds`` have
    passed, with the reference loop timed between every two.

    The warm-up's outputs are checked like any other, but it is not
    timed: it pays for lazy imports and, in a sweep, cold workers.
    Peak RSS is read after it, so that it covers import, set-up and one
    repetition however many repetitions the host's speed lets run.
    """
    from workloads import Timer
    tally = Tally(workload)
    timed: dict = {"reps": [], "reference_s": []}
    workload.setup(serial=False)
    try:
        tally.add(guarded_rep(workload, rep_seed(seed, 0), Timer(),
                              serial=False))
        timed["peak_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        deadline = time.perf_counter() + seconds
        index = 1
        while True:
            timed["reference_s"].append(reference_seconds())
            rep = guarded_rep(workload, rep_seed(seed, index), Timer(),
                              serial=False)
            tally.add(rep)
            timed["reps"].append(None if rep is None
                                 else (rep.commits, rep.wall_s))
            index += 1
            if time.perf_counter() >= deadline:
                break
        timed["reference_s"].append(reference_seconds())
    finally:
        workload.teardown()
    return tally, timed


def throughputs(timed: dict) -> tuple[float, float]:
    """(``txn_per_s``, ``txn_per_ref_s``) of the timed repetitions.

    Each repetition's wall time is scaled by the reference loop's
    durations just before and just after it, so drift during the run
    cancels repetition by repetition.
    """
    commits = wall_s = reference_s = 0.0
    reference = timed["reference_s"]
    for index, rep in enumerate(timed["reps"]):
        if rep is None:
            continue
        commits += rep[0]
        wall_s += rep[1]
        reference_s += reference_scaled(rep[1], reference[index],
                                        reference[index + 1])
    if not wall_s:
        return 0.0, 0.0
    return commits / wall_s, commits / reference_s


def run_traced(workload, seed: int) -> tuple[Tally, dict, list[str]]:
    """The fixed repetitions untraced, then profiled; per-layer metrics."""
    from ledger import per_layer_metrics
    from workloads import Timer
    workload.setup(serial=True)
    plain = Timer()
    profiler = cProfile.Profile()
    traced = Timer(profiler)
    passes = []
    try:
        for timer in (plain, traced):
            tally = Tally(workload)
            for index in range(workload.trace_reps):
                tally.add(guarded_rep(workload, rep_seed(seed, index),
                                      timer, serial=True))
            passes.append(tally)
    finally:
        workload.teardown()
    untraced, profiled = passes
    problems = []
    if untraced.totals() != profiled.totals():
        problems.append("tracing perturbed the per-commit counters")
    if untraced.digests != profiled.digests:
        problems.append("tracing perturbed the simulated results")
    combined = Tally(workload)
    combined.attempted = untraced.attempted + profiled.attempted
    combined.failed = untraced.failed + profiled.failed
    combined.digests = profiled.digests
    if combined.failed or not profiled.reps:
        return combined, {}, problems
    metrics = per_layer_metrics(
        profiled.totals(), pstats.Stats(profiler), plain.wall_s,
        traced.wall_s, points=sum(rep.points for rep in profiled.reps))
    return combined, metrics, problems


def git_sha() -> str | None:
    """The checkout's commit, when it is a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    try:
        import_repro()
    except ImportError as exc:
        print(f"error: cannot import repro from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import ledger
    import repro
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as scratch:
        workload = workloads.make(args.workload, pathlib.Path(scratch))
        problems: list[str] = []
        overhead_ratio = None
        if args.trace:
            tally, metrics, problems = run_traced(workload, args.seed)
            overhead_ratio = metrics.get("trace.overhead_ratio")
            units = {name: unit for name, unit, _better
                     in ledger.PER_LAYER}
        else:
            tally, timed = run_untraced(workload, args.seed, args.seconds)
            setup, setup_s = measure_setup(args.workload, args.seed)
            metrics = {}
            txn_per_s, txn_per_ref_s = throughputs(timed)
            if txn_per_s:
                metrics = {
                    "txn_per_ref_s": txn_per_ref_s,
                    "setup_s": setup_s,
                    "peak_rss_mb": timed["peak_kb"] / 1024.0,
                }
            units = {"txn_per_ref_s": "1/ref_s", "setup_s": "s",
                     "peak_rss_mb": "MB"}

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not problems and bool(metrics)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "model": workload.manifest(),
        "repro_version": repro.__version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failed_ratio": tally.failed / tally.attempted,
        "trace.overhead_ratio": overhead_ratio,
        "repetitions": len(tally.digests),
        "digests": tally.digests,
    }
    if not args.trace:
        manifest["setup_s_samples"] = setup
        manifest["txn_per_s"] = txn_per_s
        manifest["timed_reps"] = timed["reps"]
        manifest["reference_s"] = timed["reference_s"]
    print(json.dumps({"manifest": manifest}, default=_json_default))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
