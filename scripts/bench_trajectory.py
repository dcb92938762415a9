#!/usr/bin/env python
"""Track the repo's performance trajectory across PRs.

Runs the kernel microbenchmarks plus one small sweep benchmark with
plain ``time.perf_counter`` timing (no pytest-benchmark dependency) and
writes a machine-readable ``BENCH_<n>.json`` at the repo root --
wall-clock, events/sec, txns/sec -- so each PR's perf delta is recorded
next to the previous ones.  The full run also records the benchmark
(``perfbench/run.py``) on each of its workloads at one seed, under the
``perfbench`` key: the end-to-end metrics of a ``--trace 0`` run, the
per-layer metrics of a ``--trace 1`` run, and each run's result
digests.

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py            # full run
    PYTHONPATH=src python scripts/bench_trajectory.py --smoke    # CI gate
    PYTHONPATH=src python scripts/bench_trajectory.py --pr 3     # BENCH_3.json
    python scripts/bench_trajectory.py --compare BENCH_2.json BENCH_3.json

``--smoke`` shrinks the workloads to a couple of seconds total, skips
the JSON artifact (unless ``--output`` is given), and *fails loudly*
(exit 1) if kernel throughput falls below conservative floors -- the
floors are ~5x below current performance, so they only trip on real
regressions, not machine noise.

``--compare A B`` prints the change of every perfbench metric from
record A to record B.  It then lists every metric whose unit is
``count`` in ``BENCHMARK.json`` and every result digest that differs,
and exits 1 if any does: a change that claims identical behaviour must
leave the work counters and the simulated results exactly as they were.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import re
import subprocess
import sys
import time


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Conservative --smoke floors (events/sec and txns/sec).  The optimized
#: kernel does ~2M heap-entries/sec and ~1 txn/ms on a laptop core;
#: these trip only on order-of-magnitude regressions.
SMOKE_FLOOR_EVENTS_PER_SEC = 200_000.0
SMOKE_FLOOR_TXNS_PER_SEC = 100.0
#: An idle-bus emit guard is one dict membership test; a tight Python
#: loop of them runs at ~10M/s, so 1M/s only trips on real regressions
#: (e.g. someone making has_subscribers allocate or walk lists).
SMOKE_FLOOR_BUS_GUARDS_PER_SEC = 1_000_000.0
#: An *inactive* FaultConfig must wire nothing: its entire runtime cost
#: is a handful of ``is None`` attribute tests on hot paths.  The true
#: overhead is ~1% (full-bench pairs, BENCH_7), but the smoke samples
#: are ~80 ms on shared 1-core runners whose slow episodes move even a
#: median-of-pairs ratio by several percent, so the gate only flags a
#: structural regression (an accidentally wired subscriber shows up as
#: >=1.2x); the full bench remains the precision measurement.
SMOKE_CEIL_FAULT_OVERHEAD = 1.10
#: The open-system machinery (Poisson arrivals, bounded queues, extra
#: bus events, percentile samples) rides on the same kernel; a mid-load
#: open point must clear the same order-of-magnitude floor as the
#: closed end-to-end run.
SMOKE_FLOOR_OPEN_TXNS_PER_SEC = 100.0
#: The ``uniform`` topology builds no wire, exactly like no topology:
#: both runs take the one send path (no RNG draws, no extra kernel
#: events, byte-identical trajectories, asserted below), so the true
#: ratio is 1.00x.  Like ``fault_overhead`` above, the ~75 ms smoke
#: samples jitter several percent on shared/virtualized 1-core runners
#: (host steal moves even a median-of-15-pairs ratio past 1.02x --
#: observed up to 1.13x on an otherwise idle guest), so the gate flags
#: structural regressions only (a wire built for ``uniform``); the full
#: bench remains the precision measurement.
SMOKE_CEIL_COST_MODEL_OVERHEAD = 1.10
#: Replication factor 1 builds the plain PageDirectory, exactly like no
#: replication (``ReplicationSpec.is_active`` is ``factor > 1``): one
#: code path, byte-identical trajectories (asserted below).  Same
#: median-of-adjacent-pairs discipline and jitter-driven ceiling as the
#: cost-model and partition gates.
SMOKE_CEIL_REPLICATION_OVERHEAD = 1.10
#: A WAN grid point adds a wire timeout to every remote message's
#: delivery on the same kernel; it must clear the same
#: order-of-magnitude floor as the LAN end-to-end run.
SMOKE_FLOOR_WAN_TXNS_PER_SEC = 100.0
#: An *inactive* region fault plan (all directives scheduled far past
#: the end of the run) adds one ``link_severed`` set probe per remote
#: send against the armed-injector baseline -- no RNG draws, no bus
#: events, byte-identical trajectories (asserted below).  Same
#: median-of-adjacent-pairs discipline and jitter-driven ceiling as
#: the cost-model gate.
SMOKE_CEIL_PARTITION_OVERHEAD = 1.10
#: Warm-pool chunked sweeps must actually scale: jobs=4 below 1.5x of
#: serial means pool/IPC overhead regressed (BENCH_5 recorded 0.74x on
#: the old cold-pool path).  Only meaningful with cores to use, so the
#: gate applies when the runner has >= 4 CPUs and is skipped (loudly)
#: otherwise.
SMOKE_FLOOR_SWEEP_SPEEDUP_J4 = 1.5
#: Soak runs must hold flat RSS: streaming percentile sketches, windowed
#: JSONL output, and WAL truncation mean a 10x-longer soak may not cost
#: more than 25% extra peak memory.  (Before the streaming plane, RSS
#: grew linearly: 10^5 transactions took ~8x the memory of 10^4.)
SMOKE_CEIL_SOAK_RSS_GROWTH = 1.25


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """(best wall seconds, last return value) over ``repeats`` runs."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


# ----------------------------------------------------------------------
# Kernel micro group
# ----------------------------------------------------------------------
def bench_event_loop(events: int, repeats: int) -> dict:
    from repro.sim import Environment

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(events):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
        return env.now

    wall, now = _best_of(run, repeats)
    assert now == float(events)
    return {"wall_s": wall, "events": events,
            "events_per_sec": events / wall}


def bench_process_spawning(processes: int, repeats: int) -> dict:
    from repro.sim import Environment

    def run():
        env = Environment()
        done = []

        def worker(env):
            yield env.timeout(1.0)
            done.append(1)

        for _ in range(processes):
            env.process(worker(env))
        env.run()
        return len(done)

    wall, count = _best_of(run, repeats)
    assert count == processes
    return {"wall_s": wall, "processes": processes,
            "processes_per_sec": processes / wall}


def bench_lock_grant_release(cycles: int, repeats: int) -> dict:
    from repro.db.deadlock import WaitForGraph
    from repro.db.locks import LockManager, LockMode
    from repro.sim import Environment

    ids = iter(range(1, 10**9))

    class _Txn:
        def __init__(self):
            self.txn_id = next(ids)
            self.name = f"bench-{self.txn_id}"
            self.incarnation = 0
            self.pages_borrowed = 0

    class _Cohort:
        def __init__(self):
            self.txn = _Txn()
            self.held_locks = {}
            self.lending_pages = set()
            self.lenders = set()

        def add_lender(self, lender):
            self.lenders.add(lender)

        def remove_lender(self, lender):
            self.lenders.discard(lender)

    def run():
        env = Environment()
        wfg = WaitForGraph(on_victim=lambda txn: None)
        lm = LockManager(env, 0, wfg)
        count = 0

        def worker(env):
            nonlocal count
            for i in range(cycles):
                cohort = _Cohort()
                yield from lm.acquire(cohort, i % 64, LockMode.UPDATE)
                lm.finalize(cohort, committed=True)
                count += 1

        env.process(worker(env))
        env.run()
        return count

    wall, count = _best_of(run, repeats)
    assert count == cycles
    return {"wall_s": wall, "cycles": cycles, "cycles_per_sec": cycles / wall}


def bench_condition_events(waits: int, repeats: int) -> dict:
    """``AllOf`` fan-in, including the single-child path."""
    from repro.sim import Environment

    def run():
        env = Environment()
        fired = []

        def waiter(env):
            for _ in range(waits):
                pair = yield env.all_of([env.timeout(1.0, value="a"),
                                         env.timeout(1.0, value="b")])
                solo = yield env.all_of([env.timeout(1.0, value="c")])
                fired.append(len(pair) + len(solo))

        env.process(waiter(env))
        env.run()
        return sum(fired)

    wall, total = _best_of(run, repeats)
    assert total == 3 * waits
    return {"wall_s": wall, "waits": waits, "waits_per_sec": waits / wall}


def bench_bus_overhead(operations: int, repeats: int) -> dict:
    """Cost of the instrumentation plane at the emit sites.

    Every high-frequency emitter guards with ``bus.has_subscribers``, so
    the idle-bus cost per emit site is a single dict membership test --
    this benchmark measures that guard rate directly, plus the dispatch
    rate with one live subscriber for contrast.
    """
    from repro.obs.bus import EventBus
    from repro.obs.events import EventKind, LogWrite

    def run_idle():
        bus = EventBus()
        has = bus.has_subscribers
        kind = EventKind.LOG_WRITE
        hits = 0
        for _ in range(operations):
            if has(kind):  # the guard every idle emit site pays
                hits += 1
        return hits

    def run_live():
        bus = EventBus()
        seen = []
        bus.subscribe(EventKind.LOG_WRITE, seen.append)
        has = bus.has_subscribers
        publish = bus.publish
        kind = EventKind.LOG_WRITE
        for _ in range(operations):
            if has(kind):
                publish(LogWrite(0.0, site_id=0, record_kind="bench",
                                 txn_id=1))
        return len(seen)

    idle_wall, hits = _best_of(run_idle, repeats)
    assert hits == 0
    live_wall, delivered = _best_of(run_live, repeats)
    assert delivered == operations
    return {"wall_s": idle_wall, "operations": operations,
            "idle_guards_per_sec": operations / idle_wall,
            "live_dispatch_per_sec": operations / live_wall}


def bench_end_to_end(transactions: int, repeats: int) -> dict:
    import repro

    def run():
        result = repro.simulate("2PC", measured_transactions=transactions,
                                mpl=2, warmup_transactions=transactions // 10)
        return result.committed

    wall, committed = _best_of(run, repeats)
    return {"wall_s": wall, "txns": committed,
            "txns_per_sec": committed / wall}


def bench_open_saturation_point(transactions: int, repeats: int) -> dict:
    """One open-mode mid-load point (wall-clock cost of the arrival,
    admission-queue, and percentile machinery on top of the kernel)."""
    import repro
    from repro.config import open_system

    params = open_system(arrival_rate_tps=1.0)

    def run():
        return repro.simulate("2PC", params,
                              measured_transactions=transactions,
                              warmup_transactions=transactions // 10)

    wall, result = _best_of(run, repeats)
    return {"wall_s": wall, "txns": result.committed,
            "txns_per_sec": result.committed / wall,
            "arrival_rate_tps": params.arrival_rate_tps,
            "carried_tps_sim": result.throughput,
            "shed_ratio": result.shed_ratio}


def _inactive_plane(transactions: int, repeats: int, plain: dict,
                    inactive: dict, what: str, extra_events: int) -> dict:
    """Wall-clock cost of one plane when it is present but inactive.

    Runs the identical seeded 2PC workload with the ``plain`` and the
    ``inactive`` simulate arguments.  The two must be byte-identical
    (asserted), and the inactive run must schedule exactly
    ``extra_events`` more kernel events than the plain one: a dormant
    plane does no other kernel work, and the count has no noise to
    allow for.  The smoke gate pins the wall-clock ratio.

    The ratio is the MEDIAN of adjacent plain/inactive pairs: the two
    halves of a pair sit next to each other in time, so a throttling
    episode or load spike slows both and cancels in the ratio, and the
    median discards the pairs where it did not.  (Ratio-of-minima is not
    enough here -- a slow episode spanning one variant's whole schedule
    skews both minima.)
    """
    import dataclasses
    import statistics

    import repro

    def run(kwargs, on_system=None):
        return repro.simulate("2PC", measured_transactions=transactions,
                              mpl=2, warmup_transactions=0, seed=1,
                              on_system=on_system, **kwargs)

    systems: list = []
    plain_result = run(plain, systems.append)
    inactive_result = run(inactive, systems.append)
    assert (json.dumps(dataclasses.asdict(plain_result))
            == json.dumps(dataclasses.asdict(inactive_result))), \
        f"{what} perturbed the trajectory"
    # env._eid counts every event the kernel scheduled.
    plain_events, events = (system.env._eid for system in systems)
    if events - plain_events != extra_events:
        raise RuntimeError(f"{what} scheduled {events - plain_events} extra "
                           f"kernel events, expected exactly {extra_events}")
    plain_wall = inactive_wall = float("inf")
    ratios = []
    for _ in range(max(repeats, 5)):
        start = time.perf_counter()
        run(plain)
        plain_s = time.perf_counter() - start
        start = time.perf_counter()
        run(inactive)
        inactive_s = time.perf_counter() - start
        plain_wall = min(plain_wall, plain_s)
        inactive_wall = min(inactive_wall, inactive_s)
        ratios.append(inactive_s / plain_s)
    return {"wall_s": inactive_wall, "plain_wall_s": plain_wall,
            "txns": transactions,
            "plain_events": plain_events, "events": events,
            "extra_events": events - plain_events,
            "overhead_ratio": statistics.median(ratios)}


def bench_inactive_planes(transactions: int, repeats: int) -> dict:
    """One ``_inactive_plane`` row per plane that must cost nothing when
    inactive (see the ``SMOKE_CEIL_*_OVERHEAD`` notes above):

    - ``fault_overhead``: ``faults=None`` vs an inactive FaultConfig;
    - ``cost_model_overhead``: no topology vs the ``uniform``
      topology, which builds no wire either (one send path);
    - ``partition_overhead``: an armed injector (a crash far past the
      end of the run) on a 2x2-DC topology vs the same plus a
      far-future region plan, which adds the ``link_severed`` probe to
      every remote send -- only the plan differs;
    - ``replication_overhead``: no replication vs replication factor
      1, which builds the same plain PageDirectory.

    Each row also records the plane's extra kernel events, asserted
    exactly: 0, except 2 for the far-future region plan (its driver's
    start and its ``at=1e9`` timer).
    """
    import repro
    from repro.faults import FaultConfig, RegionPlan

    dcs = {"num_sites": 4,
           "network_topology": repro.NetworkTopology.parse("dcs:2x2:rtt_ms=0")}
    armed = FaultConfig(region=RegionPlan.parse("site_crash:0:at=1e9:for=1"))
    planned = FaultConfig(region=RegionPlan.parse(
        "site_crash:0:at=1e9:for=1,partition:0|1:at=1e9:for=1"))
    planes = {
        "fault_overhead": (
            {"faults": None}, {"faults": FaultConfig()},
            "inactive FaultConfig", 0),
        "cost_model_overhead": (
            {"network_topology": None},
            {"network_topology": repro.NetworkTopology.parse("uniform")},
            "uniform topology", 0),
        "partition_overhead": (
            {**dcs, "faults": armed}, {**dcs, "faults": planned},
            "inactive region plan", 2),
        "replication_overhead": (
            {"replication": None}, {"replication": repro.ReplicationSpec(1)},
            "replication factor 1", 0),
    }
    return {key: _inactive_plane(transactions, repeats, *plane)
            for key, plane in planes.items()}


def bench_wan_point(transactions: int, repeats: int) -> dict:
    """One WAN grid point: 2PC across 2 datacenters at 40 ms RTT.

    The per-message wire charge adds a timeout to every remote
    message's delivery, so this tracks the kernel cost of the WAN
    path (and the cross-DC accounting) rather than the protocol story
    -- the ordering claims live in ``repro-commit wan`` and
    ``tests/experiments/test_wan.py``.
    """
    import repro

    captured = []
    topology = repro.NetworkTopology.parse("dcs:2x4:rtt_ms=40")

    def run():
        captured.clear()
        result = repro.simulate(
            "2PC", measured_transactions=transactions, mpl=2,
            warmup_transactions=transactions // 10, seed=1,
            network_topology=topology, on_system=captured.append)
        return result

    wall, result = _best_of(run, repeats)
    system = captured[0]
    return {"wall_s": wall, "txns": result.committed,
            "txns_per_sec": result.committed / wall,
            "rtt_ms": 40.0,
            "response_ms": result.response_time_ms,
            "cross_dc_messages": system.network.cross_dc_messages,
            "cross_dc_round_trips_per_commit":
                system.metrics.cross_dc_round_trips_per_commit()}


# ----------------------------------------------------------------------
# Soak memory benchmark (peak RSS vs run length)
# ----------------------------------------------------------------------
def bench_soak_memory(small_txns: int, large_txns: int) -> dict:
    """Peak RSS of a short vs a 10x-longer soak run.

    Each probe runs ``python -m repro.experiments.soak`` in its own
    subprocess so ``ru_maxrss`` is that run's true high-water mark.  The
    interesting number is ``rss_growth_ratio``: with O(1)-memory metrics
    (P-squared sketches, windowed JSONL, WAL truncation) it stays ~1.0;
    any per-transaction retention drags it toward ``large/small``.
    """
    import os
    import subprocess

    def probe(transactions: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.soak",
             "--transactions", str(transactions)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            check=True)
        return json.loads(result.stdout)

    small = probe(small_txns)
    large = probe(large_txns)
    return {"small_transactions": small_txns,
            "large_transactions": large_txns,
            "small_maxrss_kb": small["maxrss_kb"],
            "large_maxrss_kb": large["maxrss_kb"],
            "small_committed": small["committed"],
            "large_committed": large["committed"],
            "rss_growth_ratio": large["maxrss_kb"] / small["maxrss_kb"]}


# ----------------------------------------------------------------------
# Sweep scaling benchmark (serial vs warm-pool chunked wall-clock)
# ----------------------------------------------------------------------
def bench_sweep_scaling(transactions: int, mpls: tuple[int, ...],
                        jobs_list: tuple[int, ...]) -> dict:
    """E1 sweep wall-clock at several ``jobs`` values.

    Exercises the warm-pool chunked execution path: for each parallel
    jobs value the pool is pre-warmed with a throwaway one-point sweep
    (matching how a CLI invocation amortizes startup across its
    sweeps), then the grid is timed.  ``speedup_vs_serial`` only means
    much when the machine actually has spare cores -- ``cpus`` is
    recorded alongside so the artifact is honest on 1-core runners.
    """
    import os

    from repro.experiments import get_experiment, shutdown_pool

    definition = get_experiment("E1")
    timings = {}
    for jobs in jobs_list:
        if jobs > 1:
            # Warm the pool outside the timed window, as a long-lived
            # CLI/session would have it warm from earlier sweeps.
            definition.run(measured_transactions=5, mpls=(1,), jobs=jobs)
        start = time.perf_counter()
        definition.run(measured_transactions=transactions, mpls=mpls,
                       jobs=jobs)
        timings[str(jobs)] = time.perf_counter() - start
    shutdown_pool()
    serial = timings.get("1")
    speedups = ({j: serial / t for j, t in timings.items()}
                if serial else {})
    return {"experiment": "E1", "transactions": transactions,
            "mpls": list(mpls), "cpus": os.cpu_count() or 1,
            "wall_s_by_jobs": timings,
            "speedup_vs_serial": speedups,
            "path": "warm-pool chunked"}


# ----------------------------------------------------------------------
# The benchmark itself (perfbench/run.py), recorded and compared
# ----------------------------------------------------------------------
#: The benchmark's workloads, its seed here, and its timed seconds.
PERFBENCH_WORKLOADS = ("closed-rcdc", "sweep-puredc", "open-wan-soak",
                       "faulted-paxos")
PERFBENCH_SEED = 1
PERFBENCH_SECONDS = 20
#: ``--trace`` value -> the key its run is stored under.
PERFBENCH_MODES = {0: "end_to_end", 1: "per_layer"}
#: Runs the command in ``sys.argv[1:]`` and exits with its status.  A
#: child's ``ru_maxrss`` starts at its parent's resident size, so
#: perfbench is started from this fresh, small interpreter: its
#: ``peak_rss_mb`` is then its own, not this script's.
_LAUNCHER = ("import subprocess, sys; "
             "sys.exit(subprocess.run(sys.argv[1:]).returncode)")


def run_perfbench(workload: str, trace: int, seed: int,
                  seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its metrics, result digests and
    failure counts."""
    argv = [sys.executable, "-c", _LAUNCHER, sys.executable,
            str(REPO_ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    if not trace:
        argv += ["--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=REPO_ROOT, capture_output=True,
                          text=True, check=True)
    lines = done.stdout.strip().splitlines()
    manifest = json.loads(lines[-2])["manifest"]
    result = json.loads(lines[-1])
    return {"metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()},
            "digests": manifest["digests"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"]}


def bench_perfbench(seed: int = PERFBENCH_SEED,
                    seconds: float = PERFBENCH_SECONDS) -> dict:
    """Every workload end to end (``--trace 0``) and per layer
    (``--trace 1``) at ``seed``."""
    workloads = {}
    for workload in PERFBENCH_WORKLOADS:
        workloads[workload] = {
            key: run_perfbench(workload, trace, seed, seconds)
            for trace, key in PERFBENCH_MODES.items()}
    return {"seed": seed, "seconds": seconds, "workloads": workloads}


def benchmark_units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for group in ("end_to_end", "per_layer")
            for metric in declared[group]}


def compare_reports(before_path: str, after_path: str) -> int:
    """Print every perfbench metric's change from one record to the
    other; list and fail on differing counts and digests.

    An end-to-end run repeats until its seconds are up, so the two
    records may hold different numbers of digests; the repetitions
    both ran (same index, same seed) are compared.
    """
    records = []
    for path in (before_path, after_path):
        record = json.loads(pathlib.Path(path).read_text())
        if "perfbench" not in record:
            print(f"error: {path} has no perfbench record (written by "
                  f"the full run)", file=sys.stderr)
            return 2
        records.append(record["perfbench"]["workloads"])
    before, after = records
    units = benchmark_units()
    differs = []
    print(f"== perfbench: {before_path} -> {after_path} ==")
    for workload in PERFBENCH_WORKLOADS:
        for key in PERFBENCH_MODES.values():
            old = before.get(workload, {}).get(key)
            new = after.get(workload, {}).get(key)
            if old is None or new is None:
                differs.append(f"{workload} {key}: missing from "
                               f"{before_path if old is None else after_path}")
                continue
            print(f"{workload} ({key}; failed {old['failed']}/"
                  f"{old['attempted']} -> {new['failed']}/"
                  f"{new['attempted']})")
            for name in sorted(set(old["metrics"]) | set(new["metrics"])):
                a = old["metrics"].get(name)
                b = new["metrics"].get(name)
                if a is None or b is None:
                    change = "missing"
                elif a:
                    change = f"{(b - a) / abs(a):+8.1%}"
                else:
                    change = "       =" if b == a else "  from 0"
                print(f"  {name:<34} {_fmt(a):>12} -> {_fmt(b):>12}  "
                      f"{change}")
                if units.get(name) == "count" and a != b:
                    differs.append(f"{workload} {name} (count): "
                                   f"{_fmt(a)} -> {_fmt(b)}")
            for index, (a, b) in enumerate(zip(old["digests"],
                                               new["digests"])):
                if a != b:
                    differs.append(f"{workload} {key} digest of "
                                   f"repetition {index}: {a} -> {b}")
    for line in differs:
        print(f"differs: {line}")
    if differs:
        return 1
    print("every count metric and result digest is equal")
    return 0


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


# ----------------------------------------------------------------------
def next_bench_number() -> int:
    taken = [int(m.group(1)) for path in REPO_ROOT.glob("BENCH_*.json")
             if (m := re.match(r"BENCH_(\d+)\.json$", path.name))]
    return max(taken, default=0) + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI gate: tiny sizes, enforce perf "
                             "floors, no artifact by default")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number for BENCH_<n>.json "
                             "(default: next free number)")
    parser.add_argument("--output", default=None,
                        help="explicit output path (overrides --pr)")
    parser.add_argument("--jobs", default="1,2,4",
                        help="comma-separated jobs values for the sweep "
                             "scaling benchmark (default 1,2,4)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the perfbench deltas from record A "
                             "to record B; exit 1 if a count metric or "
                             "a result digest differs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_reports(*args.compare)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    jobs_list = tuple(int(part) for part in args.jobs.split(","))

    if args.smoke:
        sizes = dict(events=5_000, processes=2_000, cycles=1_000,
                     waits=1_000, bus_ops=50_000, transactions=60,
                     repeats=1)
        sweep_txns, sweep_mpls = 30, (1, 2)
        soak_small, soak_large = 1_000, 10_000
    else:
        sizes = dict(events=20_000, processes=5_000, cycles=2_000,
                     waits=1_000, bus_ops=200_000, transactions=300,
                     repeats=3)
        sweep_txns, sweep_mpls = 120, (1, 2)
        soak_small, soak_large = 10_000, 100_000

    print(f"== kernel micro group ({'smoke' if args.smoke else 'full'}) ==")
    kernel = {
        "event_loop": bench_event_loop(sizes["events"], sizes["repeats"]),
        "process_spawning": bench_process_spawning(sizes["processes"],
                                                   sizes["repeats"]),
        "lock_grant_release": bench_lock_grant_release(sizes["cycles"],
                                                       sizes["repeats"]),
        "condition_events": bench_condition_events(sizes["waits"],
                                                   sizes["repeats"]),
        "bus_overhead": bench_bus_overhead(sizes["bus_ops"],
                                           sizes["repeats"]),
        "end_to_end": bench_end_to_end(sizes["transactions"],
                                       sizes["repeats"]),
        "open_saturation_point": bench_open_saturation_point(
            sizes["transactions"], sizes["repeats"]),
        # Wall-clock ratios need many best-of pairs even in smoke mode:
        # on a busy 1-core runner, 5 interleaved pairs jitter the ratio
        # far more than 15 do (the ceilings above absorb the rest).
        **bench_inactive_planes(sizes["transactions"], 15),
        "wan_point": bench_wan_point(sizes["transactions"],
                                     sizes["repeats"]),
    }
    for name, row in kernel.items():
        rate_key = next((k for k in row if k.endswith("_per_sec")), None)
        if rate_key is not None:
            detail = (f"{row[rate_key]:12,.0f} "
                      f"{rate_key.replace('_per_sec', '')}/s")
        else:
            detail = (f"{row['overhead_ratio']:12.3f} x plain, "
                      f"+{row['extra_events']} events")
        print(f"  {name:<20} {row['wall_s'] * 1e3:8.1f} ms   {detail}")

    print("== soak memory benchmark (flat-RSS gate) ==")
    soak = bench_soak_memory(soak_small, soak_large)
    print(f"  {soak['small_transactions']:>7,} txns  "
          f"{soak['small_maxrss_kb'] / 1024:8.1f} MiB peak")
    print(f"  {soak['large_transactions']:>7,} txns  "
          f"{soak['large_maxrss_kb'] / 1024:8.1f} MiB peak  "
          f"({soak['rss_growth_ratio']:.2f}x)")

    print("== sweep scaling benchmark (warm-pool chunked path) ==")
    sweep = bench_sweep_scaling(sweep_txns, sweep_mpls, jobs_list)
    for jobs, wall in sweep["wall_s_by_jobs"].items():
        speedup = sweep["speedup_vs_serial"].get(jobs)
        extra = f"  ({speedup:.2f}x vs serial)" if speedup else ""
        print(f"  jobs={jobs:<3} {wall * 1e3:8.1f} ms{extra}")
    print(f"  ({sweep['cpus']} CPU core(s) available)")

    report = {
        "schema": 3,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_micro": kernel,
        "soak_memory": soak,
        "sweep_scaling": sweep,
    }
    if not args.smoke:
        print(f"== perfbench (seed {PERFBENCH_SEED}) ==")
        report["perfbench"] = bench_perfbench()
        for workload, runs in report["perfbench"]["workloads"].items():
            rate = runs["end_to_end"]["metrics"].get("txn_per_ref_s", 0.0)
            events = runs["per_layer"]["metrics"].get(
                "kernel.events_per_commit", 0.0)
            print(f"  {workload:<14} {rate:8.1f} txn/ref_s  "
                  f"{events:8.2f} events/commit")

    if args.smoke:
        failures = []
        if kernel["event_loop"]["events_per_sec"] < \
                SMOKE_FLOOR_EVENTS_PER_SEC:
            failures.append(
                f"event loop below floor: "
                f"{kernel['event_loop']['events_per_sec']:,.0f} < "
                f"{SMOKE_FLOOR_EVENTS_PER_SEC:,.0f} events/s")
        if kernel["bus_overhead"]["idle_guards_per_sec"] < \
                SMOKE_FLOOR_BUS_GUARDS_PER_SEC:
            failures.append(
                f"idle-bus guard below floor: "
                f"{kernel['bus_overhead']['idle_guards_per_sec']:,.0f} < "
                f"{SMOKE_FLOOR_BUS_GUARDS_PER_SEC:,.0f} guards/s")
        if kernel["end_to_end"]["txns_per_sec"] < SMOKE_FLOOR_TXNS_PER_SEC:
            failures.append(
                f"end-to-end below floor: "
                f"{kernel['end_to_end']['txns_per_sec']:,.0f} < "
                f"{SMOKE_FLOOR_TXNS_PER_SEC:,.0f} txns/s")
        if kernel["open_saturation_point"]["txns_per_sec"] < \
                SMOKE_FLOOR_OPEN_TXNS_PER_SEC:
            failures.append(
                f"open-mode point below floor: "
                f"{kernel['open_saturation_point']['txns_per_sec']:,.0f} < "
                f"{SMOKE_FLOOR_OPEN_TXNS_PER_SEC:,.0f} txns/s")
        if kernel["fault_overhead"]["overhead_ratio"] > \
                SMOKE_CEIL_FAULT_OVERHEAD:
            failures.append(
                f"inactive fault injector above ceiling: "
                f"{kernel['fault_overhead']['overhead_ratio']:.3f}x > "
                f"{SMOKE_CEIL_FAULT_OVERHEAD}x plain")
        if kernel["cost_model_overhead"]["overhead_ratio"] > \
                SMOKE_CEIL_COST_MODEL_OVERHEAD:
            failures.append(
                f"uniform topology above ceiling: "
                f"{kernel['cost_model_overhead']['overhead_ratio']:.3f}x "
                f"> {SMOKE_CEIL_COST_MODEL_OVERHEAD}x plain")
        if kernel["partition_overhead"]["overhead_ratio"] > \
                SMOKE_CEIL_PARTITION_OVERHEAD:
            failures.append(
                f"inactive partition plane above ceiling: "
                f"{kernel['partition_overhead']['overhead_ratio']:.3f}x "
                f"> {SMOKE_CEIL_PARTITION_OVERHEAD}x armed baseline")
        if kernel["replication_overhead"]["overhead_ratio"] > \
                SMOKE_CEIL_REPLICATION_OVERHEAD:
            failures.append(
                f"inactive replication plane above ceiling: "
                f"{kernel['replication_overhead']['overhead_ratio']:.3f}x "
                f"> {SMOKE_CEIL_REPLICATION_OVERHEAD}x plain")
        if kernel["wan_point"]["txns_per_sec"] < \
                SMOKE_FLOOR_WAN_TXNS_PER_SEC:
            failures.append(
                f"WAN point below floor: "
                f"{kernel['wan_point']['txns_per_sec']:,.0f} < "
                f"{SMOKE_FLOOR_WAN_TXNS_PER_SEC:,.0f} txns/s")
        if soak["rss_growth_ratio"] > SMOKE_CEIL_SOAK_RSS_GROWTH:
            failures.append(
                f"soak RSS growth above ceiling: "
                f"{soak['rss_growth_ratio']:.2f}x > "
                f"{SMOKE_CEIL_SOAK_RSS_GROWTH}x for a "
                f"{soak['large_transactions'] // soak['small_transactions']}"
                f"x-longer soak (memory is not flat)")
        speedup_j4 = sweep["speedup_vs_serial"].get("4")
        if sweep["cpus"] >= 4 and speedup_j4 is not None:
            if speedup_j4 < SMOKE_FLOOR_SWEEP_SPEEDUP_J4:
                failures.append(
                    f"warm-pool sweep scaling below floor: "
                    f"{speedup_j4:.2f}x < "
                    f"{SMOKE_FLOOR_SWEEP_SPEEDUP_J4}x at jobs=4 "
                    f"({sweep['cpus']} cpus)")
        elif speedup_j4 is not None:
            print(f"smoke: sweep-scaling floor skipped "
                  f"({sweep['cpus']} cpu(s) < 4; jobs=4 measured "
                  f"{speedup_j4:.2f}x)")
        if failures:
            for failure in failures:
                print(f"SMOKE FAIL: {failure}", file=sys.stderr)
            return 1
        print("smoke floors ok")

    if args.output or not args.smoke:
        number = args.pr if args.pr is not None else next_bench_number()
        path = (pathlib.Path(args.output) if args.output
                else REPO_ROOT / f"BENCH_{number}.json")
        existing = {}
        if path.exists():
            existing = json.loads(path.read_text())
            # Preserve hand-recorded context (e.g. the seed baseline).
            existing.pop("kernel_micro", None)
            existing.pop("sweep", None)
            existing.pop("sweep_scaling", None)
            existing.pop("soak_memory", None)
            existing.pop("perfbench", None)
        existing.update(report)
        path.write_text(json.dumps(existing, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
