"""The per-layer ledger: exact work counters and profiled self time.

Two sources feed the per-layer metrics of a traced run:

- **Counters** are read from the simulator's own objects (kernel event
  sequence number, resource claims served, lock-manager and WAL
  counters, network counters, ...).  :class:`SystemRecorder` snapshots
  every :class:`~repro.db.system.DistributedSystem` as it starts, and
  :meth:`SystemRecorder.totals` sums the change in each counter over
  every system started.  Soak segments restore some counters
  cumulatively from the checkpoint, which is why deltas, not end values,
  are summed.  Counters are deterministic: the same seed gives the same
  totals, traced or not.
- **Self time** comes from :mod:`cProfile`, which times every call into
  every function (generator resumptions included) without touching the
  source.  :func:`layer_self_seconds` groups it by module into the
  layers of :data:`MODULE_LAYERS`.
"""

from __future__ import annotations

import pstats
import typing

from repro.db.system import DistributedSystem

#: repro module (path below ``src/repro``, no suffix) -> layer.
MODULE_LAYERS: dict[str, str] = {
    "sim/engine": "kernel",
    "sim/events": "kernel",
    "sim/process": "kernel",
    "sim/rng": "kernel",
    "sim/resources": "resources",
    "db/locks": "locks",
    "db/deadlock": "locks",
    "db/transaction": "agents",
    "db/system": "agents",
    "db/workload": "agents",
    "admission": "agents",
    "db/site": "storage",
    "db/pages": "storage",
    "db/network": "network",
    "db/topology": "network",
    "db/messages": "network",
    "db/wal": "wal",
    "failures": "protocol",
    "metrics": "obs",
    "sim/stats": "obs",
    "trace": "obs",
}

#: repro subpackage -> layer, for modules not named above.  Anything
#: else inside repro (``config``, ``cli``, package ``__init__`` files)
#: is set-up and entry-point code, counted with the experiments layer.
PACKAGE_LAYERS: dict[str, str] = {
    "core": "protocol",
    "obs": "obs",
    "faults": "faults",
    "experiments": "experiments",
    "analysis": "experiments",
}

#: Every layer with a ``<layer>.self_us_per_commit`` metric, in report
#: order.  ``runtime`` is code outside repro: builtins and the standard
#: library (``heapq``, ``enum``, ``random``, ...).
LAYERS: tuple[str, ...] = (
    "kernel", "resources", "locks", "agents", "storage", "network", "wal",
    "protocol", "obs", "faults", "experiments", "runtime")

_REPRO_MARKER = "/src/repro/"


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = filename.replace("\\", "/")
    index = path.rfind(_REPRO_MARKER)
    if index < 0:
        return "harness" if "/perfbench/" in path else "runtime"
    module = path[index + len(_REPRO_MARKER):].removesuffix(".py")
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    return PACKAGE_LAYERS.get(module.split("/")[0], "experiments")


def layer_self_seconds(stats: pstats.Stats) -> dict[str, float]:
    """Profiled self time per layer (the harness's own frames dropped)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), entry in stats.stats.items():  # type: ignore[attr-defined]
        layer = layer_of(filename)
        if layer in totals:
            totals[layer] += entry[2]  # tottime: time in the function itself
    return totals


def call_count(stats: pstats.Stats, path_suffix: str, name: str) -> int:
    """Exact number of calls into functions called ``name`` defined in a
    file whose path ends with ``path_suffix``."""
    return sum(entry[1] for (filename, _line, func), entry
               in stats.stats.items()  # type: ignore[attr-defined]
               if func == name
               and filename.replace("\\", "/").endswith(path_suffix))


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def snapshot(system: DistributedSystem) -> dict[str, float]:
    """Current value of every counter the ledger reads from ``system``."""
    groups = system._resource_groups()
    sites = system.sites
    network = system.network
    now = system.env.now
    out: dict[str, float] = {
        "commits": system.completed_total,
        "incarnations": system.transactions_started,
        "events": system.env._eid,
        "claims": sum(resource._served for resources in groups.values()
                      for resource in resources),
        "lock_grants": sum(site.lock_manager.grants for site in sites),
        "lock_waits": sum(site.lock_manager.waits for site in sites),
        "lock_borrows": sum(site.lock_manager.borrow_grants
                            for site in sites),
        "deadlocks": system.wfg.deadlocks_found,
        "pages_read": sum(site.pages_read for site in sites),
        "pages_written": sum(site.pages_written for site in sites),
        "replica_updates": system.replica_updates_sent,
        "replica_skipped": system.replica_writes_skipped,
        "messages": network.messages_sent,
        "cross_dc": network.cross_dc_messages,
        "drops": network.messages_dropped,
        "wal_forced": sum(site.log_manager.forced_count for site in sites),
        "wal_unforced": sum(site.log_manager.unforced_count
                            for site in sites),
        "offered": system.metrics.offered,
        "shed": system.metrics.shed,
    }
    for name, resources in groups.items():
        capacity = sum(resource.capacity for resource in resources)
        out[f"busy_ms_{name}"] = sum(resource.busy_snapshot()
                                     for resource in resources)
        # Server-milliseconds available; 0 for infinite servers, whose
        # utilization the model does not define.
        out[f"capacity_ms_{name}"] = (capacity * now
                                      if capacity != float("inf") else 0.0)
    return out


class SystemRecorder:
    """Context manager recording every system started inside it.

    Wraps :meth:`DistributedSystem.start` for the duration, so it sees
    systems built anywhere (the sweep runner, the soak runner) as long
    as they run in this process.  The wrapper only takes a snapshot; the
    simulation itself is untouched.
    """

    def __init__(self) -> None:
        self.started: list[tuple[DistributedSystem, dict[str, float]]] = []
        self._original: typing.Callable[[DistributedSystem], None] | None \
            = None

    def __enter__(self) -> "SystemRecorder":
        original = DistributedSystem.start
        started = self.started

        def start(system: DistributedSystem) -> None:
            if not system._started:
                started.append((system, snapshot(system)))
            original(system)

        self._original = original
        DistributedSystem.start = start  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: object) -> None:
        DistributedSystem.start = self._original  # type: ignore[method-assign]

    def totals(self) -> dict[str, float]:
        """Summed counter deltas, plus commit-weighted block ratio and
        admission-queue p95 (read from each system's metrics)."""
        totals: dict[str, float] = {}
        for system, before in self.started:
            after = snapshot(system)
            commits = after["commits"] - before["commits"]
            for key, value in after.items():
                totals[key] = totals.get(key, 0) + value - before[key]
            weighted = {"block_x_commits":
                        system.metrics.block_ratio() * commits,
                        "queue_wait_p95_x_commits": 0.0}
            if system.open_mode:
                weighted["queue_wait_p95_x_commits"] = (
                    system.metrics.queue_wait_sample.percentile(0.95)
                    * commits)
            for key, value in weighted.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals


def add_totals(into: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("kernel.self_us_per_commit", "us", "lower"),
    ("kernel.events_per_commit", "count", "lower"),
    ("kernel.events_per_s", "1/s", "higher"),
    ("resources.self_us_per_commit", "us", "lower"),
    ("resources.claims_per_commit", "count", "lower"),
    ("resources.util_cpu", "fraction", "higher"),
    ("resources.util_data_disk", "fraction", "higher"),
    ("resources.util_log_disk", "fraction", "higher"),
    ("locks.self_us_per_commit", "us", "lower"),
    ("locks.grants_per_commit", "count", "lower"),
    ("locks.waits_per_commit", "count", "lower"),
    ("locks.borrows_per_commit", "count", "lower"),
    ("locks.deadlocks_per_kcommit", "count", "lower"),
    ("locks.block_ratio", "fraction", "lower"),
    ("agents.self_us_per_commit", "us", "lower"),
    ("agents.commit_yield", "fraction", "higher"),
    ("admission.queue_wait_p95_ms", "ms", "lower"),
    ("admission.shed_ratio", "fraction", "lower"),
    ("storage.self_us_per_commit", "us", "lower"),
    ("storage.pages_read_per_commit", "count", "lower"),
    ("storage.pages_written_per_commit", "count", "lower"),
    ("replication.updates_per_commit", "count", "lower"),
    ("replication.skipped_per_commit", "count", "lower"),
    ("network.self_us_per_commit", "us", "lower"),
    ("network.messages_per_commit", "count", "lower"),
    ("network.cross_dc_per_commit", "count", "lower"),
    ("network.drops_per_commit", "count", "lower"),
    ("wal.self_us_per_commit", "us", "lower"),
    ("wal.forced_per_commit", "count", "lower"),
    ("wal.unforced_per_commit", "count", "lower"),
    ("protocol.self_us_per_commit", "us", "lower"),
    ("obs.self_us_per_commit", "us", "lower"),
    ("obs.publishes_per_commit", "count", "lower"),
    ("obs.enum_hash_per_commit", "count", "lower"),
    ("faults.self_us_per_commit", "us", "lower"),
    ("experiments.self_us_per_commit", "us", "lower"),
    ("experiments.points_per_s", "1/s", "higher"),
    ("runtime.self_us_per_commit", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The deterministic per-commit metrics derived from counter totals."""
    commits = totals["commits"]

    def per_commit(key: str) -> float:
        return _ratio(totals[key], commits)

    return {
        "kernel.events_per_commit": per_commit("events"),
        "resources.claims_per_commit": per_commit("claims"),
        "resources.util_cpu": _ratio(totals["busy_ms_cpu"],
                                     totals["capacity_ms_cpu"]),
        "resources.util_data_disk": _ratio(totals["busy_ms_data_disk"],
                                           totals["capacity_ms_data_disk"]),
        "resources.util_log_disk": _ratio(totals["busy_ms_log_disk"],
                                          totals["capacity_ms_log_disk"]),
        "locks.grants_per_commit": per_commit("lock_grants"),
        "locks.waits_per_commit": per_commit("lock_waits"),
        "locks.borrows_per_commit": per_commit("lock_borrows"),
        "locks.deadlocks_per_kcommit": 1000.0 * per_commit("deadlocks"),
        "locks.block_ratio": per_commit("block_x_commits"),
        "agents.commit_yield": _ratio(commits, totals["incarnations"]),
        "admission.queue_wait_p95_ms": per_commit("queue_wait_p95_x_commits"),
        "admission.shed_ratio": _ratio(totals["shed"], totals["offered"]),
        "storage.pages_read_per_commit": per_commit("pages_read"),
        "storage.pages_written_per_commit": per_commit("pages_written"),
        "replication.updates_per_commit": per_commit("replica_updates"),
        "replication.skipped_per_commit": per_commit("replica_skipped"),
        "network.messages_per_commit": per_commit("messages"),
        "network.cross_dc_per_commit": per_commit("cross_dc"),
        "network.drops_per_commit": per_commit("drops"),
        "wal.forced_per_commit": per_commit("wal_forced"),
        "wal.unforced_per_commit": per_commit("wal_unforced"),
    }


def per_layer_metrics(totals: dict[str, float], stats: pstats.Stats,
                      untraced_wall_s: float, traced_wall_s: float,
                      points: int) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``totals`` are the traced pass's counters, ``stats`` its profile;
    rates use the untraced pass's wall time, and ``points`` counts the
    sweep points it ran (0 for workloads that are not sweeps).
    """
    commits = totals["commits"]
    metrics = counter_metrics(totals)
    for layer, seconds in layer_self_seconds(stats).items():
        metrics[f"{layer}.self_us_per_commit"] = _ratio(seconds * 1e6,
                                                         commits)
    metrics["kernel.events_per_s"] = _ratio(totals["events"],
                                            untraced_wall_s)
    metrics["obs.publishes_per_commit"] = _ratio(
        call_count(stats, "/repro/obs/bus.py", "publish"), commits)
    metrics["obs.enum_hash_per_commit"] = _ratio(
        call_count(stats, "/enum.py", "__hash__"), commits)
    metrics["experiments.points_per_s"] = _ratio(points, untraced_wall_s)
    metrics["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    return {name: metrics[name] for name, _unit, _better in PER_LAYER}
