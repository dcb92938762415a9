"""The benchmark's four workloads, driven through repro's public API.

Each workload runs in *repetitions*: one repetition is one simulated
run (a closed-loop system, one E2 sweep, or one soak) with its own
seed, built outside the timed region and run inside it.  A repetition
returns the commits it made, the checks its outputs failed, a digest of
its simulated results, and -- when its systems ran in this process --
the ledger's counter totals.

| Workload        | Drives                               | Loop               |
|-----------------|--------------------------------------|--------------------|
| closed-rcdc     | ``repro.build_system`` + ``run``     | closed, 32 clients |
| sweep-puredc    | E2 through the sweep runner, jobs=2  | closed, per point  |
| open-wan-soak   | ``SoakRunner``                       | open, 8 txn/s      |
| faulted-paxos   | ``repro.build_system`` + ``run``     | closed, 12 clients |
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import time
import typing

import repro
from repro.experiments import get_experiment, shutdown_pool
from repro.experiments.overheads import expected_overheads
from repro.experiments.pool import get_pool
from repro.experiments.soak import SoakConfig, SoakRunner
from repro.faults import FaultConfig
from repro.faults.region import RegionPlan

from ledger import SystemRecorder


class Timer:
    """Times the regions it is entered for; optionally profiles them."""

    def __init__(self, profiler: typing.Any = None) -> None:
        self.profiler = profiler
        self.wall_s = 0.0
        self.last_s = 0.0

    @contextlib.contextmanager
    def timed(self) -> typing.Iterator[None]:
        if self.profiler is not None:
            self.profiler.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.last_s = time.perf_counter() - start
            if self.profiler is not None:
                self.profiler.disable()
            self.wall_s += self.last_s


@dataclasses.dataclass
class Rep:
    """What one repetition did and how its outputs checked out."""

    commits: int
    wall_s: float
    #: units (see :attr:`Workload.units`) whose output checks failed.
    failed: int
    #: one line per failed output check.
    problems: list[str]
    #: sha256 of the simulated results (information only).
    digest: str
    #: ledger counter totals; None when the systems ran in workers.
    totals: dict[str, float] | None
    #: sweep points run (0 for workloads that are not sweeps).
    points: int = 0


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_overheads(label: str, protocol: str, overheads: typing.Any,
                     dist_degree: int) -> list[str]:
    expected = expected_overheads(protocol, dist_degree).as_tuple()
    measured = (overheads.execution_messages, overheads.forced_writes,
                overheads.commit_messages)
    if measured != tuple(float(value) for value in expected):
        return [f"{label}: overheads {measured} != Table 3/4 row "
                f"{expected} for {protocol} at D={dist_degree}"]
    return []


class Workload:
    """Interface every workload implements."""

    name: str = ""
    #: repetitions of a traced run (fixed, so its counters repeat).
    trace_reps: int = 1
    #: units of work a repetition attempts: 1 run, or one per sweep point.
    units: int = 1

    def manifest(self) -> dict:
        raise NotImplementedError

    def setup(self, serial: bool) -> None:
        """Process-level set-up before the first repetition."""

    def teardown(self) -> None:
        """Stop anything :meth:`setup` started."""

    def first_event(self, seed: int) -> None:
        """Build the first system and process its first event."""
        raise NotImplementedError

    def rep(self, seed: int, timer: Timer, serial: bool) -> Rep:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Closed-loop single systems: closed-rcdc and faulted-paxos
# ----------------------------------------------------------------------
class ClosedRun(Workload):
    """One closed-loop system per repetition, run with
    :meth:`DistributedSystem.run`."""

    def __init__(self, name: str, protocol: str, params: repro.ModelParams,
                 measured: int, warmup: int, trace_reps: int,
                 faults: FaultConfig | None = None,
                 table_protocol: str | None = None) -> None:
        self.name = name
        self.protocol = protocol
        self.params = params
        self.measured = measured
        self.warmup = warmup
        self.trace_reps = trace_reps
        self.faults = faults
        #: protocol whose Table 3/4 row the run must reproduce (None
        #: where faults legitimately change the per-commit counts).
        self.table_protocol = table_protocol

    def manifest(self) -> dict:
        return {"protocol": self.protocol,
                "measured_transactions": self.measured,
                "warmup_transactions": self.warmup,
                "params": dataclasses.asdict(self.params),
                "faults": (dataclasses.asdict(self.faults)
                           if self.faults is not None else None)}

    def build(self, seed: int) -> repro.DistributedSystem:
        return repro.build_system(self.protocol, self.params, seed=seed,
                                  faults=self.faults)

    def first_event(self, seed: int) -> None:
        system = self.build(seed)
        system.start()
        system.env.step()

    def rep(self, seed: int, timer: Timer, serial: bool) -> Rep:
        system = self.build(seed)
        with SystemRecorder() as recorder, timer.timed():
            result = system.run(measured_transactions=self.measured,
                                warmup_transactions=self.warmup)
        label = f"{self.name} seed {seed}"
        problems = []
        if result.committed < self.measured:
            problems.append(f"{label}: committed {result.committed} < "
                            f"target {self.measured}")
        if self.table_protocol is not None:
            problems += _check_overheads(label, self.table_protocol,
                                         result.overheads,
                                         self.params.dist_degree)
        network = system.network
        if network.messages_dropped != sum(network.drops_by_reason.values()):
            problems.append(f"{label}: messages_dropped "
                            f"{network.messages_dropped} != sum of "
                            f"drops_by_reason {network.drops_by_reason}")
        return Rep(commits=system.completed_total, wall_s=timer.last_s,
                   failed=bool(problems), problems=problems,
                   digest=_digest(dataclasses.asdict(result)),
                   totals=recorder.totals())


def closed_rcdc(**overrides: object) -> ClosedRun:
    """2PC on the paper's RC+DC baseline at MPL 4 (``overrides`` change
    model parameters, e.g. to attach an inactive plane)."""
    return ClosedRun("closed-rcdc", "2PC",
                     repro.baseline_rc_dc(mpl=4, **overrides),
                     measured=1000, warmup=100, trace_reps=2,
                     table_protocol="2PC")


def faulted_paxos() -> ClosedRun:
    params = repro.ModelParams(
        num_sites=6, mpl=2,
        network_topology=repro.NetworkTopology.parse("dcs:3x2:rtt_ms=10"),
        replication=repro.ReplicationSpec.parse("2:chain"))
    faults = FaultConfig(
        mttf_ms=30_000.0, mttr_ms=2_000.0,
        region=RegionPlan.parse("dc_crash:0:mttf=60000:mttr=3000"))
    return ClosedRun("faulted-paxos", "PAXOS:f=1", params,
                     measured=500, warmup=50, trace_reps=2, faults=faults)


# ----------------------------------------------------------------------
# sweep-puredc: the E2 grid through the experiment sweep runner
# ----------------------------------------------------------------------
class SweepPureDC(Workload):
    """Experiment 2 (infinite resources, seven protocols) at MPL 2, 6
    and 10, one sweep per repetition."""

    name = "sweep-puredc"
    trace_reps = 1
    experiment = "E2"
    mpls = (2, 6, 10)
    measured = 60
    warmup = 20

    def __init__(self) -> None:
        self.definition = get_experiment(self.experiment)
        self.params = self.definition.params_factory(self.mpls[0])
        self.units = len(self.definition.protocols) * len(self.mpls)
        self.jobs = max(1, min(2, os.cpu_count() or 1))

    def manifest(self) -> dict:
        return {"experiment": self.experiment,
                "protocols": list(self.definition.protocols),
                "mpls": list(self.mpls), "jobs": self.jobs,
                "measured_transactions": self.measured,
                "warmup_transactions": self.warmup,
                "params": dataclasses.asdict(self.params)}

    def setup(self, serial: bool) -> None:
        if not serial and self.jobs > 1:
            # Start the warm pool and wait for one task: under the fork
            # start method every worker is launched on the first submit.
            get_pool(self.jobs).submit(os.getpid).result()

    def teardown(self) -> None:
        shutdown_pool()

    def first_event(self, seed: int) -> None:
        self.setup(serial=False)
        protocol = self.definition.protocols[0]
        system = repro.build_system(protocol, self.params, seed=seed)
        system.start()
        system.env.step()

    def rep(self, seed: int, timer: Timer, serial: bool) -> Rep:
        sweep = self.definition.sweep(
            measured_transactions=self.measured,
            warmup_transactions=self.warmup, mpls=self.mpls,
            base_seed=seed)
        jobs = 1 if serial else self.jobs
        # Systems only run in this process on the serial path.
        recorder = SystemRecorder() if jobs == 1 else None
        with recorder or contextlib.nullcontext(), timer.timed():
            results = sweep.run(self.experiment, jobs=jobs)
        problems = []
        commits = 0
        failed_points = 0
        payload = []
        for (protocol, mpl), point in sorted(results.points.items()):
            result = point.result
            label = f"{self.name} seed {seed} {protocol}@{mpl}"
            point_problems = _check_overheads(
                label, protocol, result.overheads, self.params.dist_degree)
            if result.committed < self.measured:
                point_problems.append(f"{label}: committed "
                                      f"{result.committed} < target "
                                      f"{self.measured}")
            failed_points += bool(point_problems)
            problems += point_problems
            commits += result.committed + self.warmup
            payload.append(dataclasses.asdict(result))
        return Rep(commits=commits, wall_s=timer.last_s,
                   failed=failed_points, problems=problems,
                   digest=_digest(payload),
                   totals=recorder.totals() if recorder else None,
                   points=len(results.points))


# ----------------------------------------------------------------------
# open-wan-soak: open loop through the soak runner
# ----------------------------------------------------------------------
class OpenWanSoak(Workload):
    """OPT under Poisson arrivals on two 40 ms-RTT datacenters with a
    hotspot, through :class:`SoakRunner` with drain-barrier
    checkpoints."""

    name = "open-wan-soak"
    trace_reps = 1
    protocol = "OPT"
    transactions = 2000
    checkpoint_every = 1000
    window_ms = 10_000.0

    def __init__(self, scratch: pathlib.Path) -> None:
        self.scratch = scratch
        self.params = repro.open_system(
            arrival_rate_tps=1.0, mpl=8,
            skew=repro.AccessSkew.parse("hotspot:20:80"),
            network_topology=repro.NetworkTopology.parse(
                "dcs:2x4:rtt_ms=40"))

    def config(self, seed: int) -> SoakConfig:
        return SoakConfig(protocol=self.protocol, params=self.params,
                          transactions=self.transactions, seed=seed,
                          window_ms=self.window_ms,
                          checkpoint_every=self.checkpoint_every)

    def manifest(self) -> dict:
        config = self.config(0).fingerprint()
        config.pop("seed")
        return config

    def first_event(self, seed: int) -> None:
        from repro.core import create_protocol
        config = self.config(seed)
        system = repro.DistributedSystem(
            config.params, create_protocol(config.protocol), seed=seed,
            percentile_sample_cap=config.sample_cap, wal_retention=False)
        system.start()
        system.env.step()

    def rep(self, seed: int, timer: Timer, serial: bool) -> Rep:
        out = self.scratch / f"soak-{seed}.jsonl"
        runner = SoakRunner(self.config(seed), out)
        try:
            with SystemRecorder() as recorder, timer.timed():
                summary = runner.run()
            raw = out.read_bytes()
        finally:
            out.unlink(missing_ok=True)
        label = f"{self.name} seed {seed}"
        problems = []
        if summary["committed"] < self.transactions or \
                summary["interrupted"]:
            problems.append(f"{label}: committed {summary['committed']} "
                            f"< target {self.transactions}")
        lines = [json.loads(line) for line in raw.decode().splitlines()]
        rows = [line for line in lines if "window" in line]
        if [row["window"] for row in rows] != list(range(len(rows))) or \
                any(row["t_start_ms"] != index * self.window_ms
                    for index, row in enumerate(rows)):
            problems.append(f"{label}: windows are not gapless")
        if not rows or lines[-1].get("meta", {}).get("complete") is not True:
            problems.append(f"{label}: soak stream has no rows or no "
                            f"completion trailer")
        # Soak segments carry their metrics forward, so the last
        # segment's collector covers the whole run.
        last_system = recorder.started[-1][0]
        problems += _check_overheads(label, self.protocol,
                                     last_system.result().overheads,
                                     self.params.dist_degree)
        return Rep(commits=summary["committed"], wall_s=timer.last_s,
                   failed=bool(problems), problems=problems,
                   digest=hashlib.sha256(raw).hexdigest(),
                   totals=recorder.totals())


def make(name: str, scratch: pathlib.Path) -> Workload:
    """The workload called ``name``; ``scratch`` holds soak output."""
    if name == "closed-rcdc":
        return closed_rcdc()
    if name == "sweep-puredc":
        return SweepPureDC()
    if name == "open-wan-soak":
        return OpenWanSoak(scratch)
    if name == "faulted-paxos":
        return faulted_paxos()
    raise ValueError(f"unknown workload {name!r}")
