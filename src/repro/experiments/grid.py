"""Declarative sweep grids: the extension studies as presets.

The paper's figures are protocol x MPL grids of independent runs; the
extension studies are grids over other axes.  Each is a :class:`Preset`
of three parts: named **axes** whose values map to ``ModelParams``,
``FaultConfig`` or topology overrides, the **probes** that read a
point's counters off the finished system (:data:`PROBES`), and the
**summary** (title, one table per group, summary lines).
:func:`run_preset` runs every point as a
:class:`~repro.experiments.runner.PointSpec` through the runner the paper
figures use, so ``jobs > 1`` runs any preset on the warm process pool,
byte-identical to a serial run.  Settings are named after the CLI flags
(``--mttr-ms`` is ``mttr_ms``); every point of a sweep shares its seed.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing

from repro.config import ModelParams, WorkloadMode
from repro.core.registry import create_protocol
from repro.db.pages import ReplicationSpec
from repro.db.topology import NetworkTopology, TopologyKind
from repro.experiments.runner import ParallelSweepRunner, PointSpec, ProgressFn
from repro.faults import FaultConfig, FaultTimeouts, RegionPlan, flag_plan
from repro.obs import EventKind

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.system import DistributedSystem, SimulationResult

#: A sweep's settings, plus each axis's value while a point is built.
Context = dict[str, typing.Any]
#: Reads a probe's metrics off the finished system.
Reader = typing.Callable[[], dict[str, typing.Any]]
#: A ``str.format_map`` template, or a callable taking the same mapping.
Template = typing.Union[str, typing.Callable[[typing.Any], str]]


def _fill(template: Template, mapping: typing.Any) -> str:
    return (template(mapping) if callable(template)
            else template.format_map(mapping))


# ----------------------------------------------------------------------
# Probes: run in the worker, return plain (picklable) readings
# ----------------------------------------------------------------------
_INJECTOR_COUNTERS = ("crashes", "recoveries", "messages_dropped",
                      "in_doubt_resolved", "blocked_lock_ms", "dc_crashes",
                      "link_partitions")


def system_counters(system: "DistributedSystem", spec: PointSpec) -> Reader:
    """Fault-injector counters (zeros where none was armed), network
    drops by reason, intra- vs cross-DC messages (whole run), cross-DC
    round trips per commit (measured period), and replica propagations
    shipped and skipped (available copies)."""
    network = system.network
    return lambda: {
        **{name: getattr(system.faults, name, 0)
           for name in _INJECTOR_COUNTERS},
        "drops_by_reason": dict(network.drops_by_reason),
        "cross_dc_messages": network.cross_dc_messages,
        "intra_dc_messages": network.intra_dc_messages,
        "cross_dc_round_trips_per_commit":
            system.metrics.cross_dc_round_trips_per_commit(),
        "replica_updates_sent": system.replica_updates_sent,
        "replica_writes_skipped": system.replica_writes_skipped}


def outage_commits(system: "DistributedSystem", spec: PointSpec) -> Reader:
    """Commits inside and after the window of the point's scheduled
    outage directive, the tps carried inside it, and the ms from heal to
    the first later commit (None if nothing committed after the heal)."""
    assert spec.faults is not None and spec.faults.region is not None
    outage = next(d for d in spec.faults.region.directives
                  if d.is_scheduled)
    heal = outage.at_ms + outage.for_ms
    times: list[float] = []
    system.bus.subscribe(EventKind.TXN_COMMIT,
                         lambda event: times.append(event.time))

    def read() -> dict[str, typing.Any]:
        during = sum(1 for t in times if outage.at_ms <= t < heal)
        after = [t for t in times if t >= heal]
        return {"commits_during": during, "commits_after": len(after),
                "throughput_during": during / (outage.for_ms / 1000.0),
                "recovery_ms": (min(after) - heal) if after else None}
    return read


def stall_window(system: "DistributedSystem", spec: PointSpec) -> Reader:
    """For the point's ``master_stall`` directive: the target's committed
    lock releases from the stall's onset on, the latest of them (its
    unblock latency), and the commits and tps inside the stall.  Raises
    if the target never reached its COMMIT force."""
    assert spec.faults is not None and spec.faults.region is not None
    stall = next(d for d in spec.faults.region.directives
                 if d.kind == "master_stall")
    onset: list[float] = []
    releases: list[float] = []
    commits: list[float] = []
    system.bus.subscribe_map({
        EventKind.SITE_CRASH: lambda event: onset.append(event.time)
        if event.txn_id == stall.txn else None,
        EventKind.LOCK_RELEASE: lambda event: releases.append(event.time)
        if event.committed and event.cohort.txn.txn_id == stall.txn
        else None,
        EventKind.TXN_COMMIT: lambda event: commits.append(event.time)})

    def read() -> dict[str, typing.Any]:
        if not onset:
            raise RuntimeError(
                f"txn {stall.txn} never reached its commit phase; raise "
                f"transactions or lower target_txn_id")
        start, end = onset[0], onset[0] + stall.for_ms
        released = [t for t in releases if t >= start]
        during = sum(1 for t in commits if start <= t <= end)
        return {"target_releases": len(released),
                "unblock_ms": max(released, default=start) - start,
                "commits_during": during,
                "throughput_during": during / (stall.for_ms / 1000.0)}
    return read


PROBES: dict[str, typing.Callable[["DistributedSystem", PointSpec],
                                  Reader]] = {
    "counters": system_counters, "outage": outage_commits,
    "stall": stall_window}


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Table:
    """A row per ``rows`` value, a column per protocol, a table per
    ``group`` value.  Row labels, titled ``head``, are ``head_width``
    wide; columns are "<protocol><suffix>", ``width`` wide plus one per
    protocol-name character past seven; ``cell`` fills from a point;
    ``note`` is a line under each table."""

    rows: str
    head: str
    head_width: int
    row: Template
    suffix: str
    width: int
    cell: Template
    group: str | None = None
    group_title: Template = ""
    note: typing.Callable[["GridResults", typing.Any], str] | None = None


@dataclasses.dataclass(frozen=True)
class Preset:
    """A named sweep.  ``axes`` maps each axis, in loop order, to the
    setting that lists its values; ``params`` and ``faults`` build a
    point's ``ModelParams`` and ``FaultConfig`` overrides from the
    settings and the point's axis values (no ``faults``: no fault
    plane); ``prepare`` validates the settings first.  ``warmup`` is the
    warm-up transactions per point (None: the ``simulate`` default)."""

    name: str
    defaults: dict[str, typing.Any]
    axes: dict[str, str]
    params: typing.Callable[[Context], dict[str, typing.Any]]
    label: Template
    title: Template
    table: Table
    lines: typing.Callable[["GridResults"], list[str]]
    probes: tuple[str, ...] = ("counters",)
    faults: typing.Callable[[Context], dict[str, typing.Any]] | None = None
    prepare: typing.Callable[[Context], None] | None = None
    warmup: int | None = None


@dataclasses.dataclass
class GridPoint:
    """One finished point: its axis values, result and probe readings;
    ``point[metric]`` is a reading, else a result field."""

    values: dict[str, typing.Any]
    result: "SimulationResult"
    readings: dict[str, typing.Any]

    def __getitem__(self, metric: str) -> typing.Any:
        if metric in self.readings:
            return self.readings[metric]
        return getattr(self.result, metric)


@dataclasses.dataclass
class GridResults:
    """All points of one preset sweep, in run order, with rendering."""

    preset: Preset
    settings: Context
    points: dict[tuple[typing.Any, ...], GridPoint]

    def values(self, axis: str) -> tuple[typing.Any, ...]:
        return self.settings[self.preset.axes[axis]]

    def point(self, **values: typing.Any) -> GridPoint:
        """The point at the given value of every axis."""
        return self.points[tuple(values[axis] for axis in self.preset.axes)]

    def select(self, **values: typing.Any) -> list[GridPoint]:
        """Points matching the given axis values, in run order."""
        return [point for point in self.points.values()
                if all(point.values[k] == v for k, v in values.items())]

    def table(self, group: typing.Any = None) -> str:
        spec = self.preset.table
        protocols = self.settings["protocols"]
        width = spec.width + max(0, max(map(len, protocols)) - 7)
        header = f"{spec.head:>{spec.head_width}} " + "".join(
            f"{p + spec.suffix:>{width}}" for p in protocols)
        fixed = {} if spec.group is None else {spec.group: group}
        lines = ([] if spec.group is None else
                 [_fill(spec.group_title, {**self.settings, **fixed})])
        lines += [header, "-" * len(header)]
        for value in self.values(spec.rows):
            at = {**fixed, spec.rows: value}
            label = _fill(spec.row, {**self.settings, **at})
            lines.append(f"{label:>{spec.head_width}} " + "".join(
                f"{_fill(spec.cell, self.point(protocol=p, **at)):>{width}}"
                for p in protocols))
        return "\n".join(lines)

    def summary(self) -> str:
        spec = self.preset.table
        lines = [_fill(self.preset.title, self.settings)]
        for group in (self.values(spec.group) if spec.group else (None,)):
            lines.append(self.table(group))
            if spec.note is not None:
                lines.append(spec.note(self, group))
        return "\n".join(lines + self.preset.lines(self))


def plan(name: str, **settings: typing.Any,
         ) -> tuple[Context, list[tuple[tuple[typing.Any, ...], PointSpec]]]:
    """Resolve ``settings`` over the preset's defaults and build every
    point's spec in loop order, paired with its axis values.  Nothing
    runs: a bad setting fails here with a ``ValueError``."""
    preset = PRESETS[name]
    unknown = sorted(set(settings) - set(preset.defaults))
    if unknown:
        raise TypeError(f"{name} has no setting(s) {', '.join(unknown)}")
    context = {**preset.defaults, **settings}
    for setting in preset.axes.values():
        context[setting] = tuple(context[setting])
        if not context[setting]:
            raise ValueError(f"{setting} must be non-empty")
    if preset.prepare is not None:
        preset.prepare(context)
    base = context["params"] or ModelParams()
    grid = []
    for combo in itertools.product(*(context[setting]
                                     for setting in preset.axes.values())):
        point = {**context, **dict(zip(preset.axes, combo))}
        params = base.replace(**preset.params(point))
        faults = None
        if preset.faults is not None:
            faults = FaultConfig(**preset.faults(point))
            faults.validate()
        create_protocol(point["protocol"])  # unknown names fail here
        grid.append((combo, PointSpec(
            protocol=point["protocol"], mpl=params.mpl, rep=0,
            params=params, measured_transactions=context["transactions"],
            warmup_transactions=preset.warmup, seed=context["seed"],
            faults=faults, probes=preset.probes,
            tag=_fill(preset.label, point))))
    return context, grid


def run_preset(name: str, progress: ProgressFn | None = None, jobs: int = 1,
               **settings: typing.Any) -> GridResults:
    """Run one preset; ``settings`` override its defaults.  ``jobs > 1``
    runs the points on the warm shared pool, with results identical to
    ``jobs=1``; ``progress`` gets each point's label as it completes."""
    preset = PRESETS[name]
    context, grid = plan(name, **settings)
    outputs = ParallelSweepRunner(jobs=jobs, progress=progress).run(
        [spec for _, spec in grid])
    points = {}
    for (combo, _), (result, readings) in zip(grid, outputs):
        points[combo] = GridPoint(dict(zip(preset.axes, combo)), result,
                                  readings)
    return GridResults(preset, context, points)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
#: region directive per outage shape: DC 0 down, or DCs 0|1 cut apart.
OUTAGES = {"dc_crash": "dc_crash:0", "partition": "partition:0|1"}


def _settings(**defaults: typing.Any) -> dict[str, typing.Any]:
    """Preset defaults over the settings every preset shares."""
    return {"protocols": ("2PC", "PA", "PC", "3PC", "OPT"), "mpl": 2,
            "params": None, "transactions": 300, "seed": 20250705,
            **defaults}


def _drops(points: list[GridPoint]) -> str:
    """The drop split summed over ``points``, e.g. "loss=3, site_down=1"."""
    total: collections.Counter[str] = collections.Counter()
    for point in points:
        total.update(point["drops_by_reason"])
    return ", ".join(f"{r}={c}" for r, c in sorted(total.items()))


def _ranked(results: GridResults, metric: str, **at: typing.Any) -> str:
    """Protocols in ascending ``metric`` order at one grid position."""
    return " < ".join(sorted(
        results.settings["protocols"],
        key=lambda p: results.point(protocol=p, **at)[metric]))


def _outage_topology(context: Context, who: str, why: str) -> None:
    """Parse and check the multi-DC topology an outage hits."""
    topology = context["topology"]
    if isinstance(topology, str):
        topology = NetworkTopology.parse(topology)
    if topology.kind is not TopologyKind.DCS:
        raise ValueError(f"{who} needs a dcs:<D>x<S> topology ({why}), "
                         f"got {context['topology']!r}")
    if topology.num_dcs < 2:
        raise ValueError(f"{who} needs at least 2 datacenters")
    context["topology"] = topology


def _on_topology(c: Context) -> dict[str, typing.Any]:
    topology = c["topology"]
    return {"num_sites": topology.num_dcs * topology.sites_per_dc,
            "mpl": c["mpl"], "network_topology": topology}


# -- availability: protocol x site MTTF (0 = failure-free) -------------
def _mttf_s(mttf_ms: float) -> str:
    return "inf" if mttf_ms == 0 else f"{mttf_ms / 1000:.0f}"


def _availability_lines(results: GridResults) -> list[str]:
    lines = []
    for protocol in results.settings["protocols"]:
        points = results.select(protocol=protocol)
        split = _drops(points)
        total = {key: sum(point[key] for point in points) for key in (
            "crashes", "messages_dropped", "in_doubt_resolved")}
        lines.append(
            f"{protocol:>8}: {total['crashes']} crashes survived, "
            f"{total['messages_dropped']} messages dropped"
            f"{f' ({split})' if split else ''}, "
            f"{total['in_doubt_resolved']} in-doubt transactions resolved")
    return lines


AVAILABILITY = Preset(
    name="availability",
    defaults=_settings(mttfs=(0.0, 400_000.0, 200_000.0, 100_000.0),
                       mttr_ms=5_000.0, msg_loss=0.0),
    axes={"protocol": "protocols", "mttf_ms": "mttfs"},
    params=lambda c: {"mpl": c["mpl"]},
    faults=lambda c: {"region": flag_plan(
        mttf_ms=c["mttf_ms"], mttr_ms=c["mttr_ms"], loss=c["msg_loss"])},
    warmup=0,
    label=lambda c: f"availability: {c['protocol']} @ MTTF " + (
        "inf" if c["mttf_ms"] == 0 else f"{_mttf_s(c['mttf_ms'])}s"),
    title="== availability: throughput vs site MTTF ==",
    table=Table(rows="mttf_ms", head="MTTF(s)", head_width=9,
                row=lambda c: _mttf_s(c["mttf_ms"]), suffix="",
                width=8, cell="{throughput:.2f}"),
    lines=_availability_lines,
)


# -- saturation: protocol x per-site arrival rate (open system) --------
def _saturation_lines(results: GridResults) -> list[str]:
    rates = results.values("rate")
    lines = []
    for protocol in results.settings["protocols"]:
        knee = next((rate for rate in rates if results.point(
            protocol=protocol, rate=rate)["shed_ratio"] > 0.01), None)
        lines.append(f"{protocol:>8}: no shedding up to {rates[-1]:.2f} "
                     f"txns/s/site" if knee is None else
                     f"{protocol:>8}: sheds load from {knee:.2f} txns/s/site")
    return lines


SATURATION = Preset(
    name="saturation",
    #: rates bracket the baseline's ~1.6 txns/s/site ceiling at mpl=8:
    #: linear region, knee, saturation, deep overload (load is shed).
    defaults=_settings(rates=(0.5, 1.0, 1.5, 2.0, 3.0, 5.0), mpl=8,
                       skew=None, queue_limit=64),
    axes={"protocol": "protocols", "rate": "rates"},
    params=lambda c: {"workload_mode": WorkloadMode.OPEN,
                      "arrival_rate_tps": c["rate"],
                      "admission_queue_limit": c["queue_limit"],
                      "skew": c["skew"], "mpl": c["mpl"]},
    label="saturation: {protocol} @ {rate:.2f} txns/s/site",
    title="== saturation: carried load vs offered load (per-site txns/s) ==",
    table=Table(rows="rate", head="rate/site", head_width=10,
                row="{rate:.2f}", suffix=" (car/shed/p95)", width=20,
                cell="{throughput:.2f}/{shed_ratio:.2f}"
                     "/{response_p95_ms:.0f}ms"),
    lines=_saturation_lines,
)


# -- wan: placement x protocol x cross-DC RTT ---------------------------
def _wan_prepare(context: Context) -> None:
    for placement in context["placements"]:
        if placement not in ("spread", "local"):
            raise ValueError(f"unknown placement {placement!r}; expected "
                             f"'spread' or 'local'")
    num_sites = (context["params"] or ModelParams()).num_sites
    if context["dcs"] and num_sites % context["dcs"]:
        raise ValueError(f"num_sites={num_sites} does not split into "
                         f"{context['dcs']} equal datacenters")


def _wan_params(c: Context) -> dict[str, typing.Any]:
    """``dcs`` datacenters of ``num_sites / dcs`` sites each."""
    num_sites = (c["params"] or ModelParams()).num_sites
    return {"mpl": c["mpl"],
            "prefer_local_cohorts": c["placement"] == "local",
            "network_topology": NetworkTopology(
                kind=TopologyKind.DCS, num_dcs=c["dcs"],
                sites_per_dc=num_sites // c["dcs"] if c["dcs"] else 0,
                rtt_ms=c["rtt_ms"])}


def _wan_lines(results: GridResults) -> list[str]:
    top = results.values("rtt_ms")[-1]
    return [f"at rtt={top:.0f}ms, {placement}: fastest commit "
            + _ranked(results, "response_time_ms", rtt_ms=top,
                      placement=placement)
            for placement in results.values("placement")]


WAN = Preset(
    name="wan",
    defaults=_settings(rtts=(0.0, 10.0, 40.0, 100.0),
                       placements=("spread", "local"), dcs=2),
    axes={"placement": "placements", "protocol": "protocols",
          "rtt_ms": "rtts"},
    params=_wan_params,
    prepare=_wan_prepare,
    label="wan: {protocol} @ rtt={rtt_ms:.0f}ms ({placement})",
    title="== wan: commit latency vs cross-DC round-trip time ==",
    table=Table(rows="rtt_ms", head="rtt", head_width=8, row="{rtt_ms:.0f}ms",
                suffix=" (resp/xdc-rt)", width=18,
                cell="{response_time_ms:.0f}ms"
                     "/{cross_dc_round_trips_per_commit:.1f}",
                group="placement", group_title="-- placement: {placement} --"),
    lines=_wan_lines,
)


# -- region-outage: outage shape x protocol x duration ------------------
def _region_prepare(context: Context) -> None:
    for outage in context["outages"]:
        if outage not in OUTAGES:
            raise ValueError(f"unknown outage {outage!r}; expected one of "
                             f"{', '.join(OUTAGES)}")
    for duration in context["durations"]:
        if duration <= 0:
            raise ValueError(
                f"outage durations must be positive, got {duration}")
    _outage_topology(context, "region-outage",
                     "datacenter boundaries define the blast radius")


def _region_lines(results: GridResults) -> list[str]:
    outages, top = results.values("outage"), results.values("duration_ms")[-1]
    lines = [f"at {outage} for {top:.0f}ms: least blocking "
             + _ranked(results, "blocked_lock_ms", outage=outage,
                       duration_ms=top) for outage in outages]
    if {"2PC", "3PC"} <= set(results.settings["protocols"]) \
            and "dc_crash" in outages:
        blocking, skeen = (results.point(
            protocol=p, outage="dc_crash", duration_ms=top)["blocked_lock_ms"]
            for p in ("2PC", "3PC"))
        lines.append(f"coordinator-side DC loss ({top:.0f}ms): 2PC blocked "
                     f"{blocking:.0f}ms vs 3PC {skeen:.0f}ms -- the "
                     f"termination protocol is what non-blocking buys")
    return lines


def _region_cell(point: GridPoint) -> str:
    recovery = point["recovery_ms"]
    return (f"{point['blocked_lock_ms']:.0f}ms/"
            f"{point['throughput_during']:.1f}/"
            + ("-" if recovery is None else f"{recovery:.0f}ms"))


REGION_OUTAGE = Preset(
    name="region-outage",
    defaults=_settings(outages=tuple(OUTAGES), durations=(2000.0, 4000.0),
                       topology="dcs:2x2:rtt_ms=5", at_ms=1000.0,
                       transactions=40, seed=7),
    axes={"outage": "outages", "protocol": "protocols",
          "duration_ms": "durations"},
    params=_on_topology,
    faults=lambda c: {"region": RegionPlan.parse(
        f"{OUTAGES[c['outage']]}:at={c['at_ms']}:for={c['duration_ms']}")},
    probes=("counters", "outage"),
    prepare=_region_prepare,
    label="region-outage: {protocol} {outage} for {duration_ms:.0f}ms",
    title=lambda c: (f"== region-outage: correlated failures over "
                     f"{c['topology'].describe()} =="),
    table=Table(rows="duration_ms", head="outage for", head_width=12,
                row="{duration_ms:.0f}ms", suffix=" (blk/tps/rec)",
                width=24, cell=_region_cell, group="outage",
                group_title="-- outage: {outage} at t={at_ms:.0f}ms --",
                note=lambda results, outage: "   dropped messages by reason: "
                + (_drops(results.select(outage=outage)) or "none")),
    lines=_region_lines,
)


# -- replication: site MTTF x replication factor x protocol -------------
def _replication_prepare(context: Context) -> None:
    _outage_topology(context, "replication sweep",
                     "the DC outage defines the blast radius")
    for factor in context["factors"]:
        ReplicationSpec(factor).validate(_on_topology(context)["num_sites"])
    for mttf in context["mttfs"]:
        if mttf < 0:
            raise ValueError(f"MTTF must be >= 0, got {mttf}")
    if context["outage_ms"] <= 0:
        raise ValueError(
            f"outage duration must be positive, got {context['outage_ms']}")


def _replication_lines(results: GridResults) -> list[str]:
    top_factor, top_mttf = (results.values("factor")[-1],
                            results.values("mttf_ms")[-1])
    points = results.points.values()
    return [f"at R={top_factor}: least blocking "
            + _ranked(results, "blocked_lock_ms", factor=top_factor,
                      mttf_ms=top_mttf),
            f"replica propagations: "
            f"{sum(p['replica_updates_sent'] for p in points)} shipped, "
            f"{sum(p['replica_writes_skipped'] for p in points)} skipped "
            f"(available copies)"]


REPLICATION = Preset(
    name="replication",
    #: mttfs: 0 = only the scheduled DC outage, no extra site crashes.
    defaults=_settings(protocols=("2PC", "3PC", "PAXOS"), factors=(1, 2, 3),
                       mttfs=(0.0, 60_000.0), topology="dcs:2x2:rtt_ms=5",
                       at_ms=1000.0, outage_ms=1500.0, mttr_ms=2000.0,
                       transactions=40, seed=7),
    axes={"mttf_ms": "mttfs", "factor": "factors", "protocol": "protocols"},
    params=lambda c: {**_on_topology(c), "replication": ReplicationSpec(
        c["factor"]) if c["factor"] > 1 else None},
    faults=lambda c: {"region": flag_plan(
        mttf_ms=c["mttf_ms"], mttr_ms=c["mttr_ms"], plan=RegionPlan.parse(
            f"dc_crash:0:at={c['at_ms']}:for={c['outage_ms']}"))},
    probes=("counters", "outage"),
    prepare=_replication_prepare,
    label="replication: {protocol} R={factor} mttf={mttf_ms:.0f}ms",
    title=lambda c: (f"== replication: quorum commit over replicated pages "
                     f"({c['topology'].describe()}, DC 0 outage) =="),
    table=Table(rows="factor", head="replication", head_width=12,
                row="R={factor}", suffix=" (blk/tps)", width=20,
                cell="{blocked_lock_ms:.0f}ms/{throughput_during:.1f}",
                group="mttf_ms", group_title=lambda c: "-- site faults: " + (
                    "outage only" if c["mttf_ms"] == 0
                    else f"MTTF {c['mttf_ms']:.0f}ms") + " --"),
    lines=_replication_lines,
)


# -- blocking: protocol x master stall length (Section 2.4, X1) --------
def _blocking_lines(results: GridResults) -> list[str]:
    return [f"{point.values['protocol']:>4}: cohorts blocked for "
            f"{point['unblock_ms']:8.1f} ms after the stall; throughput "
            f"during the {point.values['outage_ms'] / 1000:g}s stall "
            f"{point['throughput_during']:6.2f} txn/s"
            for point in results.points.values()]


BLOCKING = Preset(
    name="blocking",
    #: X1's scenario: the master of txn 40 stalls with every cohort in
    #: its decision wait; 3PC's cohorts time out after 500 ms and
    #: terminate without it, 2PC/PA/PC cohorts block out the stall.
    defaults=_settings(protocols=("2PC", "PA", "PC", "3PC"),
                       outages=(20_000.0,), target_txn_id=40,
                       decision_timeout_ms=500.0, mpl=4, transactions=600),
    axes={"protocol": "protocols", "outage_ms": "outages"},
    params=lambda c: {"mpl": c["mpl"]},
    faults=lambda c: {
        "region": RegionPlan.parse(
            f"master_stall:{c['target_txn_id']}:for={c['outage_ms']}"),
        "timeouts": FaultTimeouts(
            decision_timeout_ms=c["decision_timeout_ms"])},
    probes=("stall",),
    warmup=0,
    label="blocking: {protocol} master stalled {outage_ms:.0f}ms",
    title="== blocking: txn {target_txn_id}'s master stalls before its "
          "COMMIT force ==",
    table=Table(rows="outage_ms", head="stall", head_width=8,
                row="{outage_ms:.0f}ms", suffix=" (unblk/tps)", width=18,
                cell="{unblock_ms:.0f}ms/{throughput_during:.2f}"),
    lines=_blocking_lines,
)


PRESETS: dict[str, Preset] = {preset.name: preset for preset in (
    AVAILABILITY, SATURATION, WAN, REGION_OUTAGE, REPLICATION, BLOCKING)}
