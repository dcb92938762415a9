"""Command-line interface.

Examples::

    repro-commit list
    repro-commit run E1 --transactions 1000 --mpls 1,2,4,8
    repro-commit run E5-DC
    repro-commit tables --transactions 80
    repro-commit simulate OPT --mpl 6 --transactions 2000
    repro-commit simulate 2PC --open --arrival-rate 1.5 --skew hotspot:10:90
    repro-commit saturation --rates 0.5,1,1.5,2 --skew zipf:0.8
    repro-commit soak --transactions 1000000 --out soak.jsonl
    repro-commit soak --resume --out soak.jsonl
    repro-commit simulate 2PC --topology dcs:2x2:rtt_ms=5 \\
        --fault-plan dc_crash:0:at=1000:for=3000
    repro-commit region-outage --protocols 2PC,3PC --topology \\
        dcs:3x2:rtt_ms=5
    repro-commit simulate PAXOS --topology dcs:2x2:rtt_ms=5 \\
        --replication 2
    repro-commit replication --protocols 2PC,3PC,PAXOS --factors 1,2,3
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
import typing

import repro
from repro.config import DEFAULT_OPEN_ARRIVAL_TPS
from repro.analysis.tables import render_comparison
from repro.db.pages import ReplicationSpec
from repro.db.topology import NetworkTopology
from repro.db.workload import AccessSkew, RateCurve
from repro.experiments import get_experiment
from repro.experiments.grid import PRESETS, run_preset
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.overheads import render_table
from repro.experiments.runner import resolve_jobs
from repro.faults import FaultConfig, RegionPlan, flag_plan


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs wants an integer, got {text!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 1 (or 0 for all cores), got {jobs}")
    return jobs


def _parse_target_ci(text: str) -> float:
    try:
        target = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--target-ci wants a number, got {text!r}")
    if not 0.0 < target < 1.0:
        raise argparse.ArgumentTypeError(
            f"--target-ci wants a relative half-width in (0, 1), "
            f"got {target}")
    return target


def _parse_mpls(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--mpls wants comma-separated integers, got {text!r}")


def _spec(parse: typing.Callable[[str], typing.Any]):
    """argparse ``type=`` for a spec class's ``parse``: its ValueError
    becomes the usage error, message unchanged."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error))
    return convert


def _parse_factors(text: str) -> tuple[int, ...]:
    try:
        factors = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--factors wants comma-separated integers, got {text!r}")
    if not factors or any(factor < 1 for factor in factors):
        raise argparse.ArgumentTypeError(
            f"--factors wants replication factors >= 1, got {text!r}")
    return factors


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--rates wants comma-separated numbers, got {text!r}")
    if not rates or any(rate <= 0 for rate in rates):
        raise argparse.ArgumentTypeError(
            f"--rates wants positive arrival rates, got {text!r}")
    return rates


def _add_open_args(parser: argparse.ArgumentParser) -> None:
    """Open-system workload flags (simulate and run)."""
    parser.add_argument("--open", action="store_true",
                        help="open-system mode: per-site Poisson arrivals "
                             "feed a bounded admission queue; mpl becomes "
                             "the per-site concurrency cap")
    parser.add_argument("--arrival-rate", type=float, default=None,
                        metavar="TPS",
                        help="per-site arrival rate in txns/s (with "
                             f"--open; default {DEFAULT_OPEN_ARRIVAL_TPS})")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="per-site admission queue bound; arrivals "
                             "beyond it are shed (with --open)")
    parser.add_argument("--skew", type=_spec(AccessSkew.parse), default=None,
                        metavar="SPEC",
                        help="page-access skew: 'uniform', "
                             "'hotspot:<page%%>:<access%%>' (e.g. "
                             "hotspot:10:90), or 'zipf:<theta>'; applies "
                             "in closed mode too")
    _add_topology_args(parser)


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    """Network-topology flags (see docs/MODEL.md)."""
    parser.add_argument("--topology", type=_spec(NetworkTopology.parse),
                        default=None, metavar="SPEC",
                        help="network topology: 'uniform' (the paper's "
                             "zero-latency switch, the default), "
                             "'dcs:<D>x<S>:rtt_ms=<ms>' (e.g. "
                             "dcs:2x4:rtt_ms=40), or "
                             "'matrix:<ms>,..;..' per-link latencies")
    parser.add_argument("--local-cohorts", action="store_true",
                        help="prefer cohort sites in the master's own "
                             "datacenter (requires a multi-DC --topology)")
    parser.add_argument("--replication", type=_spec(ReplicationSpec.parse),
                        default=None, metavar="SPEC",
                        help="page replication: 'R' or 'R:<strategy>' "
                             "with strategy 'chain' (adjacent sites, the "
                             "default) or 'spread' (ring-stride); R=1 "
                             "keeps the unreplicated placement "
                             "byte-identical")


def _topology_overrides(args: argparse.Namespace) -> dict[str, object]:
    overrides: dict[str, object] = {}
    if args.topology is not None:
        overrides["network_topology"] = args.topology
    if args.local_cohorts:
        overrides["prefer_local_cohorts"] = True
    if args.replication is not None:
        overrides["replication"] = args.replication
    return overrides


def _open_overrides(args: argparse.Namespace) -> dict[str, object]:
    """Translate the open-system flags into ModelParams overrides."""
    overrides = _topology_overrides(args)
    if args.skew is not None:
        overrides["skew"] = args.skew
    if args.open:
        rate = (args.arrival_rate if args.arrival_rate is not None
                else DEFAULT_OPEN_ARRIVAL_TPS)
        overrides["workload_mode"] = repro.WorkloadMode.OPEN
        overrides["arrival_rate_tps"] = rate
        overrides["admission_queue_limit"] = args.queue_limit
    elif args.arrival_rate is not None:
        raise ValueError("--arrival-rate requires --open")
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-commit",
        description=("Commit-protocol performance study "
                     "(Gupta/Haritsa/Ramamritham, SIGMOD 1997)"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list runnable experiments")

    run = sub.add_parser("run", help="run one paper experiment")
    run.add_argument("experiment", help="experiment id, e.g. E1")
    run.add_argument("--transactions", type=int, default=1000,
                     help="measured transactions per point")
    run.add_argument("--mpls", type=_parse_mpls, default=None,
                     help="comma-separated MPL values")
    run.add_argument("--replications", type=int, default=1,
                     help="independent replications per point (with "
                          "--target-ci: the per-point cap)")
    run.add_argument("--jobs", type=_parse_jobs, default=1, metavar="N",
                     help="worker processes for the sweep grid, reused "
                          "from a warm shared pool (0 = all CPU cores, a "
                          "CLI-only convenience -- library APIs reject "
                          "jobs=0; default 1, in-process)")
    run.add_argument("--target-ci", type=_parse_target_ci, default=None,
                     metavar="W",
                     help="adaptive replication: run waves of reps per "
                          "point and stop once the 90%% CI relative "
                          "half-width of throughput is <= W (e.g. 0.1); "
                          "default off (fixed replications)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-point progress output")
    run.add_argument("--export", metavar="DIR", default=None,
                     help="also write TSV/CSV series to this directory")
    run.add_argument("--events-out", metavar="FILE", default=None,
                     help="stream every simulation event to this JSONL "
                          "file (one meta line per sweep point; "
                          "requires --jobs 1)")
    _add_open_args(run)

    tables = sub.add_parser("tables",
                            help="regenerate overhead Tables 3 and 4")
    tables.add_argument("--transactions", type=int, default=60)
    tables.add_argument("--jobs", type=_parse_jobs, default=1, metavar="N",
                        help="worker processes for the per-protocol "
                             "measurement runs, reused from a warm "
                             "shared pool (0 = all CPU cores, a "
                             "CLI-only convenience -- library APIs "
                             "reject jobs=0)")
    tables.add_argument("--target-ci", type=_parse_target_ci, default=None,
                        metavar="W",
                        help="replicate each row's measurement with "
                             "fresh seeds until every overhead mean's "
                             "90%% CI relative half-width is <= W; "
                             "default off (one run per row)")

    sim = sub.add_parser("simulate", help="run a single configuration")
    sim.add_argument("protocol", help="protocol name, e.g. OPT")
    sim.add_argument("--mpl", type=int, default=8)
    sim.add_argument("--transactions", type=int, default=2000)
    sim.add_argument("--dist-degree", type=int, default=3)
    sim.add_argument("--cohort-size", type=int, default=6)
    sim.add_argument("--update-prob", type=float, default=1.0)
    sim.add_argument("--msg-cpu-ms", type=float, default=5.0)
    sim.add_argument("--pure-dc", action="store_true",
                     help="infinite physical resources")
    sim.add_argument("--surprise-abort-prob", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--events-out", metavar="FILE", default=None,
                     help="stream every simulation event to this JSONL "
                          "file")
    sim.add_argument("--phases", action="store_true",
                     help="report the per-phase commit latency breakdown")
    _add_open_args(sim)
    _add_fault_args(sim)

    sat = _sweep_parser(
        sub, "saturation",
        "open-system carried load vs offered load, per protocol",
        mpl_help="per-site concurrency cap")
    sat.add_argument("--rates", type=_parse_rates, default=None,
                     help="comma-separated per-site arrival rates in "
                          "txns/s (default 0.5,1,1.5,2,3,5)")
    sat.add_argument("--skew", type=_spec(AccessSkew.parse), default=None,
                     metavar="SPEC",
                     help="page-access skew (see simulate --skew)")
    sat.add_argument("--queue-limit", type=int, default=64,
                     help="per-site admission queue bound")
    _add_topology_args(sat)

    wan = _sweep_parser(
        sub, "wan", "commit latency vs cross-DC RTT across 2-3 datacenters")
    wan.add_argument("--rtts", default="0,10,40,100",
                     help="comma-separated cross-DC round-trip times "
                          "in ms (default 0,10,40,100)")
    wan.add_argument("--dcs", type=int, default=2,
                     help="number of datacenters the sites split into "
                          "(default 2)")
    wan.add_argument("--placements", default="spread,local",
                     help="comma-separated cohort placements: 'spread' "
                          "(the paper's uniform choice) and/or 'local' "
                          "(prefer same-DC cohorts); default both")

    soak = sub.add_parser(
        "soak",
        help="long-horizon open-system run at flat RSS: streaming "
             "percentiles, windowed JSONL output, checkpoint/resume")
    soak.add_argument("protocol", nargs="?", default="2PC",
                      help="protocol name (default 2PC)")
    soak.add_argument("--transactions", type=int, default=1_000_000,
                      help="committed-transaction target; the run stops "
                           "at the first drain barrier at or past it "
                           "(default 1000000)")
    soak.add_argument("--arrival-rate", type=float,
                      default=DEFAULT_OPEN_ARRIVAL_TPS, metavar="TPS",
                      help="per-site arrival rate in txns/s")
    soak.add_argument("--mpl", type=int, default=8,
                      help="per-site concurrency cap")
    soak.add_argument("--queue-limit", type=int, default=64,
                      help="per-site admission queue bound")
    soak.add_argument("--skew", type=_spec(AccessSkew.parse), default=None,
                      metavar="SPEC",
                      help="page-access skew: 'uniform', "
                           "'hotspot:<page%%>:<access%%>[:<drift_s>]' "
                           "(drift_s rotates the hot set once per "
                           "period), or 'zipf:<theta>'")
    soak.add_argument("--rate-curve", type=_spec(RateCurve.parse),
                      default=None, metavar="SPEC",
                      help="time-varying arrival rate: 'constant', "
                           "'diurnal:<period_s>:<amplitude>', or "
                           "'steps:<t_s>=<factor>,...'")
    soak.add_argument("--window-s", type=float, default=60.0,
                      help="simulated seconds per output window "
                           "(default 60)")
    soak.add_argument("--checkpoint-every", type=int, default=100_000,
                      help="commits per segment between drain-barrier "
                           "checkpoints (0 = no checkpointing; "
                           "default 100000)")
    soak.add_argument("--out", metavar="FILE", default="soak.jsonl",
                      help="windowed JSONL output (default soak.jsonl)")
    soak.add_argument("--checkpoint", metavar="FILE", default=None,
                      help="checkpoint file (default: <out>.ckpt)")
    soak.add_argument("--resume", action="store_true",
                      help="resume from the checkpoint file; the "
                           "completed stream is byte-identical to an "
                           "uninterrupted run")
    soak.add_argument("--sample-cap", type=int, default=10_000,
                      help="retained observations before percentile "
                           "samples switch to streaming P-squared "
                           "estimators (default 10000)")
    soak.add_argument("--seed", type=int, default=20250705)
    soak.add_argument("--quiet", action="store_true",
                      help="suppress per-segment progress output")
    _add_topology_args(soak)

    avail = _sweep_parser(
        sub, "availability", "throughput vs site MTTF under fault injection")
    avail.add_argument("--mttfs", default="0,400000,200000,100000",
                       help="comma-separated site MTTFs in ms "
                            "(0 = failure-free baseline)")
    avail.add_argument("--mttr-ms", type=float, default=5_000.0,
                       help="mean site repair time in ms")
    avail.add_argument("--msg-loss", type=float, default=0.0,
                       help="per-message loss probability")
    avail.add_argument("--jobs", type=_parse_jobs, default=1, metavar="N",
                       help="worker processes for the sweep grid, reused "
                            "from a warm shared pool (0 = all CPU cores; "
                            "default 1, in-process)")
    _add_topology_args(avail)

    region = _sweep_parser(
        sub, "region-outage",
        "blocked locks and carried load under DC outages and WAN "
        "partitions")
    region.add_argument("--outages", default="dc_crash,partition",
                        help="comma-separated outage shapes: 'dc_crash' "
                             "(datacenter 0 down atomically) and/or "
                             "'partition' (links between DCs 0 and 1 "
                             "severed); default both")
    region.add_argument("--durations", default="2000,4000",
                        help="comma-separated outage durations in ms "
                             "(default 2000,4000)")
    _add_outage_args(region)

    repl = _sweep_parser(
        sub, "replication",
        "quorum commit over replicated pages: blocked locks and carried "
        "load across replication factor x site MTTF under a DC outage")
    repl.add_argument("--factors", type=_parse_factors, default=(1, 2, 3),
                      help="comma-separated replication factors "
                           "(default 1,2,3)")
    repl.add_argument("--mttfs", default="0,60000",
                      help="comma-separated site MTTFs in ms layered on "
                           "top of the DC outage (0 = outage only; "
                           "default 0,60000)")
    repl.add_argument("--mttr-ms", type=float, default=2000.0,
                      help="mean site repair time in ms (default 2000)")
    _add_outage_args(repl)
    repl.add_argument("--outage-ms", type=float, default=1500.0,
                      help="DC outage duration in ms (default 1500)")
    return parser


def _sweep_parser(sub: typing.Any, name: str, help_text: str,
                  mpl_help: str | None = None) -> argparse.ArgumentParser:
    """A subcommand running the grid preset of the same name; the flags
    every preset shares take their defaults from the preset."""
    defaults = PRESETS[name].defaults
    protocols = ",".join(defaults["protocols"])
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("--protocols", default=protocols,
                        help=f"comma-separated protocol names (default "
                             f"{protocols}; 'all' = every registered "
                             f"protocol)")
    parser.add_argument("--mpl", type=int, default=defaults["mpl"],
                        help=mpl_help)
    parser.add_argument("--transactions", type=int,
                        default=defaults["transactions"],
                        help="measured transactions per point")
    parser.add_argument("--seed", type=int, default=defaults["seed"])
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress output")
    return parser


def _add_outage_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", type=_spec(NetworkTopology.parse),
                        default=None, metavar="SPEC",
                        help="multi-DC topology the outage hits (default "
                             "dcs:2x2:rtt_ms=5); num_sites is derived "
                             "from it")
    parser.add_argument("--at-ms", type=float, default=1000.0,
                        help="outage onset time in ms (default 1000)")


def _add_fault_args(sim: argparse.ArgumentParser) -> None:
    """Fault-injection flags for ``simulate`` (see repro.faults)."""
    sim.add_argument("--faults", action="store_true",
                     help="arm the fault injector with the flags below, "
                          "which spell --fault-plan directives")
    sim.add_argument("--mttf-ms", type=float, default=200_000.0,
                     help="mean time to site failure in ms "
                          "(with --faults; 0 disables crashes)")
    sim.add_argument("--mttr-ms", type=float, default=5_000.0,
                     help="mean site repair time in ms (with --faults)")
    sim.add_argument("--msg-loss", type=float, default=0.0,
                     help="per-message loss probability (with --faults)")
    sim.add_argument("--msg-delay-ms", type=float, default=0.0,
                     help="mean extra wire delay per remote message in ms "
                          "(with --faults; 0 = the paper's zero-latency "
                          "switch)")
    sim.add_argument("--fault-plan", type=_spec(RegionPlan.parse),
                     default=None, metavar="SPEC",
                     help="fault plan, comma-separated directives: "
                          "'site_crash:<site|*>:at=<ms>:for=<ms>', "
                          "'dc_crash:<dc>:at=<ms>:for=<ms>', "
                          "'partition:<dcA>|<dcB>:at=<ms>:for=<ms>' "
                          "(each also with mttf=<ms>:mttr=<ms>; dc_crash "
                          "and partition need a multi-DC --topology), "
                          "'loss:<p>', 'delay:<ms>', or "
                          "'master_stall:<txn>:for=<ms>' (txn <txn>'s "
                          "master goes silent before its COMMIT force); "
                          "arms the injector on its own (no --faults "
                          "needed)")


def cmd_list(out: typing.TextIO) -> int:
    out.write("Runnable experiments (repro-commit run <id>):\n")
    for experiment_id, definition in EXPERIMENTS.items():
        out.write(f"  {experiment_id:<12} {definition.title}\n")
    out.write("  T3/T4        "
              "Overhead tables (repro-commit tables)\n")
    return 0


def cmd_run(args: argparse.Namespace, out: typing.TextIO) -> int:
    try:
        definition = get_experiment(args.experiment)
    except KeyError as error:
        out.write(f"error: {error.args[0]}\n")
        return 2
    if args.events_out is not None and resolve_jobs(args.jobs) != 1:
        out.write("error: --events-out requires --jobs 1\n")
        return 2
    if args.events_out is not None and args.target_ci is not None:
        out.write("error: --events-out requires fixed replications "
                  "(drop --target-ci)\n")
        return 2
    progress = None if args.quiet else (
        lambda text: out.write(f"  ... {text}\n"))
    started = time.time()
    try:
        overrides = _open_overrides(args)
        if overrides:
            base_factory = definition.params_factory
            definition = dataclasses.replace(
                definition,
                params_factory=lambda mpl, _base=base_factory:
                    _base(mpl).replace(**overrides))
        # Every spec is built before the first point runs, so bad input
        # fails here without output.
        results = definition.run(measured_transactions=args.transactions,
                                 mpls=args.mpls,
                                 replications=args.replications,
                                 progress=progress,
                                 jobs=resolve_jobs(args.jobs),
                                 events_out=args.events_out,
                                 target_ci=args.target_ci)
    except ValueError as error:
        out.write(f"error: {error}\n")
        return 2
    out.write(results.summary() + "\n")
    if args.target_ci is not None:
        out.write(f"adaptive replication: "
                  f"{results.total_measured_transactions} measured "
                  f"transactions total; loosest 90% CI half-width "
                  f"{results.max_rel_half_width():.3f} "
                  f"(target {args.target_ci})\n")
    for metric in definition.metrics[1:]:
        out.write(results.table(metric) + "\n")
    out.write(render_comparison(results) + "\n")
    if args.export:
        from repro.analysis.export import export_experiment
        paths = export_experiment(results, definition.metrics, args.export)
        for path in paths:
            out.write(f"wrote {path}\n")
    if args.events_out:
        out.write(f"wrote {args.events_out}\n")
    out.write(f"(completed in {time.time() - started:.1f}s wall time)\n")
    return 0


def cmd_tables(args: argparse.Namespace, out: typing.TextIO) -> int:
    jobs = resolve_jobs(args.jobs)
    try:
        out.write(render_table(3, 6, transactions=args.transactions,
                               jobs=jobs, target_ci=args.target_ci)
                  + "\n\n")
        out.write(render_table(6, 3, transactions=args.transactions,
                               jobs=jobs, target_ci=args.target_ci) + "\n")
    except ValueError as error:
        out.write(f"error: {error}\n")
        return 2
    return 0


def cmd_simulate(args: argparse.Namespace, out: typing.TextIO) -> int:
    exporter = None
    phases = None
    observers = []
    if args.events_out is not None:
        from repro.obs import JsonlExporter
        exporter = JsonlExporter.open(args.events_out)
        exporter.meta(protocol=args.protocol, mpl=args.mpl, seed=args.seed)
        observers.append(exporter.attach)
    if args.phases:
        from repro.obs import PhaseLatencyObserver
        phases = PhaseLatencyObserver()
        observers.append(phases.attach)

    captured = []

    def on_system(system):
        captured.append(system)
        for attach in observers:
            attach(system.bus)

    try:
        plan = args.fault_plan
        if args.faults:  # the fault flags spell directives ahead of the plan's
            plan = flag_plan(args.mttf_ms, args.mttr_ms, args.msg_loss,
                             args.msg_delay_ms, plan)
        faults = None if plan is None else FaultConfig(region=plan)
        wants_system = (bool(observers) or faults is not None
                        or args.topology is not None)
        result = repro.simulate(
            args.protocol,
            measured_transactions=args.transactions,
            seed=args.seed,
            on_system=on_system if wants_system else None,
            faults=faults,
            mpl=args.mpl,
            dist_degree=args.dist_degree,
            cohort_size=args.cohort_size,
            update_prob=args.update_prob,
            msg_cpu_ms=args.msg_cpu_ms,
            infinite_resources=args.pure_dc,
            surprise_abort_prob=args.surprise_abort_prob,
            **_open_overrides(args))
    except ValueError as error:
        # Bad protocol name or inconsistent parameters: a CLI error,
        # not a traceback.
        out.write(f"error: {error}\n")
        return 2
    finally:
        if exporter is not None:
            exporter.close()
    out.write(result.summary() + "\n")
    if isinstance(result, repro.OpenSimulationResult):
        out.write(f"open system: offered={result.offered} "
                  f"({result.offered_per_second:.2f}/s) "
                  f"shed={result.shed} ({result.shed_ratio:.1%}) "
                  f"mean queue={result.mean_queue_length:.2f} "
                  f"qwait={result.queue_wait_mean_ms:.1f}ms\n")
    out.write(f"overheads per committing txn: "
              f"exec_msgs={result.overheads.execution_messages:.2f} "
              f"forced={result.overheads.forced_writes:.2f} "
              f"commit_msgs={result.overheads.commit_messages:.2f}\n")
    if result.aborts_by_reason:
        out.write(f"aborts by reason: {result.aborts_by_reason}\n")
    if args.topology is not None and captured:
        system = captured[0]
        network = system.network
        out.write(
            f"topology: {args.topology.describe()}; "
            f"cross-DC msgs={network.cross_dc_messages} "
            f"intra-DC msgs={network.intra_dc_messages} "
            f"cross-DC round trips/commit="
            f"{system.metrics.cross_dc_round_trips_per_commit():.2f}\n")
    if captured and captured[0].faults is not None:
        injector = captured[0].faults
        split = captured[0].network.drops_by_reason
        rendered = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(split.items())) or "none"
        out.write(f"faults: {injector.crashes} crashes, "
                  f"{injector.recoveries} recoveries, "
                  f"{injector.messages_dropped} messages dropped, "
                  f"{injector.in_doubt_resolved} in-doubt resolved\n")
        out.write(f"region faults: {injector.dc_crashes} DC crashes, "
                  f"{injector.link_partitions} link partitions, "
                  f"{injector.blocked_lock_ms:.0f}ms blocked lock "
                  f"time; drops by reason: {rendered}\n")
    if phases is not None:
        out.write("per-phase commit latency (ms, committed txns):\n")
        out.write(phases.report() + "\n")
    if exporter is not None:
        out.write(f"wrote {args.events_out} "
                  f"({exporter.events_written} events)\n")
    return 0


def cmd_soak(args: argparse.Namespace, out: typing.TextIO) -> int:
    from repro.experiments.soak import SoakConfig, SoakRunner
    try:
        params = repro.open_system(
            arrival_rate_tps=args.arrival_rate, skew=args.skew,
            admission_queue_limit=args.queue_limit,
            rate_curve=args.rate_curve, mpl=args.mpl,
            **_topology_overrides(args))
        config = SoakConfig(
            protocol=args.protocol, params=params,
            transactions=args.transactions, seed=args.seed,
            window_ms=args.window_s * 1000.0,
            checkpoint_every=args.checkpoint_every,
            sample_cap=args.sample_cap)
        checkpoint = (args.checkpoint if args.checkpoint is not None
                      else args.out + ".ckpt")
        progress = None if args.quiet else (
            lambda text: out.write(f"  ... {text}\n"))
        started = time.time()
        runner = SoakRunner(config, args.out, checkpoint,
                            progress=progress)
        summary = runner.run(resume=args.resume)
    except (ValueError, FileNotFoundError) as error:
        out.write(f"error: {error}\n")
        return 2
    out.write(f"{summary['protocol']}: {summary['committed']} committed "
              f"in {summary['segments']} segments, "
              f"{summary['windows']} windows over "
              f"{summary['clock_ms'] / 1000.0:.0f} simulated seconds\n")
    out.write(f"wrote {summary['out']} (checkpoint "
              f"{summary['checkpoint']})\n")
    try:
        import resource
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.write(f"peak RSS {peak_kb / 1024.0:.0f} MiB\n")
    except ImportError:  # pragma: no cover - non-POSIX
        pass
    out.write(f"(completed in {time.time() - started:.1f}s wall time)\n")
    return 0


def sweep_settings(args: argparse.Namespace) -> dict[str, typing.Any]:
    """The preset settings an extension-sweep command's flags spell:
    each command is the :mod:`repro.experiments.grid` preset of the same
    name, and ``--mttr-ms`` sets ``mttr_ms``."""
    settings = {key: value for key, value in vars(args).items()
                if key in PRESETS[args.command].defaults
                and value is not None}
    if args.protocols.strip().lower() == "all":
        settings["protocols"] = ",".join(repro.PROTOCOL_NAMES)
    for key, cast in (("protocols", str.strip), ("placements", str.strip),
                      ("outages", str.strip), ("mttfs", float),
                      ("rtts", float), ("durations", float)):
        if key in settings:
            try:
                settings[key] = tuple(cast(part)
                                      for part in settings[key].split(","))
            except ValueError:
                raise ValueError(f"--{key} wants comma-separated numbers, "
                                 f"got {settings[key]!r}") from None
    if hasattr(args, "local_cohorts"):
        # availability and saturation: the topology flags shape the base
        # model every point starts from.
        overrides = _topology_overrides(args)
        settings["params"] = (repro.ModelParams(**overrides)
                              if overrides else None)
    return settings


def cmd_sweep(args: argparse.Namespace, out: typing.TextIO) -> int:
    progress = None if args.quiet else (
        lambda text: out.write(f"  ... {text}\n"))
    started = time.time()
    try:
        results = run_preset(args.command, progress=progress,
                             jobs=resolve_jobs(getattr(args, "jobs", 1)),
                             **sweep_settings(args))
    except ValueError as error:
        out.write(f"error: {error}\n")
        return 2
    out.write(results.summary() + "\n")
    out.write(f"(completed in {time.time() - started:.1f}s wall time)\n")
    return 0


def main(argv: typing.Sequence[str] | None = None,
         out: typing.TextIO = sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "tables":
        return cmd_tables(args, out)
    if args.command == "simulate":
        return cmd_simulate(args, out)
    if args.command in PRESETS:
        return cmd_sweep(args, out)
    if args.command == "soak":
        return cmd_soak(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
