#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from measured experiment sweeps.

Usage::

    python scripts/generate_experiments_md.py [--results-dir DIR]
        [--transactions N] [--run-missing]

Reads per-experiment JSON files (one per registered experiment id) from
``--results-dir``; with ``--run-missing`` any absent experiment is run
at ``--transactions`` measured transactions per point and cached there.
The output is written to EXPERIMENTS.md at the repository root.

The prose sections (paper claims and verdicts) live in this script so
the measured tables can be refreshed without losing the commentary.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure in *Revisiting Commit
Processing in Distributed Database Systems* (Gupta, Haritsa,
Ramamritham; SIGMOD 1997).  Absolute numbers are not expected to match
the 1997 testbed; the reproduction target is the **shape**: who wins, by
roughly what factor, and where peaks/crossovers fall.  Each section
quotes the paper's claim and the measured verdict.

Measured series below come from `{txns}` measured transactions per
(protocol, MPL) point with the calibrated baseline settings (DESIGN.md
section 3).  Regenerate with::

    python scripts/generate_experiments_md.py --run-missing

Throughputs are transactions/second, system-wide.
"""

# Commentary per experiment id: (heading, paper claim, verdict template).
COMMENTARY: dict[str, tuple[str, str, str]] = {
    "T3": (
        "Table 3 — protocol overheads, DistDegree = 3",
        "2PC/PA: 4 exec msgs, 7 forced writes, 8 commit msgs; "
        "PC: 4/5/6; 3PC: 4/11/12; DPCC: 4/1/0; CENT: 0/1/0.",
        "**Exact match.** Measured counts from abort-free runs equal the "
        "paper's table cell-for-cell (asserted by "
        "`benchmarks/bench_table3_overheads.py`; OPT variants equal "
        "their base protocols)."),
    "T4": (
        "Table 4 — protocol overheads, DistDegree = 6",
        "2PC/PA: 10/13/20; PC: 10/8/15; 3PC: 10/20/30; DPCC: 10/1/0; "
        "CENT: 0/1/0.",
        "**Exact match** (`benchmarks/bench_table4_overheads.py`)."),
    "E1": (
        "Figures 1a–1c — resource and data contention (RC+DC)",
        "Throughput rises then thrashes.  CENT best, DPCC close behind; "
        "a noticeable gap to the classical protocols (commit processing "
        "outweighs data processing); PA = 2PC exactly; PC ≈ 2PC; 3PC "
        "worst; OPT = 2PC at low MPL and approaches DPCC at high MPL.  "
        "Block ratio (1b) lower for OPT; borrowing (1c) grows with MPL.",
        "**Reproduced.** PA's series is bit-identical to 2PC's (same "
        "trajectory).  OPT's peak ({opt_peak:.1f}) lands within a few "
        "percent of DPCC's ({dpcc_peak:.1f}) while 2PC peaks at "
        "{２pc_peak:.1f}; 3PC is uniformly worst.  Block/borrow-ratio "
        "shapes asserted in `benchmarks/bench_fig1_rcdc.py`."),
    "E2": (
        "Figures 2a–2c — pure data contention",
        "Gaps widen markedly: the commit phase is a larger share of "
        "response time.  3PC significantly below 2PC; PC ≈ 2PC; OPT's "
        "peak close to DPCC's, reached at a *higher* MPL than 2PC "
        "(5 vs 4 in the paper).",
        "**Reproduced.** DPCC peaks {dpcc_vs_2pc:.2f}x above 2PC; OPT "
        "reaches {opt_frac:.0%} of DPCC's peak and peaks at MPL "
        "{opt_mpl} vs 2PC's {２pc_mpl}."),
    "E3-RCDC": (
        "Experiment 3 (prose) — fast network, RC+DC (MsgCPU = 1 ms)",
        "All protocols move close to CENT; DPCC and CENT become "
        "virtually indistinguishable.",
        "**Reproduced.** The CENT-to-2PC peak gap shrinks relative to "
        "Experiment 1, and DPCC's peak is within a few percent of "
        "CENT's."),
    "E3-DC": (
        "Experiment 3 (prose) — fast network, pure DC",
        "Remaining forced-write overheads still separate DPCC from 2PC "
        "and 2PC from 3PC; OPT remains valuable (fast messages do not "
        "remove the data-contention bottleneck).",
        "**Reproduced.** DPCC > 2PC > 3PC ordering intact; OPT's peak "
        "stays near DPCC's."),
    "E4-RCDC": (
        "Figure 3a — degree of distribution 6, RC+DC",
        "CPU-bound now: baselines clearly on top; for the first time PC "
        "beats 2PC across the MPL range; OPT alone gains little "
        "(smaller commit-execution ratio); OPT-PC is best overall.",
        "**Reproduced.** PC > 2PC at every MPL; OPT-PC has the best "
        "peak among non-baseline protocols ({optpc_peak:.1f} vs OPT "
        "{opt_peak:.1f}, PC {pc_peak:.1f})."),
    "E4-DC": (
        "Figure 3b — degree of distribution 6, pure DC",
        "DPCC's peak more than **twice** 2PC's; PC back to par with "
        "2PC; OPT-PC no better than OPT (the collecting write shrinks "
        "the commit-execution ratio).",
        "**Reproduced.** DPCC/2PC peak ratio = {dpcc_vs_2pc:.2f} "
        "(paper: > 2); PC within {pc_gap:.0%} of 2PC; OPT-PC ≈ OPT."),
    "E5-RCDC": (
        "Figure 4a — non-blocking OPT, RC+DC",
        "OPT-3PC ≈ 3PC at low MPL; at high MPL it beats 3PC and reaches "
        "a peak comparable to 2PC's.",
        "**Reproduced.** OPT-3PC peak {opt3_peak:.1f} vs 2PC "
        "{２pc_peak:.1f}; at MPL 1 OPT-3PC sits on 3PC's curve."),
    "E5-DC": (
        "Figure 4b — non-blocking OPT, pure DC",
        "OPT-3PC's peak **significantly surpasses 2PC's**: the paper's "
        "win-win (non-blocking + better-than-blocking performance).",
        "**Reproduced** (modest margin at bench scale): OPT-3PC peak "
        "{opt3_peak:.1f} > 2PC peak {２pc_peak:.1f}, and far above "
        "3PC's {３pc_peak:.1f}."),
    "E6-RCDC": (
        "Figure 5a — surprise aborts, RC+DC",
        "OPT's peak stays comparable to 2PC's through ~15% transaction "
        "aborts, degrading visibly only at ~27%; PA only marginally "
        "better than 2PC (system not CPU-bound); OPT-PA combines both; "
        "at high MPL a *crossover* appears (higher abort rates can beat "
        "lower ones because restart delays throttle contention).",
        "**Reproduced.** See the three abort-level tables below; "
        "`examples/surprise_aborts_robustness.py` shows OPT's gain "
        "staying positive through ~15% txn aborts and turning negative "
        "by ~30%."),
    "E6-DC": (
        "Figure 5b — surprise aborts, pure DC",
        "Same ordering under pure data contention, with larger spreads.",
        "**Reproduced** (tables below)."),
    "E7": (
        "Section 5.8 (prose) — sequential transactions",
        "Sequential cohorts lengthen the execution phase while the "
        "commit phase is unchanged, so the commit-execution ratio and "
        "the protocol gaps — OPT's advantage in particular — shrink.",
        "**Reproduced for the emphasized claim:** OPT's peak gain over "
        "2PC drops from the parallel workload's to near zero (printed "
        "by `benchmarks/bench_exp7_sequential.py`).  Responses are "
        "longer sequentially, as expected."),
    "E8-UP50": (
        "Section 5.8 (prose) — reduced update probability",
        "OPT's improvement depends on the level of data contention; "
        "fewer update locks mean less prepared-data blocking to "
        "eliminate.",
        "**Reproduced.** OPT's peak gain at UpdateProb 0.5 is below its "
        "gain at 1.0."),
    "E8-SMALLDB": (
        "Section 5.8 (prose) — small database",
        "More data contention grows OPT's advantage.",
        "**Reproduced.** OPT's gain and borrow ratio both rise on the "
        "smaller database."),
    "EXT": (
        "Extensions — beyond the paper's experiments",
        "Nine of the paper's qualitative arguments, made measurable: "
        "blocking halts processing on master failure (Sec 2.4); peak "
        "throughput can be *maintained* with Half-and-Half admission "
        "control (Sec 5); the Section 2.5 protocol family's "
        "message/forcing arithmetic; commit protocols exist to survive "
        "failures, so measure them under failures; the closed model's "
        "MPL knob answers \"at what concurrency\" but not \"at what "
        "offered load\", so re-ask the throughput question in an open "
        "system; steady-state claims deserve long horizons, so "
        "stream that open system for millions of transactions at flat "
        "memory; and the paper's zero-latency LAN switch is exactly "
        "the assumption a multi-datacenter deployment breaks, so "
        "re-price every message over a real topology; and real "
        "failures correlate — a power event takes a whole datacenter, "
        "a cut fiber partitions two — which is exactly the regime the "
        "non-blocking argument was made for, so inject that too; and "
        "the paper's partitioned single-copy database makes every page "
        "a single point of failure, so replicate the pages and commit "
        "with a quorum protocol that tolerates coordinator loss "
        "outright.",
        "(1) The `master_stall` fault-plan directive, run as the "
        "`blocking` preset of `repro.experiments.grid`: when txn 40's "
        "master goes silent for 15 s just before its COMMIT force (300 "
        "measured txns, seed 20250705), 2PC/PA/PC cohorts hold their "
        "update locks for the whole stall (released 15.48–15.49 s "
        "after it starts) and throughput during the stall falls to "
        "4.1–7.1 txn/s, while 3PC's termination protocol releases them "
        "after 0.6 s (the 500 ms decision timeout plus one inquiry "
        "round) and carries 15.7 txn/s "
        "(`benchmarks/bench_blocking_failure.py`).  "
        "(2) `repro.admission`: at MPL 10 — deep in the thrashing "
        "region — the Half-and-Half controller recovers ~90% of the "
        "gap back to peak throughput (`benchmarks/bench_admission.py`). "
        "(3) Unsolicited Vote (8 messages/txn), Early Prepare (6, "
        "message-minimal) and linear 2PC (8, decision at the chain "
        "tail) all measure exactly their analytic counts, and OPT-LIN "
        "confirms Section 3.2's claim that lending composes with the "
        "chain (`benchmarks/bench_protocol_family.py`).  "
        "(4) `repro.faults` + the `availability` preset of "
        "`repro.experiments.grid` (`repro-commit availability`): a "
        "seeded fault plan crashes "
        "sites on exponential MTTF/MTTR cycles and drops messages "
        "while the protocol layer's timeout/status-inquiry/WAL-replay "
        "recovery machinery (docs/MODEL.md, \"Failure model & "
        "recovery\") keeps every registered protocol live; the sweep "
        "reports throughput vs site MTTF alongside crashes survived, "
        "messages dropped, and in-doubt transactions resolved by each "
        "protocol's presumption rule.  With faults disabled the "
        "injector wires nothing and trajectories stay byte-identical "
        "to the golden fixture (`tests/test_faults.py`).  "
        "(5) `WorkloadMode.OPEN` + the `saturation` preset "
        "(`repro-commit saturation`): per-site Poisson arrivals feed "
        "bounded admission queues (drop-on-full = shed load) drained "
        "by `mpl` workers per site, with optional hot-spot/Zipf access "
        "skew (`--skew hotspot:10:90`, `--skew zipf:0.8`).  On the "
        "default grid (300 measured txns/point, seed 20250705, queue "
        "limit 64), carried load tracks offered load through 2.0 "
        "txns/s/site (~15.3 system-wide, all protocols) while p95 "
        "response climbs 0.5 s → 1.6 s; at 3.0/site the curves "
        "flatten and separate exactly as the closed MPL sweeps "
        "predict — OPT carries 14.95 system-wide vs PC 12.75, "
        "2PC/PA 12.34, 3PC 11.91, with p95 at 10–14 s; by "
        "5.0/site the queues overflow and every protocol sheds "
        "~19–20% of offered load.  Latency saturates far below "
        "the throughput knee — the operator-facing behaviour the "
        "paper's closed model cannot exhibit.  Closed-mode "
        "trajectories stay byte-identical "
        "(`tests/test_open_system.py`).  "
        "(6) `repro.experiments.soak` (`repro-commit soak`): the open "
        "system streamed to 10⁶–10⁷ transactions at "
        "O(1) memory — P² quantile sketches above a sample "
        "cap, per-window JSONL aggregates (`--out soak.jsonl`), "
        "bounded WAL retention, and drain-barrier checkpoints that "
        "make a killed-then-resumed soak byte-identical to an "
        "uninterrupted one, torn tail lines included "
        "(`scripts/soak_resume_check.py`).  Long horizons earn "
        "time-varying load: `--rate-curve diurnal:…`/`steps:…` "
        "modulates arrivals via Lewis–Shedler thinning and "
        "`--skew hotspot:b:a:drift_s` rotates the hot set through the "
        "database.  Peak RSS grows ~1.00x from 10⁴ to 10⁵ "
        "transactions (ceiling 1.25x, gated by "
        "`scripts/bench_trajectory.py --smoke`).  "
        "(7) `repro.db.topology` + the `wan` preset "
        "(`repro-commit wan`, `--topology` on every run mode): a WAN "
        "wire prices each directed link — `uniform` reproduces the "
        "paper's zero-latency switch "
        "byte-identically, `dcs:<D>x<S>:rtt_ms=<ms>` splits the sites "
        "into datacenters whose cross-DC links pay rtt/2 one-way "
        "(plus optional jitter/loss), and the metrics layer counts "
        "cross-DC round trips per commit — the quantity that "
        "multiplies RTT into latency (docs/MODEL.md, \"Topology & "
        "network cost model\").  At rtt=40 ms with cohorts spread "
        "across 2 DCs, PC and OPT commit faster than 2PC and 3PC is "
        "strictly worst (PC ≈ 962 ms < OPT ≈ 972 ms < 2PC ≈ 983 ms "
        "< 3PC ≈ 1160 ms at MPL 2) because the ordering now follows "
        "each protocol's serialized cross-DC round trips (PC ≈ 2.9, "
        "2PC ≈ 3.3, 3PC ≈ 4.6); preferring same-DC cohorts "
        "(`--local-cohorts`) moves commit traffic off the expensive "
        "links entirely.  The fault injector stacks on top of the "
        "topology (injected delay/loss add to the healthy wire's; "
        "a site that crashes mid-flight still eats the message after "
        "the link delay), and `uniform` builds no wire at all: it "
        "runs the same send path as no topology, byte-identical to "
        "the golden fixture, with its wall-clock ratio smoke-gated "
        "at ≤1.10x (`tests/db/test_topology.py`, "
        "`scripts/bench_trajectory.py --smoke`).  "
        "(8) `repro.faults` region plans + the `region-outage` "
        "preset (`repro-commit region-outage`, `--fault-plan` on "
        "simulate): a parseable "
        "correlated-failure plan — `dc_crash:<dc>:at=…:for=…` crashes "
        "every site of a datacenter atomically, "
        "`partition:<dcA>|<dcB>:…` severs the link group between two "
        "(messages crossing the cut drop with reason `partition`; the "
        "sites stay up), with stochastic mttf/mttr variants on "
        "dedicated RNG streams.  In-doubt 2PC/PA/PC cohorts on the "
        "wrong side of a cut stay blocked holding locks until heal; "
        "3PC's termination protocol decides only with a majority of "
        "the cohort set reachable (no split brain) and commits an "
        "uncertain cohort on peer evidence of the precommit; the "
        "resolver backs off exponentially while the path is cut.  The "
        "preset grids protocol × outage shape × duration over a dcs "
        "topology and reports blocked-lock time, carried throughput "
        "during the outage, recovery time, and the drop split — under "
        "a 4 s coordinator-side DC loss on dcs:3x2, 2PC holds locks "
        "blocked ~4.9 s vs 3PC's ~3.0 s (seed 7): the termination "
        "protocol is what non-blocking buys.  Every registered "
        "protocol completes both outage shapes on dcs:2x2 and dcs:3x2 "
        "with no hangs, an inert plan is byte-identical to the armed "
        "baseline, and the inactive plane is essentially free "
        "(`partition_overhead` bench, ~1.00x full pairs) "
        "(`tests/test_region_faults.py`, "
        "`scripts/bench_trajectory.py --smoke`).  "
        "(9) `repro.core.paxos_commit` + `repro.db.pages` replication "
        "+ the `replication` preset (`repro-commit replication`, "
        "`--replication R[:strategy]` on every run mode): Paxos Commit "
        "(Gray & Lamport) runs each "
        "RM's vote as its own Paxos instance against 2F+1 acceptors "
        "drawn from the cohort sites — the coordinator decides at F+1 "
        "acceptances, and a blocked cohort that reaches any F+1 "
        "acceptors takes over with a higher ballot instead of waiting "
        "out the coordinator, so F ≥ 1 is non-blocking; at F = 0 the "
        "protocol collapses to 2PC and its trajectories are "
        "byte-identical, message and forced-write counts included "
        "(at D = 3: 2PC pays 8 messages/7 forced writes, PAXOS F = 1 "
        "pays 14/9 — the acceptors batch every instance into one "
        "forced ACCEPT).  A `ReplicaDirectory` maps each page to an "
        "R-site replica set (`chain` packs ring neighbours, `spread` "
        "maximises DC diversity); commits write all available copies "
        "— one batched propagation per remote replica site, "
        "unreachable replicas skipped and counted (available-copies "
        "liveness), R = 1 keeping the historical partitioned layout "
        "byte-identical and essentially free (`replication_overhead` "
        "bench, ~1.00x full pairs).  The `replication` preset "
        "races 2PC/3PC/PAXOS across replication factor × site MTTF "
        "through a coordinator-DC outage on dcs:2x2: with stochastic "
        "site faults layered on the outage, PAXOS holds blocked locks "
        "for ~0.4–0.8 s across R = 1–3 while 2PC holds them 4.3–12.7 "
        "s at R ≤ 2 (seed 7) — quorum commit, not replication alone, "
        "is what shortens the blocking window "
        "(`tests/test_paxos_replication.py`)."),
}

#: experiment ids whose measured series get a table, in document order.
SERIES_ORDER = ["E1", "E2", "E3-RCDC", "E3-DC", "E4-RCDC", "E4-DC",
                "E5-RCDC", "E5-DC", "E6-RCDC", "E6-DC", "E7",
                "E8-UP50", "E8-SMALLDB"]


def load_results(results_dir: pathlib.Path, run_missing: bool,
                 transactions: int) -> dict[str, dict]:
    from repro.experiments.registry import EXPERIMENTS
    out = {}
    results_dir.mkdir(parents=True, exist_ok=True)
    for exp_id, definition in EXPERIMENTS.items():
        path = results_dir / f"{exp_id}.json"
        if not path.exists():
            if not run_missing:
                continue
            results = definition.run(measured_transactions=transactions)
            data = {"title": definition.title}
            for metric in definition.metrics:
                data[metric] = {p: results.series(p, metric)
                                for p in definition.protocols}
            data["peaks"] = {p: results.peak(p)
                             for p in definition.protocols}
            path.write_text(json.dumps(data, indent=1))
        out[exp_id] = json.loads(path.read_text())
    return out


def series_table(data: dict, metric: str = "throughput",
                 precision: int = 1) -> str:
    table = data[metric]
    protocols = list(table)
    mpls = [m for m, _ in table[protocols[0]]]
    lines = ["| MPL | " + " | ".join(protocols) + " |",
             "|" + "---|" * (len(protocols) + 1)]
    for i, mpl in enumerate(mpls):
        cells = [f"{table[p][i][1]:.{precision}f}" for p in protocols]
        lines.append(f"| {mpl} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def peak(data: dict, protocol: str) -> tuple[int, float]:
    mpl, value = data["peaks"][protocol]
    return int(mpl), float(value)


def build(results: dict[str, dict], transactions: int) -> str:
    parts = [HEADER.format(txns=transactions)]

    def section(exp_id: str, body_extra: str = "") -> None:
        heading, claim, verdict = COMMENTARY[exp_id]
        parts.append(f"## {heading}\n")
        parts.append(f"**Paper:** {claim}\n")
        parts.append(f"**Measured:** {verdict}\n")
        if body_extra:
            parts.append(body_extra + "\n")

    # Tables 3 and 4 first.
    section("T3")
    section("T4")

    fills: dict[str, dict[str, object]] = {}
    if "E1" in results:
        d = results["E1"]
        fills["E1"] = {
            "opt_peak": peak(d, "OPT")[1],
            "dpcc_peak": peak(d, "DPCC")[1],
            "２pc_peak": peak(d, "2PC")[1]}
    if "E2" in results:
        d = results["E2"]
        fills["E2"] = {
            "dpcc_vs_2pc": peak(d, "DPCC")[1] / peak(d, "2PC")[1],
            "opt_frac": peak(d, "OPT")[1] / peak(d, "DPCC")[1],
            "opt_mpl": peak(d, "OPT")[0],
            "２pc_mpl": peak(d, "2PC")[0]}
    if "E4-RCDC" in results:
        d = results["E4-RCDC"]
        fills["E4-RCDC"] = {
            "optpc_peak": peak(d, "OPT-PC")[1],
            "opt_peak": peak(d, "OPT")[1],
            "pc_peak": peak(d, "PC")[1]}
    if "E4-DC" in results:
        d = results["E4-DC"]
        fills["E4-DC"] = {
            "dpcc_vs_2pc": peak(d, "DPCC")[1] / peak(d, "2PC")[1],
            "pc_gap": abs(peak(d, "PC")[1] - peak(d, "2PC")[1])
            / peak(d, "2PC")[1]}
    for scenario in ("E5-RCDC", "E5-DC"):
        if scenario in results:
            d = results[scenario]
            fills[scenario] = {
                "opt3_peak": peak(d, "OPT-3PC")[1],
                "２pc_peak": peak(d, "2PC")[1],
                "３pc_peak": peak(d, "3PC")[1]}

    for exp_id in SERIES_ORDER:
        if exp_id in ("E6-RCDC", "E6-DC"):
            # Grouped: three abort levels per scenario.
            levels = [f"{exp_id}-{pct}" for pct in (3, 15, 27)]
            if not any(level in results for level in levels):
                continue
            heading, claim, verdict = COMMENTARY[exp_id]
            parts.append(f"## {heading}\n")
            parts.append(f"**Paper:** {claim}\n")
            parts.append(f"**Measured:** {verdict}\n")
            for level, pct in zip(levels, (3, 15, 27)):
                if level in results:
                    parts.append(f"*~{pct}% transaction aborts:*\n")
                    parts.append(series_table(results[level]) + "\n")
            continue
        if exp_id not in results:
            continue
        data = results[exp_id]
        heading, claim, verdict = COMMENTARY[exp_id]
        verdict = verdict.format(**fills.get(exp_id, {}))
        parts.append(f"## {heading}\n")
        parts.append(f"**Paper:** {claim}\n")
        parts.append(f"**Measured:** {verdict}\n")
        parts.append(series_table(data) + "\n")

    section("EXT")
    parts.append(
        "---\n\n*Every numeric claim above is also asserted "
        "programmatically by the corresponding benchmark in "
        "`benchmarks/`; run `pytest benchmarks/ --benchmark-only` to "
        "re-verify.*\n")
    return "\n".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", type=pathlib.Path,
                        default=ROOT / "results")
    parser.add_argument("--transactions", type=int, default=600)
    parser.add_argument("--run-missing", action="store_true")
    parser.add_argument("--output", type=pathlib.Path,
                        default=ROOT / "EXPERIMENTS.md")
    args = parser.parse_args()
    results = load_results(args.results_dir, args.run_missing,
                           args.transactions)
    args.output.write_text(build(results, args.transactions))
    print(f"wrote {args.output} ({len(results)} experiments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
