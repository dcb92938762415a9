#!/usr/bin/env python
"""Regenerate the golden sweep fixture used by tests/test_equivalence.py.

Runs the canonical :class:`MplSweep` grids (a fast tier-1 subset and the
full every-protocol tier-2 grid) and records every
:class:`SimulationResult` field as JSON.  The fixture pins the simulated
trajectory bit-for-bit: any refactor that perturbs event order, metric
accounting, or seeding shows up as a diff.

It also pins the extension sweeps (``availability``, ``saturation``,
``wan``, ``region-outage``, ``replication``) end to end through the
CLI: for each grid in :data:`EXTENSION_GRIDS` it records the progress
labels in run order, every point's :class:`SimulationResult`, and the
command's ``--quiet`` stdout minus the wall-time line.

Usage::

    PYTHONPATH=src python scripts/make_golden_sweep.py            # all
    PYTHONPATH=src python scripts/make_golden_sweep.py wan-tier1  # one

Named entries are regenerated and every other entry already in the
fixture is kept as it is.  Only rerun this when a change is *meant* to
alter simulation results; commit the regenerated fixture together with
that change.
"""

from __future__ import annotations

import dataclasses
import io
import json
import pathlib
import re
import sys
from unittest import mock

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "tests" / "data" / "golden_sweep.json"

#: (name, protocols, mpls, measured transactions) per grid.
GRIDS = [
    ("tier1", ("2PC", "PA", "PC", "3PC", "OPT"), (1, 2, 4), 60),
    ("tier2", None, (1, 2, 3, 4, 6, 8, 10), 40),  # None = all protocols
]

#: (fixture key, CLI argv) per extension grid.  ``*-tier1`` grids are
#: reduced to a few seconds each; ``*-tier2`` grids are the commands'
#: full defaults, plus the 200-transaction 40 ms WAN grid behind the
#: EXPERIMENTS.md WAN figures.
EXTENSION_GRIDS = [
    ("availability-tier1",
     ["availability", "--protocols", "2PC,PA,3PC", "--mttfs", "0,60000",
      "--msg-loss", "0.01", "--transactions", "40", "--seed", "5"]),
    ("availability-presumption-tier1",
     ["availability", "--protocols", "PA,PC,OPT-PA,OPT-PC,UV,EP",
      "--mttfs", "0,10000", "--mttr-ms", "2000", "--msg-loss", "0.02",
      "--transactions", "80", "--seed", "5"]),
    ("saturation-tier1",
     ["saturation", "--protocols", "2PC,OPT", "--rates", "1,4",
      "--skew", "hotspot:10:90", "--transactions", "60", "--seed", "3"]),
    ("wan-tier1",
     ["wan", "--protocols", "2PC,PC,3PC", "--rtts", "0,40",
      "--transactions", "40"]),
    ("region-outage-tier1",
     ["region-outage", "--protocols", "2PC,3PC", "--durations", "1500",
      "--transactions", "30"]),
    ("replication-tier1",
     ["replication", "--protocols", "2PC,PAXOS", "--factors", "1,2",
      "--mttfs", "0,60000", "--transactions", "30"]),
    ("availability-tier2", ["availability"]),
    ("saturation-tier2", ["saturation"]),
    ("wan-tier2", ["wan"]),
    ("region-outage-tier2", ["region-outage"]),
    ("replication-tier2", ["replication"]),
    ("wan-40ms-tier2",
     ["wan", "--protocols", "2PC,PC,3PC,OPT", "--rtts", "40",
      "--transactions", "200"]),
]

_WALL_TIME = re.compile(r"^\(completed in .*\)$")


def run_command(argv):
    """Run one CLI command serially; returns (exit code, progress labels,
    quiet stdout minus the wall-time line, SimulationResult dicts in run
    order).  Progress line i belongs to the i-th simulation."""
    import repro
    from repro.cli import main

    captured = []
    simulate = repro.simulate

    def spy(*args, **kwargs):
        result = simulate(*args, **kwargs)
        captured.append(json.loads(json.dumps(dataclasses.asdict(result))))
        return result

    out = io.StringIO()
    with mock.patch.object(repro, "simulate", spy):
        code = main(list(argv), out=out)
    labels, lines = [], []
    for line in out.getvalue().splitlines():
        if line.startswith("  ... "):
            labels.append(line[len("  ... "):])
        elif not _WALL_TIME.match(line):
            lines.append(line)
    return code, labels, "\n".join(lines) + "\n", captured


def run_extension(argv):
    code, labels, stdout, results = run_command(argv)
    if code != 0 or len(labels) != len(results):
        raise RuntimeError(f"{argv}: exit {code}, {len(labels)} labels "
                           f"for {len(results)} simulations")
    return {"argv": list(argv), "labels": labels,
            "points": dict(zip(labels, results)), "stdout": stdout}


def run_grid(protocols, mpls, transactions):
    from repro.config import ModelParams
    from repro.experiments.base import MplSweep

    sweep = MplSweep(protocols, lambda mpl: ModelParams(mpl=mpl),
                     mpls=mpls, measured_transactions=transactions)
    results = sweep.run("golden")
    grid = {}
    for (protocol, mpl), point in results.points.items():
        grid[f"{protocol}@{mpl}"] = dataclasses.asdict(point.result)
    return grid


def main(argv: list[str]) -> int:
    from repro.core import PROTOCOL_NAMES

    known = [name for name, *_ in GRIDS] + [n for n, _ in EXTENSION_GRIDS]
    wanted = set(argv or known)
    unknown = wanted - set(known)
    if unknown:
        print(f"unknown grids: {sorted(unknown)}; known: {known}")
        return 2
    fixture = (json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {})
    fixture["_comment"] = "regenerate with scripts/make_golden_sweep.py"
    for name, protocols, mpls, transactions in GRIDS:
        if name not in wanted:
            continue
        if protocols is None:
            protocols = PROTOCOL_NAMES
        print(f"{name}: {len(protocols)} protocols x {len(mpls)} MPLs "
              f"({transactions} txns/point)")
        fixture[name] = {
            "protocols": list(protocols),
            "mpls": list(mpls),
            "transactions": transactions,
            "points": run_grid(protocols, mpls, transactions),
        }
    for name, command in EXTENSION_GRIDS:
        if name not in wanted:
            continue
        print(f"{name}: repro-commit {' '.join(command)}")
        fixture[name] = run_extension(command)
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
