"""Golden-fixture equivalence: the instrumented system reproduces the
pre-refactor simulation trajectories bit-for-bit.

The fixture (``tests/data/golden_sweep.json``) records every
:class:`SimulationResult` field of the canonical sweep grids, generated
by ``scripts/make_golden_sweep.py`` from the direct-call (pre-event-bus)
metrics path.  Routing metrics and admission control through the event
bus must not perturb a single field -- same seeds, same event order,
same numbers.  Only regenerate the fixture when a change is *meant* to
alter results.

The extension-sweep entries (``<command>-tier1`` / ``-tier2``) pin each
command end to end: progress labels in run order, every point's
:class:`SimulationResult`, and the ``--quiet`` stdout minus the
wall-time line.  The reduced tier-1 grids also run through the library
(:func:`repro.experiments.run_preset`, with the settings the command's
flags spell) on two pool workers, which must reproduce the serial CLI
byte for byte.
"""

import dataclasses
import importlib.util
import json
import pathlib

import pytest

from repro.cli import build_parser, sweep_settings
from repro.config import ModelParams
from repro.experiments import run_preset
from repro.experiments.base import MplSweep

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_sweep.json"


def _round_trip(result):
    """Normalize a SimulationResult the way the fixture was written."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def _check_grid(grid):
    sweep = MplSweep(tuple(grid["protocols"]),
                     lambda mpl: ModelParams(mpl=mpl),
                     mpls=tuple(grid["mpls"]),
                     measured_transactions=grid["transactions"])
    results = sweep.run("golden")
    mismatched = []
    for (protocol, mpl), point in results.points.items():
        expected = grid["points"][f"{protocol}@{mpl}"]
        if _round_trip(point.result) != expected:
            mismatched.append(f"{protocol}@{mpl}")
    assert not mismatched, (
        f"{len(mismatched)} points diverged from the golden fixture: "
        f"{mismatched}; if the change is intentional, regenerate with "
        f"scripts/make_golden_sweep.py")


def _load_golden_script():
    """The fixture generator, so the check runs a command exactly the
    way the fixture was written."""
    path = FIXTURE.parents[2] / "scripts" / "make_golden_sweep.py"
    spec = importlib.util.spec_from_file_location("make_golden_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden_script()


def _check_extension(entry):
    code, labels, stdout, results = golden.run_command(entry["argv"])
    assert code == 0
    assert labels == entry["labels"]
    mismatched = [label for label, result in zip(labels, results)
                  if entry["points"][label] != result]
    assert not mismatched, (
        f"{len(mismatched)} points diverged from the golden fixture: "
        f"{mismatched}")
    assert stdout == entry["stdout"]


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


EXTENSIONS = ("availability", "saturation", "wan", "region-outage",
              "replication")
#: the reduced ``*-tier1`` grids: one per command, plus the presumption
#: family (PA, PC, their OPT variants, UV and EP) under faults.
TIER1_GRIDS = EXTENSIONS + ("availability-presumption",)


def test_tier1_grid_matches_golden_fixture(fixture):
    _check_grid(fixture["tier1"])


@pytest.mark.tier2
def test_tier2_full_protocol_grid_matches_golden_fixture(fixture):
    _check_grid(fixture["tier2"])


@pytest.mark.parametrize("grid", TIER1_GRIDS)
def test_extension_sweep_matches_golden_fixture(fixture, grid):
    _check_extension(fixture[f"{grid}-tier1"])


@pytest.mark.tier2
@pytest.mark.parametrize("grid", EXTENSIONS + ("wan-40ms",))
def test_extension_default_grid_matches_golden_fixture(fixture, grid):
    _check_extension(fixture[f"{grid}-tier2"])


@pytest.mark.parametrize("grid", TIER1_GRIDS)
def test_extension_preset_on_the_pool_matches_golden_fixture(fixture, grid):
    entry = fixture[f"{grid}-tier1"]
    settings = sweep_settings(build_parser().parse_args(entry["argv"]))
    labels = []
    results = run_preset(entry["argv"][0], progress=labels.append, jobs=2,
                         **settings)
    assert sorted(labels) == sorted(entry["labels"])
    assert [_round_trip(point.result) for point in results.points.values()] \
        == [entry["points"][label] for label in entry["labels"]]
    assert results.summary() + "\n" == entry["stdout"]
