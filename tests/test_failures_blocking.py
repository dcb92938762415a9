"""Blocking-cost coverage across every protocol under a master stall:
all three blocking protocols plus the 3PC termination path, with the
event stream proving the stalled run is indistinguishable from an
unstalled one right up to the stall instant.
"""

import pytest

from repro.config import ModelParams
from repro.core import create_protocol
from repro.db.system import DistributedSystem
from repro.experiments import run_preset
from repro.faults import FaultConfig, FaultTimeouts, RegionPlan
from repro.obs import EventLog
from repro.obs.events import EventKind

pytestmark = pytest.mark.faults

STALL_MS = 5_000.0
TIMEOUT_MS = 500.0
TXNS = 150
SEED = 11
TARGET = 40

BLOCKING = ("2PC", "PA", "PC")
ALL = BLOCKING + ("3PC",)


def _params():
    return ModelParams(mpl=4)


@pytest.fixture(scope="module")
def results():
    return run_preset("blocking", protocols=ALL, outages=(STALL_MS,),
                      target_txn_id=TARGET, decision_timeout_ms=TIMEOUT_MS,
                      transactions=TXNS, seed=SEED)


def _unblock(results, protocol):
    return results.point(protocol=protocol, outage_ms=STALL_MS)["unblock_ms"]


class TestUnblockLatencyOrdering:
    @pytest.mark.parametrize("protocol", BLOCKING)
    def test_every_blocking_protocol_blocks_for_the_outage(self, results,
                                                           protocol):
        # Cohorts hold their locks until the master resumes: the unblock
        # latency is the stall plus protocol rounds.
        assert STALL_MS <= _unblock(results, protocol) < STALL_MS + 2_000.0

    def test_3pc_unblocks_at_the_decision_timeout(self, results):
        assert TIMEOUT_MS <= _unblock(results, "3PC") < STALL_MS / 2, (
            "the termination protocol must release locks on the "
            "decision timeout, not when the master resumes")

    def test_strict_ordering_nonblocking_beats_all_blocking(self, results):
        for protocol in BLOCKING:
            assert _unblock(results, "3PC") < _unblock(results, protocol)

    @pytest.mark.parametrize("protocol", ALL)
    def test_every_target_cohort_releases(self, results, protocol):
        point = results.point(protocol=protocol, outage_ms=STALL_MS)
        assert point["target_releases"] == _params().dist_degree


def _stall_run(protocol, target):
    """A seeded run with a stall aimed at ``target``, fully logged."""
    faults = FaultConfig(
        region=RegionPlan.parse(f"master_stall:{target}:for={STALL_MS}"),
        timeouts=FaultTimeouts(decision_timeout_ms=TIMEOUT_MS))
    system = DistributedSystem(_params(), create_protocol(protocol),
                               seed=SEED, faults=faults)
    log = EventLog().attach(system.bus)
    system.run(measured_transactions=TXNS, warmup_transactions=0)
    return log


class TestEventStreamPrefix:
    """A stalled run must look exactly like an unstalled run on the same
    armed fault plane until the stall: same events, same order, same
    timestamps.  (The baseline aims the stall at a txn that never
    commits; an unarmed run is no baseline, because arming the plane
    reorders same-instant events.)"""

    @pytest.mark.parametrize("protocol", ALL)
    def test_prefix_identical_to_healthy_run(self, protocol):
        stalled = _stall_run(protocol, TARGET)
        healthy = _stall_run(protocol, 1_000_000_000)

        (crash,) = stalled.of_kind(EventKind.SITE_CRASH)
        assert crash.txn_id == TARGET
        stalled_prefix = stalled.as_dicts(until=crash.time)
        healthy_prefix = healthy.as_dicts(until=crash.time)
        assert len(stalled_prefix) > 500, "prefix too short to be meaningful"
        assert stalled_prefix == healthy_prefix
        # ... and the streams diverge after it: the stalled run records
        # the stall, the baseline never does.
        recoveries = stalled.of_kind(EventKind.SITE_RECOVER)
        if protocol in BLOCKING:
            # Blocking cohorts wait for the master, so the run outlasts
            # the stall; a 3PC run ends first (its cohorts terminated
            # without the master).
            assert len(recoveries) == 1
        else:
            assert recoveries == []
        assert healthy.of_kind(EventKind.SITE_CRASH) == []
