"""Retiring an incarnation: no cyclic garbage once its agents end.

A finished incarnation's master, cohorts and Transaction refer to each
other.  :meth:`Transaction.retire` drops those links once the last agent
has ended and no cohort is in doubt, so reference counting, not the
cyclic collector, frees it.  These tests count what the collector would
find (``gc.DEBUG_SAVEALL``) and pin when the links go.
"""

import collections
import gc

import pytest

import repro
from repro.db.transaction import CohortState
from repro.faults import FaultConfig, RegionPlan
from repro.obs.events import EventKind

HARSH = "site_crash:*:mttf=25000:mttr=2000,loss:0.02"


def _cyclic_garbage(system, transactions):
    """(objects the collector found unreachable, type counts) over one
    run of ``system``; the system itself stays reachable."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        system.run(measured_transactions=transactions,
                   warmup_transactions=transactions // 10)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    kinds = collections.Counter(type(obj).__name__ for obj in garbage)
    return len(garbage), kinds.most_common(8)


@pytest.mark.parametrize("protocol", repro.PROTOCOL_NAMES)
def test_fault_free_run_leaves_no_cyclic_garbage(protocol):
    system = repro.build_system(protocol, repro.baseline_rc_dc(mpl=3),
                                seed=1)
    count, kinds = _cyclic_garbage(system, 100)
    assert count == 0, kinds


@pytest.mark.faults
@pytest.mark.parametrize("protocol", ["2PC", "PC", "3PC", "LIN-2PC",
                                      "PAXOS"])
def test_faulted_run_leaves_little_cyclic_garbage(protocol):
    """Under crashes and loss a message can still reach a retired
    agent's inbox, so a little garbage may remain: at most 0.5 objects
    per commit (an unretired incarnation leaves 40 or more)."""
    system = repro.build_system(
        protocol, repro.baseline_rc_dc(mpl=3), seed=1,
        faults=FaultConfig(region=RegionPlan.parse(HARSH)))
    count, kinds = _cyclic_garbage(system, 150)
    assert count <= 0.5 * system.completed_total, kinds


def test_committed_incarnation_retires_after_its_slot_published():
    system = repro.build_system("2PC", repro.baseline_rc_dc(mpl=3), seed=1)
    published = []

    def on_commit(event):
        txn = event.txn
        # Subscribers still see every link when the event is published.
        assert txn.master is not None and txn.cohorts
        published.append((txn, txn.master, list(txn.cohorts)))

    system.bus.subscribe(EventKind.TXN_COMMIT, on_commit)
    system.run(measured_transactions=60, warmup_transactions=6)
    assert published
    for txn, master, cohorts in published:
        assert txn.master is None
        assert txn.cohorts == []
        assert master.cohorts == [] and master.prepared_cohorts == []
        assert master.txn is txn
        for cohort in cohorts:
            assert cohort.txn is txn
            assert cohort.master is None


@pytest.mark.faults
def test_in_doubt_cohort_keeps_its_incarnation_linked_until_resolved():
    """A cohort a site crash left in doubt resolves after the rest of
    its incarnation ended; until it does, 3PC's termination round and
    the status inquiry must still reach its peers and its master."""
    system = repro.build_system(
        "3PC", repro.baseline_rc_dc(mpl=3), seed=1,
        faults=FaultConfig(region=RegionPlan.parse(HARSH)))
    injector = system.faults
    protocol = system.protocol
    note_resolved = injector.note_resolved
    termination_round = protocol.termination_round
    late = []
    rounds_after_the_rest_ended = []

    def checking_note_resolved(cohort):
        txn = cohort.txn
        if txn.running_agents == 0:
            late.append(txn)
            assert cohort in txn.cohorts
            assert cohort.master is txn.master is not None
        note_resolved(cohort)
        in_doubt = [peer for peer in txn.cohorts if peer.state in (
            CohortState.PREPARED, CohortState.PRECOMMITTED)]
        assert (txn.master is None) == (txn.running_agents == 0
                                        and not in_doubt)

    def checking_termination_round(cohort):
        if cohort.txn.running_agents == 0:
            rounds_after_the_rest_ended.append(cohort)
            assert len(cohort.txn.cohorts) == len(cohort.txn.spec.accesses)
        return (yield from termination_round(cohort))

    injector.note_resolved = checking_note_resolved
    protocol.termination_round = checking_termination_round
    system.run(measured_transactions=150, warmup_transactions=0)
    assert late, "no cohort resolved after its incarnation's agents ended"
    assert rounds_after_the_rest_ended
