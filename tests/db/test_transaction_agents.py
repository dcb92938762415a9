"""Tests for transaction agents: execution order, shelf, decisions."""

import pytest

import repro
from repro.config import ModelParams, TransactionType
from repro.core import create_protocol
from repro.db.system import DistributedSystem
from repro.db.transaction import CohortState, TransactionOutcome
from repro.obs.events import EventKind
from repro.sim.events import Event


def make_system(protocol="2PC", **overrides):
    defaults = dict(num_sites=3, db_size=600, mpl=1, dist_degree=3,
                    cohort_size=2)
    defaults.update(overrides)
    return DistributedSystem(ModelParams(**defaults),
                             create_protocol(protocol))


class TestExecutionPhases:
    def test_parallel_cohorts_overlap(self):
        """In a parallel transaction, remote cohorts' disk reads overlap:
        the transaction finishes far sooner than the serial sum."""
        par = make_system()
        seq = make_system(trans_type=TransactionType.SEQUENTIAL)
        r_par = par.run(measured_transactions=30, warmup_transactions=5)
        r_seq = seq.run(measured_transactions=30, warmup_transactions=5)
        assert r_par.response_time_ms < r_seq.response_time_ms

    def test_sequential_cohorts_one_at_a_time(self):
        """With sequential execution, at most one cohort of a
        transaction is ever executing."""
        system = make_system(trans_type=TransactionType.SEQUENTIAL)
        violations = []

        def watch(env, txn):
            while txn.outcome is None and not txn.aborting:
                executing = [c for c in txn.cohorts
                             if c.state is CohortState.EXECUTING]
                if len(executing) > 1:
                    violations.append(txn.name)
                yield env.timeout(5.0)

        system.bus.subscribe(
            (EventKind.TXN_SUBMIT, EventKind.TXN_RESTART),
            lambda event: system.env.process(
                watch(system.env, event.txn)))
        system.run(measured_transactions=20, warmup_transactions=0)
        assert violations == []

    def test_transaction_outcome_recorded(self):
        system = make_system()
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, 0.0)
        system.env.run(until=txn.master.process)
        assert txn.outcome is TransactionOutcome.COMMITTED

    def test_live_processes_empty_after_completion(self):
        system = make_system()
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, 0.0)
        system.env.run(until=txn.master.process)
        # Cohorts of PC/2PC may finish slightly after the master (ACK
        # processing): drain the queue.
        system.env.run()
        assert txn.live_processes() == []


class TestShelfMechanics:
    def test_shelf_event_released_when_lender_resolves(self):
        """Direct unit test of wait_off_shelf."""
        system = make_system("OPT")
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, 0.0)
        cohort = txn.cohorts[0]
        other_spec = system.workload.generate(1)
        other_txn = system._launch(other_spec, 0, 0.0)
        lender = other_txn.cohorts[0]
        log = []

        def borrower_process(env):
            cohort.add_lender(lender)
            yield from cohort.wait_off_shelf()
            log.append(env.now)

        def resolver(env):
            yield env.timeout(50.0)
            cohort.remove_lender(lender)

        env = system.env
        env.process(borrower_process(env))
        env.process(resolver(env))
        env.run(until=60.0)
        assert log == [50.0]

    def test_wait_off_shelf_immediate_without_lenders(self):
        system = make_system("OPT")
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, 0.0)
        cohort = txn.cohorts[0]
        log = []

        def proc(env):
            yield from cohort.wait_off_shelf()
            log.append(env.now)
            yield env.timeout(0)

        system.env.process(proc(system.env))
        system.env.run(until=1.0)
        assert log == [0.0]

    def test_shelf_counted_in_metrics(self):
        params = ModelParams(num_sites=4, db_size=240, mpl=6,
                             dist_degree=2, cohort_size=3)
        result = repro.simulate("OPT", params=params,
                                measured_transactions=300,
                                warmup_transactions=30)
        # Heavy contention: some borrowers must have hit the shelf.
        assert result.shelf_entries > 0


class TestDecisionImplementation:
    def test_commit_schedules_deferred_writes(self):
        system = make_system()
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, 0.0)
        system.env.run(until=txn.master.process)
        system.env.run()  # drain the deferred page writes
        written = sum(site.pages_written for site in system.sites)
        updated = sum(len(a.updated_pages) for a in spec.accesses)
        assert written == updated

    def test_abort_discards_deferred_writes(self):
        system = make_system(surprise_abort_prob=1.0)
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, 0.0)
        outcome = system.env.run(until=txn.master.process)
        assert outcome is TransactionOutcome.ABORTED
        system.env.run()
        assert sum(site.pages_written for site in system.sites) == 0

    def test_read_only_transaction_writes_nothing(self):
        system = make_system(update_prob=0.0)
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, 0.0)
        system.env.run(until=txn.master.process)
        system.env.run()
        assert sum(site.pages_written for site in system.sites) == 0
