"""Lifecycle tracing with :class:`repro.obs.EventLog`: what a run's event
log shows about submissions, borrows, restarts and deadlock victims."""

import repro
from repro.config import ModelParams
from repro.db.transaction import AbortReason
from repro.obs import EventLog
from repro.obs.events import EventKind

LIFECYCLE = (EventKind.TXN_SUBMIT, EventKind.TXN_RESTART,
             EventKind.TXN_COMMIT, EventKind.TXN_ABORT, EventKind.BORROW,
             EventKind.SHELF_ENTER, EventKind.DEADLOCK_VICTIM)


def traced_run(protocol="OPT", limit=None, **overrides):
    defaults = dict(num_sites=4, db_size=400, mpl=4, dist_degree=2,
                    cohort_size=3)
    defaults.update(overrides)
    system = repro.build_system(protocol, params=ModelParams(**defaults))
    log = EventLog(kinds=LIFECYCLE, limit=limit).attach(system.bus)
    result = system.run(measured_transactions=150, warmup_transactions=0)
    return log, result


class TestTracer:
    def test_records_submissions_and_commits(self):
        log, _ = traced_run()
        assert log.of_kind(EventKind.TXN_SUBMIT)
        assert len(log.of_kind(EventKind.TXN_COMMIT)) >= 150

    def test_borrows_traced_for_opt(self):
        log, result = traced_run("OPT")
        borrows = log.of_kind(EventKind.BORROW)
        # Warmup is zero, so the log saw exactly the measured borrows.
        assert len(borrows) == round(result.borrow_ratio
                                     * result.committed)
        assert borrows, "contended OPT run must borrow"

    def test_no_borrows_for_2pc(self):
        log, _ = traced_run("2PC")
        assert log.of_kind(EventKind.BORROW) == []

    def test_restarts_follow_aborts(self):
        log, _ = traced_run("2PC", db_size=160, mpl=6)
        aborts = log.of_kind(EventKind.TXN_ABORT)
        restarts = log.of_kind(EventKind.TXN_RESTART)
        assert aborts and restarts, "contended run must abort and restart"
        # Each restart is a later incarnation of an aborted txn id.
        aborted_ids = {event.txn.txn_id for event in aborts}
        assert {event.txn.txn_id for event in restarts} <= aborted_ids
        assert all(event.txn.incarnation > 0 for event in restarts)

    def test_deadlock_victims_tagged(self):
        log, _ = traced_run("2PC", db_size=160, mpl=6)
        victims = {event.txn for event
                   in log.of_kind(EventKind.DEADLOCK_VICTIM)}
        deadlock_aborts = [event for event in log.of_kind(EventKind.TXN_ABORT)
                           if event.reason is AbortReason.DEADLOCK]
        assert deadlock_aborts, "contended run must deadlock"
        assert all(event.txn in victims for event in deadlock_aborts)

    def test_counts_summary(self):
        log, _ = traced_run()
        counts = {kind: len(log.of_kind(kind)) for kind in LIFECYCLE}
        assert counts[EventKind.TXN_COMMIT] >= 150
        assert sum(counts.values()) == len(log)

    def test_of_transaction_filter(self):
        log, _ = traced_run()
        committed = log.of_kind(EventKind.TXN_COMMIT)[0].txn
        events = [event for event in log
                  if getattr(event, "txn", None) is committed]
        assert events[0].kind in (EventKind.TXN_SUBMIT,
                                  EventKind.TXN_RESTART)
        assert events[-1].kind is EventKind.TXN_COMMIT

    def test_limit_caps_memory(self):
        log, _ = traced_run(limit=10)
        assert len(log) == 10

    def test_tracing_does_not_change_results(self):
        plain = repro.simulate("OPT", mpl=4, num_sites=4, db_size=400,
                               dist_degree=2, cohort_size=3,
                               measured_transactions=150,
                               warmup_transactions=0)
        _, traced = traced_run("OPT")
        assert traced == plain
