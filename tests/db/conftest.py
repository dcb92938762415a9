"""Shared fixtures for substrate tests.

The lock manager and wait-for graph are tested against lightweight fake
cohorts/transactions (duck-typed): unit tests should not need to stand
up the whole distributed system.
"""

from __future__ import annotations

import itertools

import pytest

from repro.db.deadlock import WaitForGraph
from repro.db.locks import LockManager
from repro.db.transaction import CohortState
from repro.obs.events import EventKind
from repro.sim import Environment

_ids = itertools.count(1)


class FakeTransaction:
    """Duck-typed stand-in for :class:`repro.db.transaction.Transaction`."""

    def __init__(self, submit_time: float = 0.0):
        self.txn_id = next(_ids)
        self.incarnation = 0
        self.submit_time = submit_time
        self.aborting = False
        self.outcome = None
        self.abort_reason = None
        self.pages_borrowed = 0
        self.blocked_cohorts = 0
        self.messages_execution = 0
        self.messages_commit = 0
        self.messages_cross_dc = 0
        self.forced_writes = 0

    @property
    def name(self):
        return f"T{self.txn_id}.{self.incarnation}"

    def is_younger_than(self, other):
        return (self.submit_time, self.txn_id) > (other.submit_time,
                                                  other.txn_id)

    def __repr__(self):
        return f"<FakeTxn {self.name}>"


class FakeCohort:
    """Duck-typed stand-in for :class:`repro.db.transaction.CohortAgent`."""

    in_wait_for_graph = True

    def __init__(self, txn: FakeTransaction | None = None,
                 submit_time: float = 0.0):
        self.txn = txn or FakeTransaction(submit_time)
        self.state = CohortState.EXECUTING
        self.held_locks = {}
        self.lending_pages = set()
        self.lenders = set()
        self.off_shelf_calls = []

    def add_lender(self, lender):
        self.lenders.add(lender)

    def remove_lender(self, lender):
        self.lenders.discard(lender)
        self.off_shelf_calls.append(lender)

    def __repr__(self):
        return f"<FakeCohort {self.txn.name}>"


class Recorder:
    """Collects lock-manager activity: behavioural callbacks plus lock
    traffic observed on the manager's event bus."""

    def __init__(self):
        self.lender_aborts = []
        self.borrows = []
        #: (cohort, started_waiting) transitions, in order.
        self.wait_changes = []
        self.victims = []
        self._waiting = set()

    def subscribe(self, bus):
        """Observe a lock manager's bus (borrows and wait transitions)."""
        return bus.subscribe_map({
            EventKind.BORROW:
                lambda e: self.borrows.append((e.cohort, e.page)),
            EventKind.LOCK_BLOCK: self._on_block,
            # A waiting cohort stops waiting when granted, or when its
            # pending request is withdrawn by finalize.
            EventKind.LOCK_GRANT: self._on_unblock,
            EventKind.LOCK_RELEASE: self._on_unblock,
        })

    def _on_block(self, event):
        self._waiting.add(event.cohort)
        self.wait_changes.append((event.cohort, True))

    def _on_unblock(self, event):
        if event.cohort in self._waiting:
            self._waiting.discard(event.cohort)
            self.wait_changes.append((event.cohort, False))

    def on_lender_abort(self, borrower):
        self.lender_aborts.append(borrower)
        borrower.txn.aborting = True

    def on_victim(self, txn):
        self.victims.append(txn)
        txn.aborting = True


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def recorder():
    return Recorder()


@pytest.fixture
def wfg(recorder):
    return WaitForGraph(on_victim=recorder.on_victim)


@pytest.fixture
def lock_manager(env, wfg, recorder):
    """A lock manager with lending disabled (plain strict 2PL)."""
    manager = LockManager(env, site_id=0, wait_for_graph=wfg,
                          lending_enabled=False,
                          on_lender_abort=recorder.on_lender_abort)
    recorder.subscribe(manager.bus)
    return manager


@pytest.fixture
def lending_lock_manager(env, wfg, recorder):
    """A lock manager with OPT lending enabled."""
    manager = LockManager(env, site_id=0, wait_for_graph=wfg,
                          lending_enabled=True,
                          on_lender_abort=recorder.on_lender_abort)
    recorder.subscribe(manager.bus)
    return manager


def acquire_now(env, lock_manager, cohort, page, mode):
    """Drive an acquire coroutine to completion; fail if it would block."""
    done = []

    def runner():
        yield from lock_manager.acquire(cohort, page, mode)
        done.append(True)

    env.process(runner())
    env.run(until=env.now)
    if not done:
        raise AssertionError(
            f"{cohort} blocked acquiring page {page} {mode}")


def acquire_async(env, lock_manager, cohort, page, mode):
    """Start an acquire; return a list that gets True when granted."""
    done = []

    def runner():
        yield from lock_manager.acquire(cohort, page, mode)
        done.append(True)

    process = env.process(runner())
    env.run(until=env.now)
    return done, process
