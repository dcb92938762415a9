"""Page locking: distributed strict 2PL with optional OPT lending.

Standard behaviour (paper Section 4.2): cohorts take read locks on pages
they read and update locks on pages they will update; all locks are held
until the PREPARE message arrives, at which point read locks are released
and update locks are retained until the global decision.

OPT behaviour (paper Section 3): when a cohort enters the *prepared*
state, its update locks become *lendable*.  A request that conflicts
only with lendable locks is granted immediately as a *borrow*; the lock
manager records borrower->lender edges so that

- a lender's commit releases its borrowers ("taken off the shelf"), and
- a lender's abort aborts its borrowers (abort chain of length one).

Waiters are strictly FCFS per page: a request is granted only when it is
at the head of the queue and compatible with all active holders (lendable
holders are bypassed when lending is enabled).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing

from repro.obs.bus import EventBus
from repro.obs.events import (
    Borrow,
    EventKind,
    LockBlock,
    LockGrant,
    LockRelease,
    LockRequest as LockRequestEvent,
    TxnBlock,
    TxnUnblock,
)
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.deadlock import WaitForGraph
    from repro.db.transaction import CohortAgent
    from repro.sim.engine import Environment


class LockMode(enum.Enum):
    """Page lock modes.  READ is shared, UPDATE is exclusive."""

    READ = "read"
    UPDATE = "update"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.READ and other is LockMode.READ

    def covers(self, other: "LockMode") -> bool:
        """True if holding ``self`` satisfies a request for ``other``."""
        return self is LockMode.UPDATE or other is LockMode.READ


@dataclasses.dataclass(eq=False)
class LockRequest:
    """A pending lock request parked in a page's FCFS queue.

    Identity-hashed (``eq=False``): the wait-for graph keys edges by the
    request object itself.
    """

    cohort: "CohortAgent"
    page: int
    mode: LockMode
    #: Grant event, created lazily: an uncontested request is granted
    #: synchronously inside ``acquire`` and never needs (or schedules)
    #: one -- that dead event used to cost an alloc + heap cycle on the
    #: lock fast path.
    event: Event | None = None

    def __repr__(self) -> str:
        return (f"<LockRequest {self.cohort.txn.name} page={self.page} "
                f"{self.mode.value}>")


class _LockEntry:
    """Lock state of one page."""

    __slots__ = ("holders", "lenders", "waiters")

    def __init__(self) -> None:
        #: active holders (including borrowers): cohort -> mode.
        self.holders: dict["CohortAgent", LockMode] = {}
        #: prepared lenders (OPT only): cohort -> mode (always UPDATE).
        self.lenders: dict["CohortAgent", LockMode] = {}
        self.waiters: collections.deque[LockRequest] = collections.deque()

    def is_free(self) -> bool:
        return not self.holders and not self.lenders and not self.waiters


class LockManager:
    """The lock manager of one site."""

    def __init__(self, env: "Environment", site_id: int,
                 wait_for_graph: "WaitForGraph",
                 lending_enabled: bool = False,
                 on_lender_abort: typing.Callable[["CohortAgent"], None]
                 | None = None,
                 bus: EventBus | None = None) -> None:
        self.env = env
        self.site_id = site_id
        self.wfg = wait_for_graph
        self.lending_enabled = lending_enabled
        #: behavioural callback -- the system must *abort* each borrower
        #: when its lender aborts; observation goes through the bus.
        self._on_lender_abort = on_lender_abort or (lambda cohort: None)
        #: instrumentation plane; a standalone manager gets a private bus.
        self.bus = bus if bus is not None else EventBus()
        self._entries: dict[int, _LockEntry] = {}
        #: lender cohort -> set of borrower cohorts.
        self._borrows: dict["CohortAgent", set["CohortAgent"]] = {}
        self._waiting_requests: dict["CohortAgent", LockRequest] = {}
        # Counters.
        self.grants = 0
        self.borrow_grants = 0
        self.waits = 0

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire(self, cohort: "CohortAgent", page: int, mode: LockMode,
                ) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine: obtain ``mode`` on ``page`` for ``cohort``.

        Returns when the lock is granted.  If the requesting transaction
        is chosen as a deadlock victim while waiting, the cohort process
        is interrupted by the system; the pending request is withdrawn by
        the cohort's cleanup via :meth:`finalize`.
        """
        entry = self._entry(page)
        held = cohort.held_locks.get(page)
        if held is not None and held.covers(mode):
            return  # already held in a sufficient mode
        bus = self.bus
        if bus.has_subscribers(EventKind.LOCK_REQUEST):
            bus.publish(LockRequestEvent(self.env.now, self.site_id,
                                         cohort, page, mode))
        request = LockRequest(cohort, page, mode)
        if not entry.waiters and self._grantable(entry, request):
            self._grant(entry, request)
            return
        request.event = Event(self.env)
        # Must wait: strict FCFS.
        entry.waiters.append(request)
        self._waiting_requests[cohort] = request
        self.waits += 1
        if bus.has_subscribers(EventKind.LOCK_BLOCK):
            bus.publish(LockBlock(self.env.now, self.site_id,
                                  cohort, page, mode))
        txn = cohort.txn
        txn.blocked_cohorts += 1
        if txn.blocked_cohorts == 1:
            bus.publish(TxnBlock(self.env.now, txn))
        self._refresh_wait_edges(entry)
        self.wfg.check_for_deadlock(cohort.txn)
        try:
            yield request.event
        finally:
            txn.blocked_cohorts -= 1
            if txn.blocked_cohorts == 0:
                bus.publish(TxnUnblock(self.env.now, txn))

    def _grantable(self, entry: _LockEntry, request: LockRequest,
                   ) -> bool:
        """Can the request be satisfied right now (ignoring the queue)?"""
        for holder, mode in entry.holders.items():
            if holder is request.cohort:
                continue
            if not mode.compatible_with(request.mode):
                return False
        if entry.lenders and not self.lending_enabled:
            return False
        # Lenders hold UPDATE locks, which conflict with everything; with
        # lending enabled they do not block the request (it borrows).
        return True

    def _grant(self, entry: _LockEntry, request: LockRequest) -> None:
        cohort = request.cohort
        held = cohort.held_locks.get(request.page)
        if held is None or request.mode is LockMode.UPDATE:
            cohort.held_locks[request.page] = request.mode
        entry.holders[cohort] = cohort.held_locks[request.page]
        self.grants += 1
        lenders = [lender for lender in entry.lenders if lender is not cohort]
        if lenders:
            self.borrow_grants += 1
            cohort.txn.pages_borrowed += 1
            self.bus.publish(Borrow(self.env.now, self.site_id, cohort,
                                    request.page))
            for lender in lenders:
                self._borrows.setdefault(lender, set()).add(cohort)
                cohort.add_lender(lender)
        if self.bus.has_subscribers(EventKind.LOCK_GRANT):
            self.bus.publish(LockGrant(self.env.now, self.site_id, cohort,
                                       request.page, request.mode,
                                       bool(lenders)))
        if request.event is not None and not request.event.triggered:
            request.event.succeed()

    # ------------------------------------------------------------------
    # State transitions driven by the commit protocols
    # ------------------------------------------------------------------
    def prepare(self, cohort: "CohortAgent") -> None:
        """The cohort entered the prepared state.

        Read locks are released; with lending enabled, its update locks
        become lendable (moved from *holders* to *lenders*).
        """
        touched: list[int] = []
        for page, mode in list(cohort.held_locks.items()):
            entry = self._entry(page)
            if mode is LockMode.READ:
                del cohort.held_locks[page]
                entry.holders.pop(cohort, None)
                touched.append(page)
            elif self.lending_enabled:
                entry.holders.pop(cohort, None)
                entry.lenders[cohort] = mode
                cohort.lending_pages.add(page)
                touched.append(page)
        for page in touched:
            self._scan(self._entry(page))
        self._gc(touched)

    def finalize(self, cohort: "CohortAgent", committed: bool) -> None:
        """Release everything the cohort holds (commit or abort).

        On commit, the cohort's borrowers lose a lender (possibly coming
        off the shelf).  On abort, each borrower is reported through the
        ``on_lender_abort`` callback so the system can abort it.
        """
        if self.bus.has_subscribers(EventKind.LOCK_RELEASE):
            self.bus.publish(LockRelease(self.env.now, self.site_id, cohort,
                                         committed))
        touched: list[int] = []
        # Withdraw a pending request, if any.
        request = self._waiting_requests.pop(cohort, None)
        if request is not None:
            # Only this request's edges go: a sibling cohort of the same
            # transaction may still wait at another site.
            self.wfg.clear_edges(request)
            entry = self._entries.get(request.page)
            if entry is not None:
                try:
                    entry.waiters.remove(request)
                except ValueError:
                    pass
                touched.append(request.page)
        # Drop all holdings and lendings.
        for page in list(cohort.held_locks):
            entry = self._entries.get(page)
            if entry is not None:
                entry.holders.pop(cohort, None)
                entry.lenders.pop(cohort, None)
                touched.append(page)
        for page in list(cohort.lending_pages):
            entry = self._entries.get(page)
            if entry is not None:
                entry.lenders.pop(cohort, None)
                touched.append(page)
        cohort.held_locks.clear()
        cohort.lending_pages.clear()
        # Resolve borrowers (in deterministic order: set iteration order
        # would vary run to run).
        borrowers = sorted(self._borrows.pop(cohort, set()),
                           key=lambda c: (c.txn.txn_id, c.txn.incarnation))
        for borrower in borrowers:
            if committed:
                borrower.remove_lender(cohort)
            else:
                self._on_lender_abort(borrower)
        # Re-scan affected pages.
        for page in touched:
            entry = self._entries.get(page)
            if entry is not None:
                self._scan(entry)
        self._gc(touched)

    # ------------------------------------------------------------------
    # Queue scanning
    # ------------------------------------------------------------------
    def _scan(self, entry: _LockEntry) -> None:
        """Grant waiters from the head of the queue while possible.

        Granting re-points the remaining waiters' wait-for edges at the
        new holder, which can *form* a cycle (the new holder may itself
        be waiting elsewhere), so detection must re-run for every waiter
        still blocked -- immediate detection, per the paper.
        """
        while entry.waiters:
            request = entry.waiters[0]
            if not self._grantable(entry, request):
                break
            entry.waiters.popleft()
            self._waiting_requests.pop(request.cohort, None)
            self.wfg.clear_edges(request)
            self._grant(entry, request)
        self._refresh_wait_edges(entry)
        for request in list(entry.waiters):
            self.wfg.check_for_deadlock(request.cohort.txn)

    def _refresh_wait_edges(self, entry: _LockEntry) -> None:
        """Recompute wait-for edges for the remaining waiters of a page.

        A waiter waits for (a) every *active* holder it conflicts with,
        (b) every earlier waiter (strict FCFS), and (c) lenders only when
        lending is disabled (with lending they will be borrowed from).
        Agents outside the graph (``in_wait_for_graph`` False) queue
        and block later waiters but wait for no one themselves.
        """
        earlier: list["CohortAgent"] = []
        for request in entry.waiters:
            if not request.cohort.in_wait_for_graph:
                earlier.append(request.cohort)
                continue
            blockers: set["CohortAgent"] = set()
            for holder, mode in entry.holders.items():
                if holder is request.cohort:
                    continue
                if not mode.compatible_with(request.mode):
                    blockers.add(holder)
            if not self.lending_enabled:
                blockers.update(entry.lenders)
            blockers.update(c for c in earlier if c is not request.cohort)
            self.wfg.set_edges(request, request.cohort.txn,
                               {b.txn for b in blockers})
            earlier.append(request.cohort)

    # ------------------------------------------------------------------
    # Helpers and introspection
    # ------------------------------------------------------------------
    def _entry(self, page: int) -> _LockEntry:
        entry = self._entries.get(page)
        if entry is None:
            entry = _LockEntry()
            self._entries[page] = entry
        return entry

    def _gc(self, pages: typing.Iterable[int]) -> None:
        for page in pages:
            entry = self._entries.get(page)
            if entry is not None and entry.is_free():
                del self._entries[page]

    def holders_of(self, page: int) -> dict["CohortAgent", LockMode]:
        entry = self._entries.get(page)
        return dict(entry.holders) if entry else {}

    def lenders_of(self, page: int) -> dict["CohortAgent", LockMode]:
        entry = self._entries.get(page)
        return dict(entry.lenders) if entry else {}

    def waiters_of(self, page: int) -> list[LockRequest]:
        entry = self._entries.get(page)
        return list(entry.waiters) if entry else []

    def borrowers_of(self, lender: "CohortAgent") -> set["CohortAgent"]:
        return set(self._borrows.get(lender, set()))

    def assert_consistent(self) -> None:
        """Internal invariant checks (used by tests).

        - no cohort both holds and lends the same page,
        - every lender is in the prepared (or later) state,
        - no waiter is also an active holder of a conflicting mode.
        """
        from repro.db.transaction import CohortState
        for page, entry in self._entries.items():
            overlap = set(entry.holders) & set(entry.lenders)
            if overlap:
                raise AssertionError(
                    f"page {page}: cohorts both hold and lend: {overlap}")
            for lender in entry.lenders:
                if lender.state not in (CohortState.PREPARED,
                                        CohortState.PRECOMMITTED):
                    raise AssertionError(
                        f"page {page}: non-prepared lender {lender}")

    def __repr__(self) -> str:
        return (f"<LockManager site={self.site_id} "
                f"entries={len(self._entries)} lending={self.lending_enabled}>")
