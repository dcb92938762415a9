"""Transactions, masters, and cohorts.

The paper's transaction model (Section 2): one *master* process at the
originating site plus ``DistDegree`` *cohort* processes, one per
execution site (the master's site always hosts one cohort).  Cohorts
perform the data accesses; the master coordinates startup and runs the
commit protocol.

Agents (:class:`MasterAgent`, :class:`CohortAgent`) are created fresh for
every incarnation of a transaction, so messages and events can never leak
across restarts.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing

from repro.db.messages import Message, MessageKind
from repro.db.wal import LogRecordKind
from repro.obs.events import (
    CommitPhase,
    EventKind,
    PhaseTransition,
    ReplicaPropagate,
    ShelfEnter,
    TimeoutFired,
)
from repro.sim.events import Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Store

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.locks import LockMode
    from repro.db.site import Site
    from repro.db.system import DistributedSystem


class TransactionOutcome(enum.Enum):
    """Terminal state of one incarnation."""

    COMMITTED = "committed"
    ABORTED = "aborted"


class AbortReason(enum.Enum):
    """Why an incarnation aborted."""

    #: Chosen as deadlock victim (youngest in the cycle).
    DEADLOCK = "deadlock"
    #: A lender this transaction borrowed uncommitted data from aborted.
    LENDER_ABORT = "lender_abort"
    #: A cohort voted NO in the voting phase (Experiment 6).
    SURPRISE_VOTE = "surprise_vote"
    #: Cancelled by the Half-and-Half load controller (extension).
    LOAD_CONTROL = "load_control"
    #: A protocol-layer timeout expired (fault injection only).
    TIMEOUT = "timeout"
    #: The hosting site crashed (fault injection only).
    SITE_CRASH = "site_crash"


class CohortState(enum.Enum):
    """Lifecycle of a cohort (paper Sections 2.1 and 3)."""

    IDLE = "idle"                  # waiting for STARTWORK
    EXECUTING = "executing"        # performing data accesses
    ON_SHELF = "on_shelf"          # OPT: done, but lenders unresolved
    EXECUTED = "executed"          # WORKDONE sent, awaiting PREPARE
    PREPARED = "prepared"          # voted YES; update locks retained
    PRECOMMITTED = "precommitted"  # 3PC only
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclasses.dataclass(frozen=True)
class CohortAccess:
    """The fixed access set of one cohort (stable across restarts)."""

    site_id: int
    pages: tuple[int, ...]
    #: parallel to ``pages``: True where the page will be updated.
    updates: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.pages) != len(self.updates):
            raise ValueError("pages and updates must have equal length")
        if len(set(self.pages)) != len(self.pages):
            raise ValueError("duplicate pages in a cohort access set")

    @property
    def updated_pages(self) -> tuple[int, ...]:
        return tuple(p for p, u in zip(self.pages, self.updates) if u)

    @property
    def is_read_only(self) -> bool:
        return not any(self.updates)


@dataclasses.dataclass(frozen=True)
class TransactionSpec:
    """The immutable description of a transaction.

    A restarted transaction "makes the same data accesses as its
    original incarnation" (paper Section 4), so the spec survives
    restarts while agents do not.
    """

    txn_id: int
    origin_site: int
    accesses: tuple[CohortAccess, ...]

    def __post_init__(self) -> None:
        if not self.accesses:
            raise ValueError("a transaction needs at least one cohort")
        if self.accesses[0].site_id != self.origin_site:
            raise ValueError("first cohort must be at the origin site")
        sites = [a.site_id for a in self.accesses]
        if len(set(sites)) != len(sites):
            raise ValueError("one cohort per site")

    @property
    def total_pages(self) -> int:
        return sum(len(a.pages) for a in self.accesses)


class Transaction:
    """One incarnation of a transaction.

    Identity is ``(spec.txn_id, incarnation)``; the workload slot keeps
    the spec and bumps the incarnation on every restart.
    """

    def __init__(self, spec: TransactionSpec, incarnation: int,
                 first_submit_time: float, submit_time: float) -> None:
        self.spec = spec
        self.incarnation = incarnation
        #: submission time of incarnation 0 (response time baseline).
        self.first_submit_time = first_submit_time
        #: submission time of this incarnation (deadlock victim age).
        self.submit_time = submit_time
        self.master: MasterAgent | None = None
        self.cohorts: list[CohortAgent] = []
        self.outcome: TransactionOutcome | None = None
        self.abort_reason: AbortReason | None = None
        #: set synchronously when an abort is initiated so that deadlock
        #: detection and lending never double-abort an incarnation.
        self.aborting = False
        # Per-incarnation counters (reported on completion).
        self.pages_borrowed = 0
        self.messages_execution = 0
        self.messages_commit = 0
        #: remote messages that crossed datacenters (0 unless a multi-DC
        #: network topology is active; subset of the two counts above).
        self.messages_cross_dc = 0
        self.forced_writes = 0
        #: number of this transaction's cohorts currently blocked on a lock.
        self.blocked_cohorts = 0

    @property
    def txn_id(self) -> int:
        return self.spec.txn_id

    @property
    def name(self) -> str:
        return f"T{self.spec.txn_id}.{self.incarnation}"

    def is_younger_than(self, other: "Transaction") -> bool:
        """Deadlock victim ordering: later incarnation submit time wins."""
        return (self.submit_time, self.txn_id) > (other.submit_time,
                                                  other.txn_id)

    def live_processes(self) -> list[Process]:
        """All still-running agent processes of this incarnation."""
        processes = []
        if self.master is not None and self.master.process is not None \
                and self.master.process.is_alive:
            processes.append(self.master.process)
        for cohort in self.cohorts:
            if cohort.process is not None and cohort.process.is_alive:
                processes.append(cohort.process)
        return processes

    def __repr__(self) -> str:
        return f"<Transaction {self.name}>"


class Agent:
    """Common behaviour of masters and cohorts.

    Exposes the primitives the commit protocols are written against:
    ``send`` (charged message transfer), ``expect`` (the one bounded
    receive), ``force_log`` and ``log`` (WAL records).
    """

    def __init__(self, system: "DistributedSystem", txn: Transaction,
                 site: "Site") -> None:
        self.system = system
        self.txn = txn
        self.site = site
        self.inbox = Store(system.env, name=f"{self!r}-inbox")
        self.process: Process | None = None
        #: a get() that timed out without a message; expect reuses it so
        #: the mailbox's FIFO getter queue never holds stale entries that
        #: would swallow later messages.
        self._pending_get: Event | None = None

    # ------------------------------------------------------------------
    # Protocol primitives
    # ------------------------------------------------------------------
    def send(self, kind: MessageKind, receiver: "Agent",
             payload: typing.Any = None,
             ) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine: send a message (pays MsgCPU at both ends)."""
        message = Message(kind=kind, sender=self, receiver=receiver,
                          txn_id=self.txn.txn_id,
                          incarnation=self.txn.incarnation, payload=payload)
        yield from self.system.network.send(message)

    def expect(self, kinds: tuple[MessageKind, ...],
               timeout_ms: float | None, wait: str,
               ) -> typing.Generator[Event, typing.Any, Message | None]:
        """Coroutine: the next inbox message of one of ``kinds``.

        Every protocol wait is this one receive.  With the fault plane
        off (``timeout_ms`` None) it is one blocking get, and a message
        of any other kind is a protocol bug: RuntimeError.  Under faults
        the wait ends ``timeout_ms`` after it starts: stray (late or
        duplicate) kinds are skipped within that budget, never granted a
        fresh window, and at the deadline it publishes ``TimeoutFired``
        and returns None.  A timed-out get is kept (``_pending_get``)
        and reused by the next call: the Store queues getters FIFO, so
        abandoning a get would let a later message resolve the stale
        event and vanish.
        """
        if timeout_ms is None:
            message = yield self.inbox.get()
            if message.kind not in kinds:
                raise RuntimeError(
                    f"{self!r} waiting for {wait} got {message!r}")
            return message
        env = self.env
        deadline = env.now + timeout_ms
        remaining = timeout_ms
        while True:
            get = self._pending_get
            if get is None:
                get = self.inbox.get()
            if not get.triggered and remaining > 0:
                yield env.any_of([get, env.timeout(remaining)])
            if not get.triggered:
                break
            self._pending_get = None
            message = get.value
            if message.kind in kinds:
                return message
            remaining = deadline - env.now
        self._pending_get = get
        bus = self.system.bus
        if bus.has_subscribers(EventKind.TIMEOUT_FIRED):
            bus.publish(TimeoutFired(env.now, self, wait, timeout_ms))
        return None

    def force_log(self, kind: LogRecordKind,
                  ) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine: force-write a log record at this agent's site."""
        self.txn.forced_writes += 1
        yield from self.site.log_manager.force_write(
            kind, self.txn.txn_id, incarnation=self.txn.incarnation)

    def log(self, kind: LogRecordKind) -> None:
        """Write a non-forced log record (free, per the paper's model)."""
        self.site.log_manager.write(kind, self.txn.txn_id,
                                    incarnation=self.txn.incarnation)

    @property
    def env(self):
        return self.system.env


class CohortAgent(Agent):
    """A cohort: executes data accesses at one site, then follows the
    commit protocol's cohort side."""

    #: whether this agent's lock waits add wait-for edges.
    in_wait_for_graph = True

    def __init__(self, system: "DistributedSystem", txn: Transaction,
                 site: "Site", access: CohortAccess) -> None:
        super().__init__(system, txn, site)
        self.access = access
        self.state = CohortState.IDLE
        self.master: MasterAgent | None = None
        # Lock bookkeeping (maintained by the site's LockManager).
        self.held_locks: dict[int, "LockMode"] = {}
        self.lending_pages: set[int] = set()
        #: prepared cohorts whose uncommitted data this cohort borrowed.
        self.lenders: set["CohortAgent"] = set()
        self._shelf_event: Event | None = None
        #: when this incarnation entered the in-doubt state (blocked-lock
        #: accounting under faults; None while not in doubt).
        self.in_doubt_since: float | None = None

    # ------------------------------------------------------------------
    # OPT lending bookkeeping (driven by the LockManager)
    # ------------------------------------------------------------------
    def add_lender(self, lender: "CohortAgent") -> None:
        self.lenders.add(lender)

    def remove_lender(self, lender: "CohortAgent") -> None:
        """A lender committed; release the shelf if it was the last one."""
        self.lenders.discard(lender)
        if not self.lenders and self._shelf_event is not None \
                and not self._shelf_event.triggered:
            self._shelf_event.succeed()

    def wait_off_shelf(self) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine: block until every lender has resolved (OPT shelf).

        "The borrower is now put on the shelf ... it has to wait until
        the lender receives its global decision." (paper Section 3)
        """
        if not self.lenders:
            return
        self.state = CohortState.ON_SHELF
        self.system.bus.publish(ShelfEnter(self.env.now, self))
        self._shelf_event = Event(self.env)
        try:
            yield self._shelf_event
        finally:
            self._shelf_event = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> typing.Generator[Event, typing.Any, None]:
        """The cohort's life: STARTWORK, data accesses, shelf, WORKDONE,
        then the protocol's cohort commit phase."""
        try:
            ft = self.system.fault_timeouts
            message = yield from self.expect(
                (MessageKind.STARTWORK,), ft and ft.work_timeout_ms,
                "startwork")
            if message is None:
                # STARTWORK was lost; nothing was done, just quit.
                self.state = CohortState.ABORTED
                self.site.lock_manager.finalize(self, committed=False)
                return
            self.state = CohortState.EXECUTING
            yield from self._execute()
            # OPT: a borrower may not report completion while any of its
            # lenders is unresolved.
            yield from self.wait_off_shelf()
            self.state = CohortState.EXECUTED
            assert self.master is not None
            yield from self.system.protocol.send_workdone(self)
            yield from self.system.protocol.cohort_commit(self)
        except Interrupt as interrupt:
            self._cleanup_after_interrupt(interrupt.cause)

    def _execute(self) -> typing.Generator[Event, typing.Any, None]:
        """Perform the access sequence: lock, disk read, CPU, per page."""
        from repro.db.locks import LockMode  # local import: cycle guard
        for page, is_update in zip(self.access.pages, self.access.updates):
            mode = LockMode.UPDATE if is_update else LockMode.READ
            yield from self.site.lock_manager.acquire(self, page, mode)
            yield from self.site.read_page(page)

    # ------------------------------------------------------------------
    # Prepared state and decision implementation
    # ------------------------------------------------------------------
    def prepare(self) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine: force the prepare record and enter the prepared
        state, which releases read locks and -- for OPT protocols --
        makes the update locks lendable."""
        yield from self.force_log(LogRecordKind.PREPARE)
        self.state = CohortState.PREPARED
        self.site.lock_manager.prepare(self)

    def implement_commit(self) -> None:
        """Release locks and schedule the deferred update writes."""
        self.state = CohortState.COMMITTED
        self.site.lock_manager.finalize(self, committed=True)
        updated = self.access.updated_pages
        if updated:
            Timeout(self.env, 0.0).callbacks.append(
                functools.partial(self._flush_updates, iter(updated)))
            if self.system.replicas is not None:
                self.env.process(
                    self._replicate_updates(updated),
                    name=f"{self.txn.name}-replicate@{self.site.site_id}")

    def implement_abort(self) -> None:
        """Release locks; deferred updates are simply discarded."""
        self.state = CohortState.ABORTED
        self.site.lock_manager.finalize(self, committed=False)

    def _flush_updates(self, pages: typing.Iterator[int],
                       _event: Event) -> None:
        """Write the next of ``pages`` back to its data disk, and chain
        the write after it to this one's end.

        These writes happen after commit, off the transaction's response
        path, but they do consume data-disk capacity (paper Section 4.1).
        They wait on nothing but their own disk claims, so they run as
        those claims' callbacks, started by an event at the commit
        instant, not as a process.
        """
        page = next(pages, None)
        if page is not None:
            self.site.write_page(page).callbacks.append(
                functools.partial(self._flush_updates, pages))

    def _replicate_updates(self, pages: tuple[int, ...],
                           ) -> typing.Generator[Event, typing.Any, None]:
        """Ship committed updates to the replica sites (write all
        available).

        Runs post-commit, off the response path, like the deferred
        update writes themselves: one batched REPLICA_UPDATE message per
        remote replica site, applied there by a :class:`ReplicaApplier`.
        A replica that is down or across a severed link is dropped from
        the write set (the available-copies rule); it re-syncs through
        the WAL-replay path when it recovers.
        """
        system = self.system
        replicas = system.replicas
        assert replicas is not None
        bus = system.bus
        for site_id in replicas.replica_sites(self.access.site_id)[1:]:
            target = system.site_for(site_id)
            available = target.up and system.network.path_open(self.site,
                                                              target)
            if bus.has_subscribers(EventKind.REPLICA_PROPAGATE):
                bus.publish(ReplicaPropagate(
                    self.env.now, self.txn.txn_id, self.site.site_id,
                    site_id, len(pages), available))
            if not available:
                system.replica_writes_skipped += 1
                continue
            applier = ReplicaApplier(
                system, self.txn, target,
                CohortAccess(site_id=site_id, pages=pages,
                             updates=(True,) * len(pages)))
            applier.process = self.env.process(
                applier.run(), name=f"{self.txn.name}-replica@{site_id}")
            yield from self.send(MessageKind.REPLICA_UPDATE, applier,
                                 payload=pages)
            system.replica_updates_sent += 1

    # ------------------------------------------------------------------
    # Abort path
    # ------------------------------------------------------------------
    def _cleanup_after_interrupt(self, cause: object = None) -> None:
        """Undo local state when this incarnation is killed externally.

        A site crash that hits a prepared (or precommitted) cohort does
        *not* release its locks: the cohort becomes in-doubt -- that is
        2PC's blocking problem -- and is handed to the fault injector for
        resolution when the site recovers and replays its WAL.  A
        finished (committed or aborted) cohort has released its locks
        under its outcome already and keeps both.
        """
        if self.state in (CohortState.COMMITTED, CohortState.ABORTED):
            return
        if cause is AbortReason.SITE_CRASH and self.state in (
                CohortState.PREPARED, CohortState.PRECOMMITTED):
            faults = self.system.faults
            if faults is not None:
                faults.register_in_doubt(self)
                return
        self.state = CohortState.ABORTED
        self.site.lock_manager.finalize(self, committed=False)

    def __repr__(self) -> str:
        return f"<Cohort {self.txn.name}@{self.site.site_id}>"


class ReplicaApplier(CohortAgent):
    """Applies one committed cohort's updates at a replica site.

    Write-all-available: the committed primary cohort ships its updated
    pages in one REPLICA_UPDATE message; the applier takes an update
    lock per copy, writes a (non-forced) REPLICA_UPDATE WAL record, and
    pays the data-disk write, one page at a time.  Replica pages are
    disjoint from the hosting site's primary pages (the workload reads
    one local = primary copy), so applier locks only ever serialize
    appliers.  The wait-for graph is over transactions, though, and one
    committed transaction's appliers at two sites can hold and wait at
    once, closing cycles no agent is stuck in; so applier waits add no
    wait-for edges (they still queue FCFS and count as lock waits).
    They always drain, and a committed transaction is never a victim.
    """

    in_wait_for_graph = False

    def run(self) -> typing.Generator[Event, typing.Any, None]:
        from repro.db.locks import LockMode  # local import: cycle guard
        ft = self.system.fault_timeouts
        message = yield from self.expect(
            (MessageKind.REPLICA_UPDATE,), ft and ft.work_timeout_ms,
            "replica-update")
        if message is None:
            # The update died with the site or on a severed link; this
            # copy re-syncs at recovery (available copies).
            return
        self.state = CohortState.EXECUTING
        lock_manager = self.site.lock_manager
        for page in self.access.pages:
            if not self.site.up:
                # The replica crashed mid-apply: remaining copies
                # re-sync via WAL replay when the site recovers.
                break
            yield from lock_manager.acquire(self, page, LockMode.UPDATE)
            if not self.site.up:
                lock_manager.finalize(self, committed=False)
                break
            self.log(LogRecordKind.REPLICA_UPDATE)
            yield self.site.write_page(page)
            lock_manager.finalize(self, committed=True)
        self.state = CohortState.COMMITTED

    def __repr__(self) -> str:
        return f"<ReplicaApplier {self.txn.name}@{self.site.site_id}>"


class _WorkTimeout(Exception):
    """Raised inside the master's work-await when a completion report
    never arrives (faults active only); handled in :meth:`MasterAgent.run`."""


class MasterAgent(Agent):
    """The master: starts cohorts, gathers WORKDONEs, runs the commit
    protocol's master side, and reports the outcome."""

    def __init__(self, system: "DistributedSystem",
                 txn: Transaction, site: "Site") -> None:
        super().__init__(system, txn, site)
        self.cohorts: list[CohortAgent] = []
        #: cohorts that voted YES (reset by protocols during voting).
        self.prepared_cohorts: list[CohortAgent] = []
        #: cohorts that voted READ_ONLY (reset by protocols during voting).
        self.read_only_cohorts: list[CohortAgent] = []
        #: votes piggybacked on work-completion reports (Unsolicited
        #: Vote style protocols); consumed by their master_commit.
        self.early_votes: list[Message] = []
        #: the decision this master logged (set the instant a COMMIT or
        #: ABORT record hits the WAL) -- what survives a master crash.
        self.decided: TransactionOutcome | None = None

    def force_log(self, kind: LogRecordKind,
                  ) -> typing.Generator[Event, typing.Any, None]:
        faults = self.system.faults
        if faults is not None and kind is LogRecordKind.COMMIT:
            yield from faults.stall(self)  # a ``master_stall`` directive
        self._note_decision(kind)
        yield from super().force_log(kind)

    def log(self, kind: LogRecordKind) -> None:
        self._note_decision(kind)
        super().log(kind)

    def _note_decision(self, kind: LogRecordKind) -> None:
        # Record kinds append to the WAL synchronously, so ``decided``
        # always agrees with what recovery would read back.
        if kind is LogRecordKind.COMMIT:
            self.decided = TransactionOutcome.COMMITTED
        elif kind is LogRecordKind.ABORT:
            self.decided = TransactionOutcome.ABORTED

    def mark_phase(self, phase: CommitPhase) -> None:
        """Publish entry into a commit-processing phase (guarded)."""
        bus = self.system.bus
        if bus.has_subscribers(EventKind.PHASE):
            bus.publish(PhaseTransition(self.env.now, self.txn, phase,
                                        self.system.protocol.name))

    def run(self) -> typing.Generator[Event, typing.Any, TransactionOutcome]:
        """Full life of one incarnation; returns the outcome."""
        try:
            self.mark_phase(CommitPhase.EXECUTE)
            yield from self.system.protocol.master_begin(self)
            yield from self._start_and_await_work()
            self.mark_phase(CommitPhase.VOTE)
            outcome = yield from self.system.protocol.master_commit(self)
            self.txn.outcome = outcome
            return outcome
        except _WorkTimeout:
            outcome = self._abort_after_work_timeout()
            self.txn.outcome = outcome
            return outcome
        except Interrupt as interrupt:
            if interrupt.cause is AbortReason.SITE_CRASH \
                    and self._commit_is_durable():
                # The decision was already durable: the transaction *is*
                # committed, the crash only killed the coordinator's
                # process.  Cohorts resolve from the WAL.
                self.txn.outcome = TransactionOutcome.COMMITTED
                return TransactionOutcome.COMMITTED
            if self.txn.abort_reason is None:  # a site crash
                self.txn.abort_reason = interrupt.cause
            self.txn.outcome = TransactionOutcome.ABORTED
            return TransactionOutcome.ABORTED

    def _commit_is_durable(self) -> bool:
        """Whether a COMMIT record is stable: this master logged it, or
        the decider did (LIN-2PC's chain tail decides, not the master)."""
        if self.decided is TransactionOutcome.COMMITTED:
            return True
        decider = self.system.protocol.inquiry_site(self)
        return LogRecordKind.COMMIT in decider.log_manager.txn_kinds(
            self.txn.txn_id, self.txn.incarnation)

    _WORK_REPORT_KINDS = (MessageKind.WORKDONE, MessageKind.VOTE_YES,
                          MessageKind.VOTE_NO)

    def _start_and_await_work(
            self) -> typing.Generator[Event, typing.Any, None]:
        """Start the cohorts and gather one work report from each.

        Parallel transactions start every cohort at once; sequential
        ones start each cohort after the previous one reported (paper
        Section 4.1).  Each accepted report gives the next one a fresh
        window, so the phase waits at most ``len(cohorts) *
        work_timeout_ms`` in total.
        """
        from repro.config import TransactionType
        parallel = self.system.params.trans_type is TransactionType.PARALLEL
        if parallel:
            for cohort in self.cohorts:
                yield from self.send(MessageKind.STARTWORK, cohort)
        ft = self.system.fault_timeouts
        for cohort in self.cohorts:
            if not parallel:
                yield from self.send(MessageKind.STARTWORK, cohort)
            message = yield from self.expect(
                self._WORK_REPORT_KINDS, ft and ft.work_timeout_ms, "work")
            if message is None:
                raise _WorkTimeout
            if message.kind is not MessageKind.WORKDONE:
                # An unsolicited vote piggybacked on the completion report.
                self.early_votes.append(message)

    def _abort_after_work_timeout(self) -> TransactionOutcome:
        """A cohort never reported (lost STARTWORK/WORKDONE or a crashed
        site): abort the incarnation and reap its surviving cohorts."""
        txn = self.txn
        txn.aborting = True
        if txn.abort_reason is None:
            txn.abort_reason = AbortReason.TIMEOUT
        for cohort in self.cohorts:
            if cohort.process is not None and cohort.process.is_alive:
                cohort.process.interrupt(AbortReason.TIMEOUT)
        return TransactionOutcome.ABORTED

    def __repr__(self) -> str:
        return f"<Master {self.txn.name}@{self.site.site_id}>"
