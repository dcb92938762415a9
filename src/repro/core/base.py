"""The commit protocol interface.

A protocol supplies two generator methods -- the master side and the
cohort side of commit processing -- written against the agent primitives
(:meth:`~repro.db.transaction.Agent.send`,
:meth:`~repro.db.transaction.Agent.expect`,
:meth:`~repro.db.transaction.Agent.force_log`,
:meth:`~repro.db.transaction.Agent.log`).  Because message and log costs
are charged inside those primitives, the per-protocol overhead counts of
the paper's Tables 3 and 4 fall out of the implementation for free.
"""

from __future__ import annotations

import abc
import typing

from repro.db.messages import Message, MessageKind
from repro.db.transaction import (
    AbortReason,
    Agent,
    CohortAgent,
    MasterAgent,
    TransactionOutcome,
)
from repro.db.wal import LogRecordKind
from repro.obs.events import CommitPhase, EventKind, TxnResolvedInDoubt
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.site import Site
    from repro.db.system import DistributedSystem

MasterGenerator = typing.Generator[Event, typing.Any, TransactionOutcome]
CohortGenerator = typing.Generator[Event, typing.Any, None]

_VOTES = (MessageKind.VOTE_YES, MessageKind.VOTE_READ_ONLY,
          MessageKind.VOTE_NO)


class CommitProtocol(abc.ABC):
    """Base class for all commit protocols."""

    #: registry name, e.g. ``"2PC"``.
    name: str = "abstract"
    #: True for OPT variants: prepared cohorts lend their update locks.
    lending: bool = False
    #: True for protocols with an extra (precommit) phase.
    non_blocking: bool = False
    #: the outcome made cheap (paper Sections 2.2-2.3): ABORTED for
    #: presumed abort, COMMITTED for presumed commit, None for neither.
    presumed: TransactionOutcome | None = None

    def __init__(self) -> None:
        self.system: "DistributedSystem | None" = None

    def bind(self, system: "DistributedSystem") -> None:
        """Attach to the system being simulated (called by the system)."""
        self.system = system

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        """The master's commit processing; returns the outcome."""

    @abc.abstractmethod
    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        """The cohort's commit processing (from awaiting PREPARE on)."""

    def send_workdone(self, cohort: CohortAgent,
                      ) -> typing.Generator[Event, typing.Any, None]:
        """Report work completion to the master.

        Protocols that piggyback information on the completion report
        (e.g. Unsolicited Vote's YES votes) override this.
        """
        master = cohort.master
        assert master is not None
        yield from cohort.send(MessageKind.WORKDONE, master)

    def master_begin(self, master: MasterAgent,
                     ) -> typing.Generator[Event, typing.Any, None]:
        """Work the master must do *before* starting its cohorts.

        Early Prepare, for instance, must have its membership
        (collecting) record stable before any cohort can unilaterally
        prepare.  Default: nothing.
        """
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def collect_votes(self, master: MasterAgent,
                      ) -> typing.Generator[Event, typing.Any, bool]:
        """Send PREPARE to every cohort and gather the votes.

        Returns True iff every vote was YES.  YES-voters are recorded in
        ``master.prepared_cohorts`` (the set phase two must talk to);
        read-only voters (when the optimization is enabled) are recorded
        in ``master.read_only_cohorts`` and excluded from phase two.
        """
        assert self.system is not None
        master.prepared_cohorts = []
        master.read_only_cohorts = []
        for cohort in master.cohorts:
            yield from master.send(MessageKind.PREPARE, cohort)
        all_yes = True
        ft = self.system.fault_timeouts
        for _ in master.cohorts:
            message = yield from master.expect(
                _VOTES, ft and ft.vote_timeout_ms, "votes")
            if message is None:
                # A vote (or its PREPARE) is missing: abort.  The silent
                # cohorts resolve via WAL replay / inquiry.
                if master.txn.abort_reason is None:
                    master.txn.abort_reason = AbortReason.TIMEOUT
                all_yes = False
                break
            if message.kind is MessageKind.VOTE_YES:
                master.prepared_cohorts.append(message.sender)
            elif message.kind is MessageKind.VOTE_READ_ONLY:
                master.read_only_cohorts.append(message.sender)
            else:
                all_yes = False
        master.mark_phase(CommitPhase.DECIDE)
        return all_yes

    def cohort_vote(self, cohort: CohortAgent,
                    ) -> typing.Generator[Event, typing.Any, str]:
        """The cohort's voting step; returns ``"yes"``, ``"no"`` or
        ``"read_only"``.

        A NO vote is a unilateral abort (:meth:`vote_no`): the cohort
        undoes locally and never waits for a decision.
        """
        assert self.system is not None
        master = cohort.master
        assert master is not None
        ft = self.system.fault_timeouts
        message = yield from cohort.expect(
            (MessageKind.PREPARE, MessageKind.ABORT),
            ft and ft.work_timeout_ms, "prepare")
        if message is None or message.kind is MessageKind.ABORT:
            # PREPARE never came (lost, or the master is gone) or the
            # master already aborted.  Nothing was promised: abort
            # unilaterally.
            cohort.log(LogRecordKind.ABORT)
            cohort.implement_abort()
            if message is None:
                # Tell a master that may still be collecting.
                yield from cohort.send(MessageKind.VOTE_NO, master)
            return "no"
        if self.system.surprise_no_vote():
            yield from self.vote_no(cohort)
            yield from cohort.send(MessageKind.VOTE_NO, master)
            return "no"
        if (self.system.params.read_only_optimization
                and cohort.access.is_read_only):
            # Read-only optimization: one-phase finish, no log records.
            cohort.implement_commit()
            yield from cohort.send(MessageKind.VOTE_READ_ONLY, master)
            return "read_only"
        yield from cohort.prepare()
        yield from cohort.send(MessageKind.VOTE_YES, master)
        return "yes"

    def vote_no(self, cohort: CohortAgent,
                ) -> typing.Generator[Event, typing.Any, None]:
        """The local half of a NO vote: the cohort's abort record, then
        the undo.  The caller sends the vote."""
        yield from self.log_outcome(cohort, TransactionOutcome.ABORTED)
        cohort.implement_abort()

    def log_outcome(self, agent: Agent, outcome: TransactionOutcome,
                    ) -> typing.Generator[Event, typing.Any, None]:
        """Log ``outcome``'s record at ``agent``'s site: unforced when it
        is the presumed outcome (recovery presumes it anyway), forced
        otherwise."""
        kind = (LogRecordKind.COMMIT if outcome is TransactionOutcome.COMMITTED
                else LogRecordKind.ABORT)
        if outcome is self.presumed:
            agent.log(kind)
        else:
            yield from agent.force_log(kind)

    def abort_outcome(self, master: MasterAgent) -> TransactionOutcome:
        """Record a protocol-level (surprise-vote) abort on the txn."""
        if master.txn.abort_reason is not AbortReason.TIMEOUT:
            master.txn.abort_reason = AbortReason.SURPRISE_VOTE
        return TransactionOutcome.ABORTED

    # ------------------------------------------------------------------
    # Recovery machinery (fault injection only)
    # ------------------------------------------------------------------
    # Every protocol inherits one in-doubt resolution loop; protocols
    # customize it through four small hooks:
    #
    # - ``inquiry_site``: the decider's site, which a blocked cohort asks
    #   and whose WAL tells a crashed master whether it committed
    #   (default: the coordinator's site; Linear overrides with the
    #   chain tail, whose forced COMMIT record is the decision).
    # - ``terminate_without_coordinator``: a chance to decide without the
    #   coordinator at all (3PC's cooperative termination protocol).
    # - ``presumed_outcome``: what a recovered-but-amnesiac coordinator
    #   log implies (one rule reading ``presumed``; 3PC adds its
    #   precommit record).
    # - ``coordinator_finished``: whether the coordinator can still
    #   decide (inquiries keep retrying until then).

    def await_decision(self, cohort: CohortAgent,
                       expected: tuple[MessageKind, ...],
                       wait: str = "decision",
                       ) -> typing.Generator[Event, typing.Any,
                                             typing.Optional[Message]]:
        """The cohort's decision wait.

        Under faults the wait has a deadline; on expiry the cohort is in
        doubt and runs :meth:`resolve_in_doubt`, after which None is
        returned and the caller must finish without further protocol
        steps.
        """
        assert self.system is not None
        ft = self.system.fault_timeouts
        message = yield from cohort.expect(
            expected, ft and ft.decision_timeout_ms, wait)
        if message is None:
            yield from self.resolve_in_doubt(cohort)
        return message

    def collect_acks(self, master: MasterAgent,
                     expected_kind: MessageKind, count: int,
                     wait: str = "acks",
                     ) -> typing.Generator[Event, typing.Any, None]:
        """The master's ACK wait.

        Under faults, missing ACKs are abandoned after a deadline: the
        decision is already durable, and silent cohorts terminate through
        the recovery machinery, so waiting longer buys nothing.
        """
        assert self.system is not None
        ft = self.system.fault_timeouts
        for _ in range(count):
            message = yield from master.expect(
                (expected_kind,), ft and ft.ack_timeout_ms, wait)
            if message is None:
                break

    def resolve_in_doubt(self, cohort: CohortAgent,
                         ) -> typing.Generator[Event, typing.Any, None]:
        """Drive one in-doubt cohort to a decision (and implement it).

        Runs either inside the cohort's own process (decision wait timed
        out) or inside a recovering site's WAL-replay process (the crash
        killed the cohort).  A termination attempt comes first, then
        :meth:`inquire`; every blocking master has deadlines, so the
        coordinator always either decides or dies, and the inquiries
        terminate.
        """
        assert self.system is not None
        system = self.system
        if cohort.in_doubt_since is None:
            # Timed-out (not crashed) cohorts enter the in-doubt state
            # here; crash victims were stamped by register_in_doubt().
            cohort.in_doubt_since = system.env.now
        outcome_rule = yield from self.terminate_without_coordinator(cohort)
        if outcome_rule is None:
            outcome_rule = yield from self.inquire(cohort)
        outcome, rule = outcome_rule
        if outcome == "commit":
            yield from cohort.force_log(LogRecordKind.COMMIT)
            cohort.implement_commit()
        else:
            yield from cohort.force_log(LogRecordKind.ABORT)
            cohort.implement_abort()
        system.faults.note_resolved(cohort)
        bus = system.bus
        if bus.has_subscribers(EventKind.TXN_RESOLVED_IN_DOUBT):
            bus.publish(TxnResolvedInDoubt(system.env.now, cohort, outcome,
                                           rule))

    def inquire(self, agent: Agent,
                ) -> typing.Generator[Event, typing.Any, tuple[str, str]]:
        """Status inquiries against the decider's stable log until one of
        the rules yields ``(outcome, rule)``.

        Serves an in-doubt cohort and LIN-2PC's master alike (both ask
        :meth:`inquiry_site`).  A crashed decider is polled every
        ``resolve_retry_ms`` (site repairs are fast).  A decider across a
        severed link is polled with capped exponential backoff instead
        -- partitions can last much longer, and a failed retry every
        interval only burns CPU -- and the injector's heal event wakes
        the loop at once, so a healed link is never slept across.
        """
        assert self.system is not None
        system = self.system
        network = system.network
        base_retry = system.fault_timeouts.resolve_retry_ms
        retry = base_retry
        target = self.inquiry_site(agent)
        while True:
            path_open = network.path_open(agent.site, target)
            if target.up and path_open:
                ok = yield from network.inquiry_round_trip(agent, target)
                if ok:
                    retry = base_retry
                    outcome_rule = self.attempt_resolution(agent, target)
                    if outcome_rule is not None:
                        return outcome_rule
            elif not path_open:
                retry = min(retry * 2.0, base_retry * 8.0)
                healed = system.faults.heal_event()
                yield system.env.any_of([system.env.timeout(retry), healed])
                if healed.triggered:
                    retry = base_retry
                continue
            yield system.env.timeout(retry)

    def attempt_resolution(self, agent: Agent, site: "Site",
                           ) -> typing.Optional[tuple[str, str]]:
        """Classify one status-inquiry answer (a read of ``site``'s WAL).

        Returns ``(outcome, rule)`` or None when the coordinator exists
        but has not decided yet (the agent stays blocked and retries).
        """
        kinds = site.log_manager.txn_kinds(agent.txn.txn_id,
                                           agent.txn.incarnation)
        if LogRecordKind.COMMIT in kinds:
            return ("commit", "decision-record")
        if LogRecordKind.ABORT in kinds:
            return ("abort", "decision-record")
        if not self.coordinator_finished(agent):
            return None
        return self.presumed_outcome(agent, kinds)

    def presumed_outcome(self, cohort: CohortAgent,
                         kinds: set[LogRecordKind]) -> tuple[str, str]:
        """The presumption applied when the decider's log holds no
        decision record and the decider can no longer decide.

        Presumed nothing or presumed abort: abort (``no-decision-record``
        or ``presumed-abort``).  Presumed commit: a stable *collecting*
        record means commit (``presumed-commit``; docs/MODEL.md says how
        this cost-model reading diverges from a production PC), and
        without one the protocol never started, so abort
        (``no-collecting-record``).
        """
        if self.presumed is TransactionOutcome.ABORTED:
            return ("abort", "presumed-abort")
        if self.presumed is TransactionOutcome.COMMITTED:
            if LogRecordKind.COLLECTING in kinds:
                return ("commit", "presumed-commit")
            return ("abort", "no-collecting-record")
        return ("abort", "no-decision-record")

    def coordinator_finished(self, cohort: CohortAgent) -> bool:
        """True when the coordinator can no longer produce a decision."""
        master = cohort.master
        assert master is not None
        return master.process is None or not master.process.is_alive

    def inquiry_site(self, agent: Agent) -> "Site":
        """The decider's site: its stable log answers status inquiries."""
        master = agent.txn.master
        assert master is not None
        return master.site

    def terminate_without_coordinator(
            self, cohort: CohortAgent,
            ) -> typing.Generator[Event, typing.Any,
                                  typing.Optional[tuple[str, str]]]:
        """Protocol-specific termination that needs no coordinator
        (3PC overrides this with its cooperative termination round)."""
        return None
        yield  # pragma: no cover - makes this a generator

    def termination_round(self, cohort: CohortAgent,
                          ) -> typing.Generator[Event, typing.Any, int]:
        """Pay for one round of state exchange with every peer cohort.

        Returns how many peers were actually reached (site up, and the
        round trip crossed no severed link) -- 3PC's termination
        protocol uses the count to commit only with a majority in hand
        while a partition is live.
        """
        assert self.system is not None
        network = self.system.network
        reached = 0
        for peer in cohort.txn.cohorts:
            if peer is cohort:
                continue
            ok = yield from network.inquiry_round_trip(cohort, peer.site)
            if ok and peer.site.up:
                reached += 1
        return reached

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
