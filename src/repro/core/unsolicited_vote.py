"""Unsolicited Vote (UV) -- an "other protocol" from paper Section 2.5.

In UV (distributed INGRES, Stonebraker 1979) a cohort enters the
prepared state *unilaterally* when it finishes its work: it force-writes
its prepare record and its YES vote rides on the work-completion report,
eliminating the master's PREPARE round entirely.  The decision round is
:class:`~repro.core.two_phase.TwoPhaseCommit`'s, inherited as is; with
``presumed = COMMITTED`` this class is Early Prepare.

Committing-transaction message counts at ``DistDegree = 3``: the two
PREPARE messages disappear and the two votes *are* the completion
reports, so the wire carries 8 messages per transaction instead of
2PC's 12 (forced writes unchanged at 7).

Why there is deliberately **no** OPT-UV variant: the paper's Section 3.2
warns that protocols "which do not guarantee that a cohort which has
unilaterally entered the prepared state will not be forced back later
into an active state" break OPT's bounded-abort-chain argument --
lending from a UV-prepared cohort can cascade aborts, produce unbounded
shelf times, and create lender/borrower deadlocks.  Subclassing
``UnsolicitedVote`` with ``lending = True`` raises at construction.
"""

from __future__ import annotations

import typing

from repro.core.base import CohortGenerator, MasterGenerator
from repro.core.two_phase import TwoPhaseCommit
from repro.db.messages import MessageKind
from repro.db.transaction import (
    CohortAgent,
    CohortState,
    MasterAgent,
    TransactionOutcome,
)
from repro.db.wal import LogRecordKind
from repro.obs.events import CommitPhase
from repro.sim.events import Event


class UnsolicitedVote(TwoPhaseCommit):
    """2PC with unsolicited votes piggybacked on completion reports."""

    name = "UV"

    def __init__(self) -> None:
        super().__init__()
        if self.lending:
            raise TypeError(
                "OPT cannot be combined with Unsolicited Vote: a "
                "unilaterally prepared cohort offers no guarantee it "
                "will not be forced back to the active state, which "
                "breaks OPT's bounded abort chain (paper Section 3.2)")

    def master_begin(self, master: MasterAgent,
                     ) -> typing.Generator[Event, typing.Any, None]:
        if self.presumed is TransactionOutcome.COMMITTED:
            # The membership record must be durable before any cohort
            # can unilaterally enter the prepared state.
            yield from master.force_log(LogRecordKind.COLLECTING)

    # ------------------------------------------------------------------
    # Cohort side: prepare unilaterally, vote with the work report.
    # ------------------------------------------------------------------
    def send_workdone(self, cohort: CohortAgent,
                      ) -> typing.Generator[Event, typing.Any, None]:
        assert self.system is not None
        master = cohort.master
        assert master is not None
        if self.system.surprise_no_vote():
            yield from self.vote_no(cohort)
            yield from cohort.send(MessageKind.VOTE_NO, master)
            return
        yield from cohort.prepare()
        yield from cohort.send(MessageKind.VOTE_YES, master)

    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        if cohort.state is CohortState.PREPARED:  # else aborted on its NO
            yield from self.cohort_decision(cohort)

    # ------------------------------------------------------------------
    # Master side: the votes arrived with the completion reports.
    # ------------------------------------------------------------------
    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        master.prepared_cohorts = [
            message.sender for message in master.early_votes
            if message.kind is MessageKind.VOTE_YES]
        # Every cohort reported once (local ones for free), so all voted
        # YES iff each is prepared.
        all_yes = len(master.prepared_cohorts) == len(master.cohorts)
        master.mark_phase(CommitPhase.DECIDE)
        if all_yes:
            yield from self.master_commit_phase(master)
            return TransactionOutcome.COMMITTED
        yield from self.master_abort_phase(master)
        return self.abort_outcome(master)
