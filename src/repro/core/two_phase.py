"""The classical two-phase commit protocol (paper Section 2.1), and the
one decision round the whole 2PC family shares.

Committing-transaction overheads at ``DistDegree = 3`` (one cohort local
to the master, two remote), matching paper Table 3:

- commit messages: 2 PREPARE + 2 YES + 2 COMMIT + 2 ACK = 8;
- forced writes: 3 cohort *prepare* + 1 master *commit* + 3 cohort
  *commit* = 7.

Presumed abort and presumed commit (Sections 2.2-2.3) are this protocol
with one outcome made cheap, named by the class attribute
:attr:`~repro.core.base.CommitProtocol.presumed`.  For the presumed
outcome, cohorts log their decision record unforced and send no ACK,
and the master waits for no ACKs and writes no end record.  Presumed
abort also leaves the master's abort record unforced; presumed commit
forces a *collecting* record before voting starts.
"""

from __future__ import annotations

from repro.core.base import CohortGenerator, CommitProtocol, MasterGenerator
from repro.db.messages import MessageKind
from repro.db.transaction import CohortAgent, MasterAgent, TransactionOutcome
from repro.db.wal import LogRecordKind
from repro.obs.events import CommitPhase


class TwoPhaseCommit(CommitProtocol):
    """Two-phase commit; presumed nothing unless ``presumed`` says so."""

    name = "2PC"

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        if self.presumed is TransactionOutcome.COMMITTED:
            # The collecting record (cohort roster) must be stable before
            # any cohort can enter the prepared state.
            yield from master.force_log(LogRecordKind.COLLECTING)
        all_yes = yield from self.collect_votes(master)
        if all_yes:
            yield from self.master_commit_phase(master)
            return TransactionOutcome.COMMITTED
        yield from self.master_abort_phase(master)
        return self.abort_outcome(master)

    def master_commit_phase(self, master: MasterAgent):
        """Force the commit record, then send the decision."""
        yield from master.force_log(LogRecordKind.COMMIT)
        yield from self.send_decision(master, TransactionOutcome.COMMITTED)

    def master_abort_phase(self, master: MasterAgent):
        """Log the abort record (forced unless abort is presumed), then
        send the decision."""
        yield from self.log_outcome(master, TransactionOutcome.ABORTED)
        yield from self.send_decision(master, TransactionOutcome.ABORTED)

    def send_decision(self, master: MasterAgent, outcome: TransactionOutcome):
        """Tell the prepared cohorts; unless ``outcome`` is the presumed
        one, await their ACKs and write the end record."""
        kind = (MessageKind.COMMIT if outcome is TransactionOutcome.COMMITTED
                else MessageKind.ABORT)
        for cohort in master.prepared_cohorts:
            yield from master.send(kind, cohort)
        if outcome is self.presumed:
            return
        master.mark_phase(CommitPhase.ACK)
        yield from self.collect_acks(master, MessageKind.ACK,
                                     len(master.prepared_cohorts))
        master.log(LogRecordKind.END)

    # ------------------------------------------------------------------
    # Cohort side
    # ------------------------------------------------------------------
    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        vote = yield from self.cohort_vote(cohort)
        if vote == "yes":
            yield from self.cohort_decision(cohort)

    def cohort_decision(self, cohort: CohortAgent):
        """Receive and implement the global decision: the presumed
        outcome unforced and unacknowledged, the other forced and
        acknowledged."""
        master = cohort.master
        assert master is not None
        message = yield from self.await_decision(
            cohort, (MessageKind.COMMIT, MessageKind.ABORT))
        if message is None:
            return  # resolved through recovery; no ACK to send
        committed = message.kind is MessageKind.COMMIT
        outcome = (TransactionOutcome.COMMITTED if committed
                   else TransactionOutcome.ABORTED)
        yield from self.log_outcome(cohort, outcome)
        if committed:
            cohort.implement_commit()
        else:
            cohort.implement_abort()
        if outcome is not self.presumed:
            yield from cohort.send(MessageKind.ACK, master)
