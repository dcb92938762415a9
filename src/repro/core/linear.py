"""Linear 2PC -- paper Sections 2.5 and 3.2 (Gray 1978).

"Message overheads are reduced by ordering the sites in a linear chain
for communication purposes."  The master talks only to the first
cohort; PREPARE flows rightward along the chain, with each cohort
preparing before forwarding; the *last* cohort holds every implicit YES
vote, so it makes and logs the commit decision and sends COMMIT back
leftward; each cohort commits as the decision passes through, and the
first cohort reports to the master.

Committing-transaction counts at ``DistDegree = 3`` (first cohort local
to the master, so its two messages are free): 2 PREPARE rightward plus
2 COMMIT leftward = **4** commit messages (half of 2PC's 8); forced
writes: 2 chain prepares + the decider's commit + 2 chain commits =
**5** (the master logs nothing durable -- the decision record lives at
the chain's tail).

The price is latency: the voting phase is fully serialized, so cohorts
near the *head* of the chain sit in the prepared state for the whole
round trip (about ``2(D-1)`` message hops) -- far longer than under
parallel 2PC.  That is why the paper calls linear 2PC "especially
attractive to integrate" with OPT: lending reclaims those long head
windows.  ``OPT-LIN`` is that combination.  (Note one nuance of the
classic chain: the *tail* cohort never enters the prepared state at all
-- it decides and commits in one step -- so it never lends; total
borrowing concentrates at the head of the chain.)

Abort handling: a NO-voting cohort force-writes its abort and sends
ABORT both leftward (prepared cohorts must roll back, master must be
told) and rightward (cohorts still awaiting PREPARE are released).
"""

from __future__ import annotations

from repro.core.base import CohortGenerator, CommitProtocol, MasterGenerator
from repro.db.messages import MessageKind
from repro.db.transaction import (
    AbortReason,
    Agent,
    CohortAgent,
    MasterAgent,
    TransactionOutcome,
)
from repro.db.wal import LogRecordKind


class LinearTwoPhaseCommit(CommitProtocol):
    """2PC over a communication chain."""

    name = "LIN-2PC"

    # ------------------------------------------------------------------
    # Chain helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _chain(cohort: CohortAgent):
        """(index, left neighbour or master, right neighbour or None)."""
        chain = cohort.txn.cohorts
        index = chain.index(cohort)
        left = cohort.master if index == 0 else chain[index - 1]
        right = chain[index + 1] if index + 1 < len(chain) else None
        return index, left, right

    # ------------------------------------------------------------------
    # Master side: one message out, one message in.
    # ------------------------------------------------------------------
    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        assert self.system is not None
        yield from master.send(MessageKind.PREPARE, master.cohorts[0])
        ft = self.system.fault_timeouts
        # The whole chain (2(D-1) hops plus forces) must complete before
        # the decision flows back: give it the work budget.
        message = yield from master.expect(
            (MessageKind.COMMIT, MessageKind.ABORT),
            ft and ft.work_timeout_ms, "chain-decision")
        if message is None:
            return (yield from self._master_resolve(master))
        if message.kind is MessageKind.COMMIT:
            # The decision record is durable at the chain's tail; the
            # master's own records are informational.
            master.log(LogRecordKind.COMMIT)
            master.log(LogRecordKind.END)
            return TransactionOutcome.COMMITTED
        master.log(LogRecordKind.ABORT)
        master.log(LogRecordKind.END)
        return self.abort_outcome(master)

    def _master_resolve(self, master: MasterAgent) -> MasterGenerator:
        """The chain went silent: resolve against the tail's stable log.

        The tail is this protocol's decider, so the master must not
        unilaterally abort -- the tail may already have forced COMMIT.
        :meth:`inquire` asks the tail, as an in-doubt cohort would: a
        decision record settles it; a dead tail with no record can never
        decide, so abort.
        """
        outcome, _ = yield from self.inquire(master)
        if outcome == "commit":
            master.log(LogRecordKind.COMMIT)
            master.log(LogRecordKind.END)
            return TransactionOutcome.COMMITTED
        master.log(LogRecordKind.ABORT)
        master.log(LogRecordKind.END)
        if master.txn.abort_reason is None:
            master.txn.abort_reason = AbortReason.TIMEOUT
        return TransactionOutcome.ABORTED

    # ------------------------------------------------------------------
    # Cohort side.
    # ------------------------------------------------------------------
    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        assert self.system is not None
        index, left, right = self._chain(cohort)
        ft = self.system.fault_timeouts
        message = yield from cohort.expect(
            (MessageKind.PREPARE, MessageKind.ABORT),
            ft and ft.work_timeout_ms, "chain-prepare")
        if message is None:
            # PREPARE never reached us: nothing was promised, quit.  Our
            # silence aborts the chain (left neighbours resolve against
            # the tail, which can never decide commit now).
            cohort.implement_abort()
            return
        if message.kind is MessageKind.ABORT:
            # A cohort to our left vetoed before we ever saw PREPARE.
            cohort.implement_abort()
            if right is not None:
                yield from cohort.send(MessageKind.ABORT, right)
            return
        if self.system.surprise_no_vote():
            yield from self.vote_no(cohort)
            # Veto: roll back the prepared chain to our left and release
            # the waiting chain to our right.
            yield from cohort.send(MessageKind.ABORT, left)
            if right is not None:
                yield from cohort.send(MessageKind.ABORT, right)
            return
        if right is None:
            # Chain tail: every earlier cohort voted YES by forwarding,
            # so the decision is commit -- log it durably here.
            yield from cohort.force_log(LogRecordKind.COMMIT)
            cohort.implement_commit()
            yield from cohort.send(MessageKind.COMMIT, left)
            return
        # Interior (or first) cohort: prepare, forward, await decision.
        yield from cohort.prepare()
        yield from cohort.send(MessageKind.PREPARE, right)
        decision = yield from self.await_decision(
            cohort, (MessageKind.COMMIT, MessageKind.ABORT),
            wait="chain-decision")
        if decision is None:
            return  # resolved against the tail's log; left does the same
        if decision.kind is MessageKind.COMMIT:
            yield from cohort.force_log(LogRecordKind.COMMIT)
            cohort.implement_commit()
        else:
            assert decision.kind is MessageKind.ABORT, decision
            yield from cohort.force_log(LogRecordKind.ABORT)
            cohort.implement_abort()
        yield from cohort.send(decision.kind, left)

    # ------------------------------------------------------------------
    # Recovery: the chain's decider is the tail, not the master.
    # ------------------------------------------------------------------
    # The master asks the tail too (``inquire(master)`` when the chain
    # goes silent; a crashed master reads the tail's WAL), so these
    # hooks take any agent of the transaction.
    def inquiry_site(self, agent: Agent):
        return agent.txn.cohorts[-1].site

    def coordinator_finished(self, agent: Agent) -> bool:
        tail = agent.txn.cohorts[-1]
        return tail.process is None or not tail.process.is_alive
    # presumed_outcome stays the base rule: the tail forces its COMMIT
    # record *before* propagating the decision, so a dead tail with no
    # record never decided, and abort is safe.


class OptimisticLinear(LinearTwoPhaseCommit):
    """OPT on the linear chain -- the combination the paper singles out
    as especially attractive (Section 3.2), because the serialized
    voting phase maximizes the prepared window that lending reclaims."""

    name = "OPT-LIN"
    lending = True
