"""Three-phase (non-blocking) commit (paper Section 2.4; Skeen 1981).

A *precommit* phase is inserted between voting and the decision: after
all YES votes, the master forces a precommit record and sends PRECOMMIT
messages; cohorts force precommit records and acknowledge; only then is
the commit decision logged and distributed.  The preliminary decision
lets operational sites reach a global decision despite master failure --
at the cost of one extra message round trip and extra forced writes.

Committing-transaction overheads at ``DistDegree = 3`` (paper Table 3):
11 forced writes (3 prepare + master precommit + 3 cohort precommit +
master commit + 3 cohort commit) and 12 commit messages (six rounds of
two remote messages each).
"""

from __future__ import annotations

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


class ThreePhaseCommit(TwoPhaseCommit):
    """Skeen's non-blocking three-phase commit."""

    name = "3PC"
    non_blocking = True

    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        all_yes = yield from self.collect_votes(master)
        if not all_yes:
            # Abort is decided before the precommit phase; it proceeds
            # exactly as in 2PC.
            yield from self.master_abort_phase(master)
            return self.abort_outcome(master)
        # Precommit phase: the preliminary decision.  The WAL appends
        # the precommit record when its force starts, and recovery reads
        # it as commit (the ``precommit-record`` rule); this master never
        # aborts past this point, so a crash from the force onward still
        # counts as a commit (the cohorts resolve to commit from the WAL
        # or via the termination protocol).
        master.decided = TransactionOutcome.COMMITTED
        yield from master.force_log(LogRecordKind.PRECOMMIT)
        for cohort in master.prepared_cohorts:
            yield from master.send(MessageKind.PRECOMMIT, cohort)
        yield from self.collect_acks(master, MessageKind.PRECOMMIT_ACK,
                                     len(master.prepared_cohorts),
                                     wait="precommit-acks")
        # Decision phase.
        yield from self.master_commit_phase(master)
        return TransactionOutcome.COMMITTED

    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        vote = yield from self.cohort_vote(cohort)
        if vote != "yes":
            return
        master = cohort.master
        assert master is not None
        message = yield from self.await_decision(
            cohort, (MessageKind.ABORT, MessageKind.PRECOMMIT),
            wait="precommit")
        if message is None:
            return  # resolved through recovery
        if message.kind is MessageKind.ABORT:
            yield from cohort.force_log(LogRecordKind.ABORT)
            cohort.implement_abort()
            yield from cohort.send(MessageKind.ACK, master)
            return
        assert message.kind is MessageKind.PRECOMMIT, message
        yield from cohort.force_log(LogRecordKind.PRECOMMIT)
        # Precommitted cohorts still hold (and, under OPT, lend) their
        # update locks: the prepared window is *longer* than in 2PC,
        # which is exactly why OPT-3PC benefits more from lending.
        cohort.state = CohortState.PRECOMMITTED
        yield from cohort.send(MessageKind.PRECOMMIT_ACK, master)
        message = yield from self.await_decision(
            cohort, (MessageKind.COMMIT,))
        if message is None:
            return  # resolved through recovery
        yield from cohort.force_log(LogRecordKind.COMMIT)
        cohort.implement_commit()
        yield from cohort.send(MessageKind.ACK, master)

    # ------------------------------------------------------------------
    # Recovery: what "non-blocking" buys
    # ------------------------------------------------------------------
    def terminate_without_coordinator(self, cohort: CohortAgent):
        """Cooperative termination (Skeen): a precommitted participant
        can commit with its operational peers, no coordinator needed.

        Sound here because the master forces its precommit record before
        sending any PRECOMMIT message, and never aborts after that: a
        precommitted cohort implies commit is inevitable.

        A *prepared* (uncertain) cohort can also terminate when the
        round surfaces a peer that reached PRECOMMITTED (or logged a
        precommit/commit record): that peer's state proves the master
        forced its precommit record, after which commit is inevitable.
        With no such evidence the uncertain cohort must block -- the
        master may have precommitted without any PRECOMMIT message
        getting out, so unilaterally aborting is unsound here (classic
        3PC solves this with coordinator election and recovery
        obeying the elected decision; this model keeps the conservative
        rule and consults the coordinator's WAL instead).

        Under a *live partition* the non-blocking guarantee narrows to
        the majority side: a participant that cannot reach a majority of
        the cohort set must not decide (both sides deciding
        independently is how split brain happens), so it returns None,
        stays blocked holding its locks, and resolves against the
        coordinator's WAL after heal.  Site crashes alone (no severed
        links) keep the classic termination -- that is the regime
        Skeen's protocol was designed for."""
        if cohort.state not in (CohortState.PRECOMMITTED,
                                CohortState.PREPARED):
            return None
        reached = yield from self.termination_round(cohort)
        assert self.system is not None
        faults = self.system.faults
        if faults is not None and faults.partitions_active:
            total = len(cohort.txn.cohorts)
            if 2 * (reached + 1) <= total:
                return None  # minority side: block until heal
        if cohort.state is CohortState.PRECOMMITTED:
            return ("commit", "termination-protocol")
        if self._peer_commit_evidence(cohort):
            return ("commit", "termination-protocol")
        return None

    def _peer_commit_evidence(self, cohort: CohortAgent) -> bool:
        """Whether a reachable peer proves the precommit phase started."""
        assert self.system is not None
        network = self.system.network
        for peer in cohort.txn.cohorts:
            if peer is cohort or not peer.site.up:
                continue
            if not network.path_open(cohort.site, peer.site):
                continue
            if peer.state is CohortState.PRECOMMITTED:
                return True
            kinds = peer.site.log_manager.txn_kinds(
                cohort.txn.txn_id, cohort.txn.incarnation)
            if LogRecordKind.PRECOMMIT in kinds \
                    or LogRecordKind.COMMIT in kinds:
                return True
        return False

    def presumed_outcome(self, cohort: CohortAgent, kinds):
        """A prepared (not precommitted) cohort consults the coordinator
        log: a stable precommit record means commit was inevitable."""
        if LogRecordKind.PRECOMMIT in kinds:
            return ("commit", "precommit-record")
        return ("abort", "no-decision-record")
