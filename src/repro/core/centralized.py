"""Baseline commit processing (paper Section 5.1).

Both baselines commit like a centralized DBMS: the master force-writes a
single decision record and the cohorts implement the decision with no
messages and no further logging.

- **DPCC** runs this protocol on the normal *distributed* topology:
  data processing pays its messages, commit processing is free.  "While
  this system is clearly artificial, modeling it helps to isolate the
  effect of distributed commit processing on throughput"; it is the
  upper bound OPT is measured against.
- **CENT** runs it on the *centralized* topology (one site with the
  aggregate resources), removing distribution altogether.
"""

from __future__ import annotations

from repro.core.base import CohortGenerator, CommitProtocol, MasterGenerator
from repro.db.messages import Message, MessageKind
from repro.db.transaction import CohortAgent, MasterAgent, TransactionOutcome
from repro.db.wal import LogRecordKind


class CentralizedCommit(CommitProtocol):
    """One forced decision record; cohorts told for free."""

    def __init__(self, name: str = "DPCC") -> None:
        super().__init__()
        self.name = name

    def master_commit(self, master: MasterAgent) -> MasterGenerator:
        yield from master.force_log(LogRecordKind.COMMIT)
        # Decision distribution is free (centralized-commit abstraction):
        # deposit the decision directly in each cohort's inbox without
        # network involvement.
        for cohort in master.cohorts:
            cohort.inbox.put(Message(
                kind=MessageKind.COMMIT, sender=master, receiver=cohort,
                txn_id=master.txn.txn_id,
                incarnation=master.txn.incarnation))
        return TransactionOutcome.COMMITTED

    def cohort_commit(self, cohort: CohortAgent) -> CohortGenerator:
        assert self.system is not None
        ft = self.system.fault_timeouts
        message = yield from cohort.expect(
            (MessageKind.COMMIT,), ft and ft.decision_timeout_ms, "decision")
        if message is None:
            # Cohorts never enter the prepared state here, so a missing
            # decision (master's site crashed) is a plain local abort.
            cohort.implement_abort()
            return
        cohort.implement_commit()
