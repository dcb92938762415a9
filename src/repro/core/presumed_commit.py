"""Presumed commit (paper Section 2.3).

The "in case of doubt, commit" recovery rule shifts the savings to
committing transactions:

- the master force-writes a *collecting* record (naming the cohorts)
  before initiating the protocol;
- cohorts do not force their commit records and do not acknowledge the
  COMMIT decision;
- the master writes no end record on commit.

Aborts, being now the unexpected outcome, must be fully recorded: the
master forces its abort record, cohorts force theirs and acknowledge.

All of it is :class:`~repro.core.two_phase.TwoPhaseCommit`'s decision
round and the base recovery rule, read with ``presumed = COMMITTED``.

Committing-transaction overheads at ``DistDegree = 3`` (paper Table 3):
5 forced writes (collecting + 3 prepare + master commit) and 6 commit
messages (2 PREPARE + 2 YES + 2 COMMIT).
"""

from __future__ import annotations

from repro.core.two_phase import TwoPhaseCommit
from repro.db.transaction import TransactionOutcome


class PresumedCommit(TwoPhaseCommit):
    """2PC with the presumed-commit optimization."""

    name = "PC"
    presumed = TransactionOutcome.COMMITTED
