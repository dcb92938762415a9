"""Early Prepare (EP) -- paper Section 2.5 (Stamos & Cristian).

Early Prepare combines Unsolicited Vote with Presumed Commit: cohorts
prepare unilaterally and vote on their completion reports (UV), and the
commit decision is presumed (PC), so commit needs neither cohort forced
commit records nor acknowledgements.  The price is paid up front: the
master must force its *collecting* (membership) record **before any
cohort starts work**, because a cohort may enter the prepared state at
any moment after that.  :class:`UnsolicitedVote` does all of this once
``presumed = COMMITTED``: its ``master_begin`` forces the collecting
record, and the decision round and recovery rule are presumed commit's.

Committing-transaction counts at ``DistDegree = 3``:

- messages: 2 STARTWORK + 2 votes + 2 COMMIT = **6** on the wire
  (half of 2PC's 12);
- forced writes: collecting + 3 prepare + master commit = **5**.

This is the message-minimal 2PC-family protocol in the library; the
paper notes EP-style designs pay for it with a longer execution phase
(the early collecting write) and longer prepared windows.  Like UV, it
must not be combined with OPT (Section 3.2).
"""

from __future__ import annotations

from repro.core.unsolicited_vote import UnsolicitedVote
from repro.db.transaction import TransactionOutcome


class EarlyPrepare(UnsolicitedVote):
    """Unsolicited votes + presumed commit."""

    name = "EP"
    presumed = TransactionOutcome.COMMITTED
