"""Presumed abort (paper Section 2.2).

Identical to 2PC for committing transactions.  On the abort path the
"in case of doubt, abort" recovery rule makes the following overheads
unnecessary:

- cohorts do not acknowledge ABORT messages;
- cohorts do not force their abort records (a NO vote's included);
- the master does not force its abort record and writes no end record.

All of it is :class:`~repro.core.two_phase.TwoPhaseCommit`'s decision
round and the base recovery rule, read with ``presumed = ABORTED``.
"""

from __future__ import annotations

from repro.core.two_phase import TwoPhaseCommit
from repro.db.transaction import TransactionOutcome


class PresumedAbort(TwoPhaseCommit):
    """2PC with the presumed-abort optimization."""

    name = "PA"
    presumed = TransactionOutcome.ABORTED
