#!/usr/bin/env python3
"""Implementing a custom commit protocol against the public API.

Usage::

    python examples/custom_protocol.py

The paper's Section 3.2 lists further 2PC optimizations; one of them,
*Long Locks* ("cohorts piggyback their commit acknowledgments onto
subsequent messages"), is implemented here in ~20 lines by subclassing
:class:`repro.core.two_phase.TwoPhaseCommit`: cohorts skip the explicit
ACK message and the master does not wait for acknowledgements (the
bookkeeping rides on later traffic, off the critical path).

The example then benchmarks it against stock 2PC and OPT.
"""

import repro
from repro.core.two_phase import TwoPhaseCommit
from repro.db.messages import MessageKind
from repro.db.system import DistributedSystem
from repro.db.wal import LogRecordKind


class LongLocks2PC(TwoPhaseCommit):
    """2PC with piggybacked (elided) commit acknowledgements."""

    name = "LL-2PC"

    def master_commit_phase(self, master):
        yield from master.force_log(LogRecordKind.COMMIT)
        for cohort in master.prepared_cohorts:
            yield from master.send(MessageKind.COMMIT, cohort)
        # Long Locks: no ACK wait; the end record is written when the
        # piggybacked acknowledgements eventually arrive (off-path).
        master.log(LogRecordKind.END)

    def cohort_decision(self, cohort):
        # await_decision bounds the wait under faults and resolves an
        # in-doubt cohort through recovery (then returns None).
        message = yield from self.await_decision(
            cohort, (MessageKind.COMMIT, MessageKind.ABORT))
        if message is None:
            return
        if message.kind is MessageKind.COMMIT:
            yield from cohort.force_log(LogRecordKind.COMMIT)
            cohort.implement_commit()
        else:
            yield from cohort.force_log(LogRecordKind.ABORT)
            cohort.implement_abort()
        # No ACK message: it piggybacks on later traffic.


class OptimisticLongLocks(LongLocks2PC):
    """...and it composes with OPT, as Section 3.2 promises."""

    name = "OPT-LL"
    lending = True


def run(protocol_instance, mpl=6, transactions=800):
    system = DistributedSystem(repro.ModelParams(mpl=mpl),
                               protocol_instance)
    return system.run(measured_transactions=transactions)


def main(transactions: int = 800) -> None:
    print("Custom protocol demo: Long Locks (piggybacked ACKs)\n")
    rows = []
    for protocol in ("2PC", "OPT"):
        rows.append(repro.simulate(protocol, mpl=6,
                                   measured_transactions=transactions))
    rows.append(run(LongLocks2PC(), transactions=transactions))
    rows.append(run(OptimisticLongLocks(), transactions=transactions))

    for result in rows:
        o = result.overheads
        print(f"{result.summary()}   commit_msgs/txn={o.commit_messages:.0f}")

    print("\nLL-2PC saves the two ACK messages per transaction "
          "(8 -> 6 commit messages) and the master's ACK wait; "
          "OPT-LL adds lending on top, matching the paper's point "
          "that OPT composes with most prior optimizations.")


if __name__ == "__main__":
    import sys
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
