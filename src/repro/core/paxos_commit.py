"""Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit").

Each transaction elects ``2F + 1`` *acceptors* from its cohort sites;
every resource manager's prepared/aborted vote runs as its own Paxos
instance, and the coordinator commits once ``F + 1`` acceptors have
acknowledged every instance.  At ``F = 0`` the protocol degenerates to
exactly two-phase commit (the paper's central observation) -- this
implementation inherits 2PC and takes the inherited code paths verbatim
when the effective F is zero, so the message and forced-write counts
match 2PC's to the byte.

Mapping onto the simulator's cost model (``F >= 1``):

- The acceptor set is a deterministic function of the transaction spec
  (coordinator site first, then the other cohort sites, ``2F + 1``
  total): every participant can recompute it after a crash without
  extra messages, standing in for Gray & Lamport's statically-known
  acceptor configuration.  The coordinator's own site always hosts one
  acceptor, played by the master itself: a cohort's ``VOTE_YES`` to the
  master *is* its phase-2a message to that acceptor, and the master's
  forced COMMIT record doubles as that acceptor's stable acceptance --
  this is the paper's "co-locate one acceptor with the leader"
  optimization, and it is what makes F = 0 collapse to 2PC.
- Each cohort sends its vote as a ``PAXOS_2A`` to the ``2F`` remaining
  acceptors; an acceptor batches all instances into **one** forced
  ``ACCEPT`` record and **one** ``PAXOS_2B`` to the master (the paper's
  batching optimization: the acceptor cost is per transaction, not per
  instance).
- The master waits for ``F`` remote 2b acknowledgements (its co-located
  acceptance is the ``F + 1``-st) before forcing COMMIT.  With faults
  active the wait is bounded: no quorum means abort, never commit.
- Coordinator recovery: a blocked cohort takes over as a new leader.
  It probes the acceptor sites; with ``F + 1`` reachable and *no*
  acceptance on record anywhere reachable, it opens a higher ballot
  that closes every vote instance as abort (quorum intersection makes
  this safe: a commit would have left acceptance records on at least
  ``F + 1`` of the ``2F + 1`` sites).  Any reachable acceptance with no
  decision record is ambiguous -- the leader stays blocked and falls
  back to the coordinator-WAL inquiry path.  The promise side of the
  ballot is modeled as a shared closed-instances set consulted by
  acceptors and the master before accepting/committing (the probe
  round's message costs are paid; the promises themselves ride on it).
"""

from __future__ import annotations

import typing

from repro.core.two_phase import TwoPhaseCommit
from repro.db.messages import MessageKind
from repro.db.transaction import (
    AbortReason,
    Agent,
    CohortAgent,
    CohortState,
    MasterAgent,
    Transaction,
    TransactionOutcome,
)
from repro.db.wal import LogRecordKind
from repro.obs.events import AcceptorEvent, BallotOpened, EventKind
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import CohortGenerator, MasterGenerator
    from repro.db.site import Site


class PaxosAcceptor(Agent):
    """One remote acceptor of one transaction (an inbox at a site)."""

    def __repr__(self) -> str:
        return f"<Acceptor {self.txn.name}@{self.site.site_id}>"


class PaxosCommit(TwoPhaseCommit):
    """Gray & Lamport's Paxos Commit with per-transaction acceptors."""

    def __init__(self, f: int = 1) -> None:
        super().__init__()
        if f < 0:
            raise ValueError(f"paxos fault tolerance F must be >= 0, got {f}")
        self.f = f
        self.name = "PAXOS" if f == 1 else f"PAXOS:f={f}"
        #: with F >= 1 a blocked participant can terminate through the
        #: acceptor quorum, no coordinator needed; F = 0 *is* 2PC.
        self.non_blocking = f >= 1
        #: (txn_id, incarnation) pairs whose vote instances a recovery
        #: ballot closed as abort; acceptors and the master refuse to
        #: accept/commit them afterwards (the modeled promise).
        self._ballot_closed: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Acceptor placement
    # ------------------------------------------------------------------
    def effective_f(self, txn: Transaction) -> int:
        """F actually achievable: 2F+1 acceptors need 2F+1 cohort sites."""
        return min(self.f, (len(txn.spec.accesses) - 1) // 2)

    def acceptor_site_ids(self, txn: Transaction) -> tuple[int, ...]:
        """The 2F+1 acceptor sites (coordinator's site first).

        A pure function of the immutable spec, so any participant -- in
        particular a recovering one -- computes the same set.
        """
        f = self.effective_f(txn)
        spec = txn.spec
        others = [a.site_id for a in spec.accesses
                  if a.site_id != spec.origin_site]
        return (spec.origin_site, *others[:2 * f])

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def master_commit(self, master: MasterAgent) -> "MasterGenerator":
        f = self.effective_f(master.txn)
        if f == 0:
            # Degenerate case: the inherited 2PC code paths, verbatim.
            return (yield from super().master_commit(master))
        system = self.system
        assert system is not None
        txn = master.txn
        # Spawn the 2F remote acceptors before any PREPARE goes out so
        # their inboxes exist when the cohorts' 2a messages arrive.
        acceptors = []
        for site_id in self.acceptor_site_ids(txn)[1:]:
            acceptor = PaxosAcceptor(system, txn, system.site_for(site_id))
            acceptor.process = system.env.process(
                self._acceptor(acceptor, master, len(master.cohorts)),
                name=f"{txn.name}-acceptor@{site_id}")
            acceptors.append(acceptor)
        master.paxos_acceptors = acceptors  # read by cohort_vote
        all_yes = yield from self.collect_votes(master)
        if system.fault_timeouts is None:
            # Healthy wire: every acceptor hears every vote, so all 2F
            # acknowledgements are in flight whatever the outcome.
            # Drain them all -- the ACK-phase receive asserts its
            # expected kind in healthy mode, so none may linger.
            quorum = yield from self._await_acceptor_quorum(master, f)
        else:
            quorum = all_yes \
                and (yield from self._await_acceptor_quorum(master, f))
        if not all_yes:
            yield from self.master_abort_phase(master)
            return self.abort_outcome(master)
        key = (txn.txn_id, txn.incarnation)
        if not quorum or key in self._ballot_closed:
            # No acceptor quorum (or a recovery ballot already closed
            # the instances): committing would be unsound; abort.
            if txn.abort_reason is None:
                txn.abort_reason = AbortReason.TIMEOUT
            yield from self.master_abort_phase(master)
            return TransactionOutcome.ABORTED
        # The forced COMMIT record is appended synchronously at this
        # call, so the closed-ballot check above and the decision are
        # one atomic step against any recovery leader's WAL read.
        yield from self.master_commit_phase(master)
        return TransactionOutcome.COMMITTED

    def _await_acceptor_quorum(self, master: MasterAgent, f: int,
                               ) -> typing.Generator[Event, typing.Any, bool]:
        """Collect 2b acknowledgements; True once a quorum is in.

        Healthy runs consume all ``2F`` acknowledgements (they are
        already in flight and would otherwise linger as strays); under
        faults the master proceeds at ``F`` all-YES ones -- with its
        co-located acceptance that is the F+1 quorum -- and missing
        stragglers are abandoned after the ack deadline, but *never*
        committed past.
        """
        assert self.system is not None
        ft = self.system.fault_timeouts
        remaining = 2 * f if ft is None else f
        while remaining:
            message = yield from master.expect(
                (MessageKind.PAXOS_2B,), ft and ft.ack_timeout_ms,
                "paxos-2b")
            if message is None:
                return False
            # Under faults only all-YES acceptances count toward the
            # commit quorum; a False 2b reports a NO instance somewhere.
            if ft is None or message.payload:
                remaining -= 1
        return True

    # ------------------------------------------------------------------
    # Acceptor side
    # ------------------------------------------------------------------
    def _acceptor(self, acceptor: PaxosAcceptor, master: MasterAgent,
                  expected: int,
                  ) -> typing.Generator[Event, typing.Any, None]:
        """One acceptor's life: gather every RM's 2a, accept, send 2b.

        All ``expected`` vote instances batch into one forced ACCEPT
        record and one 2b message (the paper's batching optimization).
        An acceptor that never hears all votes simply exits: the master
        times out (no quorum means abort) or a recovery ballot closes
        the instances.
        """
        assert self.system is not None
        system = self.system
        ft = system.fault_timeouts
        all_yes = True
        for _ in range(expected):
            message = yield from acceptor.expect(
                (MessageKind.PAXOS_2A,), ft and ft.vote_timeout_ms,
                "paxos-2a")
            if message is None:
                return  # a vote is missing for good; never accept
            if message.payload == "no":
                all_yes = False
        if not acceptor.site.up:
            return  # crashed before the acceptance could be logged
        txn = acceptor.txn
        if (txn.txn_id, txn.incarnation) in self._ballot_closed:
            return  # promised a higher ballot: refuse the acceptance
        if all_yes:
            yield from acceptor.force_log(LogRecordKind.ACCEPT)
        else:
            # A NO vote decides abort; nothing needs to be stable for
            # that (presumption covers it), so the record is free.
            acceptor.log(LogRecordKind.ABORT)
        bus = system.bus
        if bus.has_subscribers(EventKind.ACCEPTOR):
            bus.publish(AcceptorEvent(system.env.now, txn.txn_id,
                                      acceptor.site.site_id, expected,
                                      all_yes))
        if not acceptor.site.up:
            return
        yield from acceptor.send(MessageKind.PAXOS_2B, master,
                                 payload=all_yes)

    # ------------------------------------------------------------------
    # Cohort side
    # ------------------------------------------------------------------
    def cohort_vote(self, cohort: CohortAgent,
                    ) -> typing.Generator[Event, typing.Any, str]:
        vote = yield from super().cohort_vote(cohort)
        # Phase 2a to the remote acceptors (the master-site acceptor
        # already got this vote: the VOTE message *is* its 2a).  Votes
        # other than "no" accept the instance; "read_only" still closes
        # it (the RM finished, nothing to redo or undo).
        acceptors = getattr(cohort.master, "paxos_acceptors", ())
        for acceptor in acceptors:
            if not cohort.site.up:
                break
            yield from cohort.send(MessageKind.PAXOS_2A, acceptor,
                                   payload=vote)
        return vote

    # ------------------------------------------------------------------
    # Recovery: the non-blocking property
    # ------------------------------------------------------------------
    def terminate_without_coordinator(self, cohort: CohortAgent,
                                      ) -> typing.Generator[
                                          Event, typing.Any,
                                          typing.Optional[tuple[str, str]]]:
        """New-leader takeover by a blocked participant.

        Probes every acceptor site; decides from what a quorum's stable
        state proves.  Quorum intersection carries the safety argument:
        a commit leaves acceptance/decision records on F+1 of the 2F+1
        acceptor sites, so F+1 *clean* reachable sites refute it.
        """
        if self.effective_f(cohort.txn) == 0:
            return None  # plain 2PC: no acceptors to consult
        if cohort.state is not CohortState.PREPARED:
            return None
        assert self.system is not None
        system = self.system
        network = system.network
        txn = cohort.txn
        f = self.effective_f(txn)
        reached: list["Site"] = []
        for site_id in self.acceptor_site_ids(txn):
            site = system.site_for(site_id)
            ok = yield from network.inquiry_round_trip(cohort, site)
            if ok and site.up:
                reached.append(site)
        # Decision records anywhere reachable settle it outright.
        accepts = 0
        for site in reached:
            kinds = site.log_manager.txn_kinds(txn.txn_id, txn.incarnation)
            if LogRecordKind.COMMIT in kinds:
                return ("commit", "decision-record")
            if LogRecordKind.ABORT in kinds:
                # Either the coordinator's decision or an acceptor that
                # registered a NO instance -- commit is impossible
                # either way (it needs every vote YES), so abort.
                return ("abort", "decision-record")
            if LogRecordKind.ACCEPT in kinds:
                accepts += 1
        if len(reached) <= f:
            return None  # no quorum reachable: must stay blocked
        if accepts:
            # Some instance was accepted but no decision is visible:
            # the coordinator may be mid-commit behind the failure.
            # Deciding either way here is unsound; fall back to the
            # coordinator-WAL inquiry loop.
            return None
        # F+1 reachable acceptor sites with no acceptance on record:
        # commit cannot have been (and, once the instances are closed,
        # can never be) decided.  Open the higher ballot and close every
        # vote instance as abort.
        self._ballot_closed.add((txn.txn_id, txn.incarnation))
        bus = system.bus
        if bus.has_subscribers(EventKind.BALLOT):
            bus.publish(BallotOpened(system.env.now, txn.txn_id,
                                     cohort.site.site_id, len(reached),
                                     len(txn.spec.accesses)))
        return ("abort", "new-ballot")
