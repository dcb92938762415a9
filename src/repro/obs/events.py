"""The closed event taxonomy of the simulation.

Every observable fact of the simulated system is one of the frozen
dataclasses below, published on the system's :class:`~repro.obs.bus.EventBus`.
The set is *closed* by design: observers can rely on these kinds (and
only these) existing, and emitters pay for an event only when someone
subscribed to its kind.

Events carry the objects they describe (transactions, cohorts, messages)
rather than pre-rendered strings, so subscribers can follow references;
:func:`event_to_dict` flattens an event into JSON-serializable scalars
for export.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.locks import LockMode
    from repro.db.messages import Message
    from repro.db.transaction import AbortReason, CohortAgent, Transaction
    from repro.db.wal import LogRecordKind


class EventKind(enum.Enum):
    """Every event kind the simulation can publish."""

    #: Members are singletons, so hash by identity: the emit guard
    #: (``bus.has_subscribers``) hashes a kind on every hot-path emit,
    #: and ``Enum.__hash__`` is a Python-level call.
    __hash__ = object.__hash__

    # Transaction lifecycle.
    TXN_SUBMIT = "txn_submit"
    TXN_RESTART = "txn_restart"
    TXN_COMMIT = "txn_commit"
    TXN_ABORT = "txn_abort"
    #: first cohort of a transaction started waiting on a lock.
    TXN_BLOCK = "txn_block"
    #: last waiting cohort of a transaction stopped waiting.
    TXN_UNBLOCK = "txn_unblock"
    # Locking (cohort granularity, per site).
    LOCK_REQUEST = "lock_request"
    LOCK_GRANT = "lock_grant"
    LOCK_BLOCK = "lock_block"
    LOCK_RELEASE = "lock_release"
    # OPT lending.
    BORROW = "borrow"
    SHELF_ENTER = "shelf_enter"
    LENDER_ABORT = "lender_abort"
    # Network.
    MSG_SEND = "msg_send"
    MSG_DELIVER = "msg_deliver"
    #: a message was lost on the wire or addressed to a crashed site.
    MSG_DROP = "msg_drop"
    # Write-ahead log.
    LOG_WRITE = "log_write"
    LOG_FORCE = "log_force"
    # Concurrency control.
    DEADLOCK_VICTIM = "deadlock_victim"
    # Failure injection.
    SITE_CRASH = "site_crash"
    SITE_RECOVER = "site_recover"
    #: a protocol-layer timeout expired (vote wait, decision wait, ...).
    TIMEOUT_FIRED = "timeout_fired"
    #: a recovering site started replaying its WAL (in-doubt resolution).
    SITE_RECOVERY_REPLAY = "site_recovery_replay"
    #: an in-doubt cohort was resolved per the protocol's presumption rule.
    TXN_RESOLVED_IN_DOUBT = "txn_resolved_in_doubt"
    # Correlated failures (region fault plans).
    #: every site of one datacenter crashed atomically.
    DC_CRASH = "dc_crash"
    #: the link group between two datacenters was severed.
    LINK_PARTITION = "link_partition"
    #: a severed inter-datacenter link group was restored.
    LINK_HEAL = "link_heal"
    # Open-system workload (Poisson arrivals + bounded admission queue).
    #: a transaction arrived at a site's admission queue (offered load).
    TXN_ARRIVE = "txn_arrive"
    #: an arrival was dropped because the admission queue was full.
    TXN_SHED = "txn_shed"
    #: a queued arrival was picked up by a free server slot.
    TXN_DEQUEUE = "txn_dequeue"
    # Paxos Commit (quorum commit extension).
    #: an acceptor registered/accepted an RM's vote instance(s).
    ACCEPTOR = "acceptor"
    #: a recovering participant opened a higher ballot to close
    #: unresolved vote instances (coordinator takeover).
    BALLOT = "ballot"
    # Replication (available copies).
    #: a committed cohort's updates were propagated to a replica site.
    REPLICA_PROPAGATE = "replica_propagate"
    # Commit-protocol phase transitions (master side).
    PHASE = "phase"


class CommitPhase(enum.Enum):
    """Master-side phases of commit processing.

    A :class:`PhaseTransition` marks the *entry* into a phase; the phase
    ends at the next transition (or at the transaction's outcome).
    Protocols without a distinct round simply never enter that phase --
    e.g. presumed commit sends no ACK round on commit.
    """

    EXECUTE = "execute"   # cohorts performing data accesses
    VOTE = "vote"         # voting round (PREPARE / votes)
    DECIDE = "decide"     # all votes in; decision logged + distributed
    ACK = "ack"           # decision sent; awaiting acknowledgements


@dataclasses.dataclass(frozen=True, slots=True)
class SimEvent:
    """Base class: every event carries its simulation timestamp (ms)."""

    time: float

    #: overridden by each concrete event class.
    kind: typing.ClassVar[EventKind]


@dataclasses.dataclass(frozen=True, slots=True)
class TxnSubmit(SimEvent):
    """A fresh transaction entered a multiprogramming slot."""

    kind = EventKind.TXN_SUBMIT
    txn: "Transaction"
    sites: tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class TxnRestart(SimEvent):
    """An aborted incarnation was relaunched."""

    kind = EventKind.TXN_RESTART
    txn: "Transaction"
    sites: tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class TxnCommit(SimEvent):
    kind = EventKind.TXN_COMMIT
    txn: "Transaction"


@dataclasses.dataclass(frozen=True, slots=True)
class TxnAbort(SimEvent):
    kind = EventKind.TXN_ABORT
    txn: "Transaction"
    reason: "AbortReason"


@dataclasses.dataclass(frozen=True, slots=True)
class TxnBlock(SimEvent):
    kind = EventKind.TXN_BLOCK
    txn: "Transaction"


@dataclasses.dataclass(frozen=True, slots=True)
class TxnUnblock(SimEvent):
    kind = EventKind.TXN_UNBLOCK
    txn: "Transaction"


@dataclasses.dataclass(frozen=True, slots=True)
class LockRequest(SimEvent):
    kind = EventKind.LOCK_REQUEST
    site_id: int
    cohort: "CohortAgent"
    page: int
    mode: "LockMode"


@dataclasses.dataclass(frozen=True, slots=True)
class LockGrant(SimEvent):
    kind = EventKind.LOCK_GRANT
    site_id: int
    cohort: "CohortAgent"
    page: int
    mode: "LockMode"
    #: True when the grant bypassed prepared lenders (an OPT borrow).
    borrowed: bool


@dataclasses.dataclass(frozen=True, slots=True)
class LockBlock(SimEvent):
    """A cohort joined a page's FCFS wait queue."""

    kind = EventKind.LOCK_BLOCK
    site_id: int
    cohort: "CohortAgent"
    page: int
    mode: "LockMode"


@dataclasses.dataclass(frozen=True, slots=True)
class LockRelease(SimEvent):
    """A cohort released everything it held at one site (finalize)."""

    kind = EventKind.LOCK_RELEASE
    site_id: int
    cohort: "CohortAgent"
    committed: bool


@dataclasses.dataclass(frozen=True, slots=True)
class Borrow(SimEvent):
    """A page was borrowed from prepared lender(s) (OPT)."""

    kind = EventKind.BORROW
    site_id: int
    cohort: "CohortAgent"
    page: int


@dataclasses.dataclass(frozen=True, slots=True)
class ShelfEnter(SimEvent):
    """A borrower finished its work with unresolved lenders (OPT)."""

    kind = EventKind.SHELF_ENTER
    cohort: "CohortAgent"


@dataclasses.dataclass(frozen=True, slots=True)
class LenderAbort(SimEvent):
    """A borrower is being aborted because one of its lenders aborted."""

    kind = EventKind.LENDER_ABORT
    borrower: "CohortAgent"


@dataclasses.dataclass(frozen=True, slots=True)
class MessageSend(SimEvent):
    kind = EventKind.MSG_SEND
    message: "Message"
    #: same-site messages are free and delivered synchronously.
    local: bool
    #: (sender site, receiver site); None before the topology layer
    #: resolved it (local sends use the shared site id twice).
    link: tuple[int, int] | None = None
    #: wire latency charged to this message by the active cost model
    #: (0 on the paper's zero-latency switch; excludes fault delays).
    delay_ms: float = 0.0
    #: True when the link crosses datacenters under the active topology.
    cross_dc: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class MessageDeliver(SimEvent):
    kind = EventKind.MSG_DELIVER
    message: "Message"
    #: (sender site, receiver site); see :class:`MessageSend`.
    link: tuple[int, int] | None = None
    #: total wire latency this message actually paid (topology + faults).
    delay_ms: float = 0.0
    #: True when the link crosses datacenters under the active topology.
    cross_dc: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class MsgDrop(SimEvent):
    """A message was dropped: lost on the wire, or its receiver's site
    is down (in-flight deliveries to a crashed site are discarded)."""

    kind = EventKind.MSG_DROP
    message: "Message"
    #: ``"loss"`` (fault-injected), ``"topology_loss"`` (lossy WAN
    #: link), ``"site_down"``, or ``"partition"`` (the message's link
    #: group is severed by a region fault plan).
    reason: str


@dataclasses.dataclass(frozen=True, slots=True)
class LogWrite(SimEvent):
    """A non-forced log record (free, per the paper's cost model)."""

    kind = EventKind.LOG_WRITE
    site_id: int
    record_kind: "LogRecordKind"
    txn_id: int


@dataclasses.dataclass(frozen=True, slots=True)
class LogForce(SimEvent):
    """A forced log write was initiated (the caller suspends on it)."""

    kind = EventKind.LOG_FORCE
    site_id: int
    record_kind: "LogRecordKind"
    txn_id: int


@dataclasses.dataclass(frozen=True, slots=True)
class DeadlockVictim(SimEvent):
    kind = EventKind.DEADLOCK_VICTIM
    txn: "Transaction"


@dataclasses.dataclass(frozen=True, slots=True)
class SiteCrash(SimEvent):
    """A failure: a whole site crashes (``txn_id == -1``), or -- under a
    ``master_stall`` directive -- txn ``txn_id``'s master goes silent
    while its site stays up and the master keeps its state."""

    kind = EventKind.SITE_CRASH
    site_id: int
    txn_id: int = -1


@dataclasses.dataclass(frozen=True, slots=True)
class SiteRecover(SimEvent):
    kind = EventKind.SITE_RECOVER
    site_id: int
    txn_id: int = -1


@dataclasses.dataclass(frozen=True, slots=True)
class TimeoutFired(SimEvent):
    """A protocol-layer wait expired before the expected message."""

    kind = EventKind.TIMEOUT_FIRED
    #: the agent whose wait expired (master or cohort).
    agent: object
    #: which wait: ``"startwork"``, ``"work"``, ``"votes"``,
    #: ``"prepare"``, ``"decision"``, ``"acks"``, ``"precommit"``,
    #: ``"precommit-acks"``, ``"chain-prepare"``, ``"chain-decision"``,
    #: ``"paxos-2a"``, ``"paxos-2b"`` or ``"replica-update"``.
    wait: str
    waited_ms: float


@dataclasses.dataclass(frozen=True, slots=True)
class SiteRecoveryReplay(SimEvent):
    """A recovered site is replaying its WAL to resolve in-doubt
    transactions."""

    kind = EventKind.SITE_RECOVERY_REPLAY
    site_id: int
    #: number of in-doubt cohorts found at the site.
    in_doubt: int


@dataclasses.dataclass(frozen=True, slots=True)
class TxnResolvedInDoubt(SimEvent):
    """An in-doubt (prepared/precommitted) cohort reached a decision via
    status inquiry, WAL replay, or the 3PC termination protocol."""

    kind = EventKind.TXN_RESOLVED_IN_DOUBT
    cohort: "CohortAgent"
    #: ``"commit"`` or ``"abort"``.
    outcome: str
    #: which rule decided: ``"decision-record"``, ``"presumed-abort"``,
    #: ``"presumed-commit"``, ``"termination-protocol"``, ...
    rule: str


@dataclasses.dataclass(frozen=True, slots=True)
class DcCrash(SimEvent):
    """A whole datacenter went down atomically (a correlated failure;
    per-site :class:`SiteCrash` events are published alongside)."""

    kind = EventKind.DC_CRASH
    dc: int
    #: the sites this outage actually took down (sites already down via
    #: an overlapping per-site fault are skipped).
    sites: tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class LinkPartition(SimEvent):
    """The network severed every link between two datacenters: messages
    and status inquiries across the cut are dropped until heal."""

    kind = EventKind.LINK_PARTITION
    dc_a: int
    dc_b: int


@dataclasses.dataclass(frozen=True, slots=True)
class LinkHeal(SimEvent):
    """A severed inter-datacenter link group was restored."""

    kind = EventKind.LINK_HEAL
    dc_a: int
    dc_b: int


@dataclasses.dataclass(frozen=True, slots=True)
class TxnArrive(SimEvent):
    """An open-system arrival reached a site's admission queue."""

    kind = EventKind.TXN_ARRIVE
    site_id: int
    txn_id: int
    #: False when the arrival was dropped on a full queue (a matching
    #: :class:`TxnShed` is published as well).
    admitted: bool


@dataclasses.dataclass(frozen=True, slots=True)
class TxnShed(SimEvent):
    """An arrival was dropped: the site's admission queue was full."""

    kind = EventKind.TXN_SHED
    site_id: int
    txn_id: int
    queue_length: int


@dataclasses.dataclass(frozen=True, slots=True)
class TxnDequeue(SimEvent):
    """A queued arrival was handed to a free per-site server slot."""

    kind = EventKind.TXN_DEQUEUE
    site_id: int
    txn_id: int
    #: time the transaction spent in the admission queue.
    wait_ms: float


@dataclasses.dataclass(frozen=True, slots=True)
class PhaseTransition(SimEvent):
    """The master entered a commit-processing phase."""

    kind = EventKind.PHASE
    txn: "Transaction"
    phase: CommitPhase
    protocol: str


@dataclasses.dataclass(frozen=True, slots=True)
class AcceptorEvent(SimEvent):
    """A Paxos Commit acceptor logged its batched acceptance: one forced
    ACCEPT record covering every RM vote instance of the transaction."""

    kind = EventKind.ACCEPTOR
    txn_id: int
    #: the site hosting the acceptor.
    site_id: int
    #: how many RM vote instances the acceptance covers.
    instances: int
    #: True when every instance carried a YES vote.
    all_yes: bool


@dataclasses.dataclass(frozen=True, slots=True)
class BallotOpened(SimEvent):
    """A blocked participant took over coordination with a higher ballot
    to close unresolved Paxos vote instances (deciding abort for any
    instance no quorum member had accepted)."""

    kind = EventKind.BALLOT
    txn_id: int
    #: the site of the cohort that opened the ballot.
    site_id: int
    #: acceptors the new leader could reach (>= F+1, or it stays blocked).
    reached: int
    #: vote instances the ballot closed as abort.
    closed_as_abort: int


@dataclasses.dataclass(frozen=True, slots=True)
class ReplicaPropagate(SimEvent):
    """A committed cohort shipped its updates to one replica site (or
    skipped it: available-copies drops unreachable replicas)."""

    kind = EventKind.REPLICA_PROPAGATE
    txn_id: int
    #: the primary site whose updates are being propagated.
    src_site: int
    #: the replica site addressed.
    dst_site: int
    #: number of updated pages in the batch.
    pages: int
    #: False when the replica was down/partitioned and dropped from the
    #: write set (to re-sync via WAL replay on recovery).
    shipped: bool


def _json_value(value: object) -> object:
    """Flatten one event field into a JSON-serializable value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    # Agents: render as "T<id>.<inc>@<site>"; transactions as "T<id>.<inc>".
    txn = getattr(value, "txn", None)
    if txn is not None and hasattr(value, "site"):
        return f"{txn.name}@{value.site.site_id}"
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    # Messages: kind plus endpoints.
    kind = getattr(value, "kind", None)
    if kind is not None and hasattr(value, "sender"):
        return {"kind": kind.value,
                "sender": _json_value(value.sender),
                "receiver": _json_value(value.receiver)}
    return repr(value)


def event_to_dict(event: SimEvent) -> dict[str, object]:
    """Flatten an event into scalars (for JSONL export and comparisons)."""
    out: dict[str, object] = {"kind": event.kind.value}
    for field in dataclasses.fields(event):
        out[field.name] = _json_value(getattr(event, field.name))
    return out
