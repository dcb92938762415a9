"""Write-ahead logging.

The paper's cost model (Section 4.3): only *forced* log writes are
modeled explicitly, because they are synchronous and suspend the
transaction until completion; the cost of each forced write equals one
data-page disk write.  Non-forced records are recorded for bookkeeping
but cost nothing.

A :class:`LogManager` fronts a site's log disks.  An optional *group
commit* mode (paper Section 3.2, "Group Commit") batches forced writes
that arrive while the log disk is busy into a single disk write.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.obs.bus import EventBus
from repro.obs.events import EventKind, LogForce, LogWrite
from repro.sim.events import Event, Timeout
from repro.sim.resources import Server

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment


class LogRecordKind(enum.Enum):
    """Record types written by the implemented protocols."""

    #: Hash by identity (members are singletons): the WAL and metrics
    #: tally records per kind on every log write.
    __hash__ = object.__hash__

    PREPARE = "prepare"
    COLLECTING = "collecting"     # presumed commit: cohort roster
    PRECOMMIT = "precommit"       # 3PC
    COMMIT = "commit"
    ABORT = "abort"
    END = "end"
    ACCEPT = "accept"             # Paxos Commit: acceptor's batched 2b
    REPLICA_UPDATE = "replica-update"  # replication: applied copy write


@dataclasses.dataclass
class LogRecord:
    """One log record (bookkeeping only; contents are not simulated)."""

    kind: LogRecordKind
    txn_id: int
    site_id: int
    forced: bool
    time: float
    #: which incarnation of the transaction wrote the record; -1 when the
    #: writer did not say (pre-fault-plane call sites).
    incarnation: int = -1


class LogManager:
    """The log at one site.

    ``force_write`` is a coroutine: it claims a log disk for one page
    write.  ``write`` (non-forced) is free, matching the paper's model.
    """

    def __init__(self, env: "Environment", site_id: int,
                 log_disks: typing.Sequence[Server],
                 write_time_ms: float,
                 group_commit: bool = False,
                 bus: EventBus | None = None,
                 retain_records: bool = True) -> None:
        self.env = env
        self.site_id = site_id
        #: instrumentation plane; a standalone manager gets a private bus.
        self.bus = bus if bus is not None else EventBus()
        self.log_disks = list(log_disks)
        self.write_time_ms = write_time_ms
        self.group_commit = group_commit
        #: keep every record forever (analysis/tests read ``records``)?
        #: Soak runs turn this off: the full history of a 10^6-transaction
        #: run cannot be retained, so only the per-transaction recovery
        #: index survives, pruned as transactions complete.
        self.retain_records = retain_records
        self.records: list[LogRecord] = []
        #: (txn_id, incarnation) -> records, for O(1) recovery lookups.
        self._by_txn: dict[tuple[int, int], list[LogRecord]] = {}
        #: incremental per-kind tally (exact mirror of ``records`` when
        #: retention is on; the only tally available when it is off).
        self._counts: dict[LogRecordKind, int] = {}
        self.forced_count = 0
        self.unforced_count = 0
        self._next_disk = 0
        # Group-commit state: whether a flush is in progress, and the
        # event the *next* batch of writers is waiting on.
        self._flushing = False
        self._pending: Event | None = None
        self.group_flushes = 0

    # ------------------------------------------------------------------
    def write(self, kind: LogRecordKind, txn_id: int,
              incarnation: int = -1) -> LogRecord:
        """Append a non-forced record (no cost)."""
        record = LogRecord(kind, txn_id, self.site_id, forced=False,
                           time=self.env.now, incarnation=incarnation)
        if self.retain_records:
            self.records.append(record)
        self._by_txn.setdefault((txn_id, incarnation), []).append(record)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self.unforced_count += 1
        if self.bus.has_subscribers(EventKind.LOG_WRITE):
            self.bus.publish(LogWrite(self.env.now, self.site_id, kind,
                                      txn_id))
        return record

    def force_write(self, kind: LogRecordKind, txn_id: int,
                    incarnation: int = -1,
                    ) -> typing.Generator[Event, typing.Any, LogRecord]:
        """Coroutine: append a record and flush it to a log disk.

        The caller is suspended for the duration of the disk write (plus
        any queueing at the log disk).
        """
        record = LogRecord(kind, txn_id, self.site_id, forced=True,
                           time=self.env.now, incarnation=incarnation)
        if self.retain_records:
            self.records.append(record)
        self._by_txn.setdefault((txn_id, incarnation), []).append(record)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self.forced_count += 1
        if self.bus.has_subscribers(EventKind.LOG_FORCE):
            self.bus.publish(LogForce(self.env.now, self.site_id, kind,
                                      txn_id))
        if self.group_commit:
            yield from self._group_commit_flush()
        else:
            yield self._pick_disk().claim(self.write_time_ms)
        record.time = self.env.now
        return record

    # ------------------------------------------------------------------
    def _pick_disk(self) -> Server:
        disk = self.log_disks[self._next_disk]
        self._next_disk = (self._next_disk + 1) % len(self.log_disks)
        return disk

    def _group_commit_flush(self) -> typing.Generator[Event, typing.Any, None]:
        """Group commit: batch forced writes into shared disk writes.

        If a flush is already in progress, the caller's record joins the
        *next* batch and the caller waits for that batch's single disk
        write.  Otherwise the caller becomes the flush leader: it writes
        its own record, and the batches that accumulated meanwhile are
        then flushed one disk write each until none is pending.
        """
        if self._flushing:
            if self._pending is None:
                self._pending = Event(self.env)
            yield self._pending
            return
        self._flushing = True
        try:
            disk = self._pick_disk()
            self.group_flushes += 1
            yield disk.claim(self.write_time_ms)
        except BaseException:
            self._flushing = False
            raise
        # The leader's record is durable now; stragglers that queued up
        # during the write are flushed by a callback chain that starts at
        # this instant, so the leader does not wait on their behalf.
        if self._pending is not None:
            Timeout(self.env, 0.0).callbacks.append(self._flush_batch)
        else:
            self._flushing = False

    def _flush_batch(self, _event: Event) -> None:
        """Flush the pending batch with one disk write.  The write's end
        wakes the batch's writers and flushes the next batch, until none
        is pending."""
        batch = self._pending
        if batch is None:
            self._flushing = False
            return
        self._pending = None
        self.group_flushes += 1
        callbacks = self._pick_disk().claim(self.write_time_ms).callbacks
        callbacks.append(batch.trigger)
        callbacks.append(self._flush_batch)

    # ------------------------------------------------------------------
    def txn_kinds(self, txn_id: int,
                  incarnation: int = -1) -> set[LogRecordKind]:
        """Record kinds this site's stable log holds for one incarnation.

        This is what a recovery process "reads from the WAL": the basis
        for decision-record lookup and the presumption rules.
        """
        records = self._by_txn.get((txn_id, incarnation))
        if not records:
            return set()
        return {record.kind for record in records}

    def forget_txn(self, txn_id: int, max_incarnation: int) -> None:
        """Drop the recovery index for a completed transaction.

        The simulation analogue of WAL truncation past a checkpoint: once
        a transaction has committed at every participant, no recovery
        process will ever look its records up again.  Long (soak) runs
        call this per commit so the index stays bounded by the in-flight
        population.  Aggregate tallies (``counts_by_kind``, forced and
        unforced counts) are unaffected.
        """
        for incarnation in range(-1, max_incarnation + 1):
            self._by_txn.pop((txn_id, incarnation), None)

    def compact(self) -> None:
        """Drop the whole recovery index (quiescent points only).

        Callers must guarantee no transaction is in flight at this site
        — the soak runner invokes this at drain barriers, where that
        holds by construction.
        """
        self._by_txn.clear()

    def counts_by_kind(self) -> dict[LogRecordKind, int]:
        """Number of records of each kind (forced and non-forced)."""
        return dict(self._counts)

    def __repr__(self) -> str:
        return (f"<LogManager site={self.site_id} forced={self.forced_count} "
                f"unforced={self.unforced_count}>")
