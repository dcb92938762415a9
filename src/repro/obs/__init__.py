"""The instrumentation plane: a typed simulation event bus.

Every observable fact of the simulated system -- transaction lifecycle,
lock traffic, OPT lending, messages, log writes, deadlock victims,
failure injection, commit-protocol phases -- is published as a typed
event (:mod:`repro.obs.events`) on the system's :class:`EventBus`
(``system.bus``).  Observers subscribe; nothing monkeypatches.

Emit sites are guarded with ``bus.has_subscribers(kind)``, so kinds
nobody listens to cost one dict membership test (see the
``bus_overhead`` micro-benchmark in ``scripts/bench_trajectory.py``).

Built-in subscribers:

- :class:`repro.metrics.MetricsCollector` -- the paper's statistics;
- :class:`repro.admission.HalfAndHalfController` -- load control;
- :class:`EventLog` -- in-memory recording of chosen kinds, optionally
  capped (lifecycle traces, tests, diffing runs);
- :class:`PhaseLatencyObserver` -- per-phase commit latency breakdown;
- :class:`JsonlExporter` -- ``--events-out`` offline event streams;
- :class:`WindowedStats` -- O(1)-memory per-window aggregates for
  soak runs (``repro-commit soak``).
"""

from repro.obs.bus import EventBus, Subscription
from repro.obs.events import (
    Borrow,
    CommitPhase,
    DeadlockVictim,
    EventKind,
    LenderAbort,
    LockBlock,
    LockGrant,
    LockRelease,
    LockRequest,
    LogForce,
    LogWrite,
    MessageDeliver,
    MessageSend,
    MsgDrop,
    PhaseTransition,
    ShelfEnter,
    SimEvent,
    SiteCrash,
    SiteRecover,
    SiteRecoveryReplay,
    TimeoutFired,
    TxnAbort,
    TxnBlock,
    TxnCommit,
    TxnResolvedInDoubt,
    TxnRestart,
    TxnSubmit,
    TxnUnblock,
    event_to_dict,
)
from repro.obs.export import JsonlExporter
from repro.obs.phases import PhaseLatencyObserver, PhaseStats
from repro.obs.recorder import EventLog
from repro.obs.windowed import WindowedStats

__all__ = [
    "Borrow",
    "CommitPhase",
    "DeadlockVictim",
    "EventBus",
    "EventKind",
    "EventLog",
    "JsonlExporter",
    "LenderAbort",
    "LockBlock",
    "LockGrant",
    "LockRelease",
    "LockRequest",
    "LogForce",
    "LogWrite",
    "MessageDeliver",
    "MessageSend",
    "MsgDrop",
    "PhaseLatencyObserver",
    "PhaseStats",
    "PhaseTransition",
    "ShelfEnter",
    "SimEvent",
    "SiteCrash",
    "SiteRecover",
    "SiteRecoveryReplay",
    "Subscription",
    "TimeoutFired",
    "TxnAbort",
    "TxnBlock",
    "TxnCommit",
    "TxnResolvedInDoubt",
    "TxnRestart",
    "TxnSubmit",
    "TxnUnblock",
    "WindowedStats",
    "event_to_dict",
]
