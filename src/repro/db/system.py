"""The distributed database system: wiring and top-level control.

:class:`DistributedSystem` assembles sites, network, deadlock detector,
workload generator, and a commit protocol into the closed queueing model
of the paper, runs it (warmup + measurement), and reports a
:class:`SimulationResult`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ModelParams, Topology, WorkloadMode
from repro.db.deadlock import WaitForGraph
from repro.db.network import Network
from repro.db.pages import PageDirectory, ReplicaDirectory
from repro.db.site import Site
from repro.db.topology import build_cost_model
from repro.db.transaction import (
    AbortReason,
    CohortAgent,
    CohortState,
    MasterAgent,
    Transaction,
    TransactionOutcome,
    TransactionSpec,
)
from repro.db.workload import WorkloadGenerator
from repro.metrics import MetricsCollector, ProtocolOverheads
from repro.obs.bus import EventBus
from repro.obs.events import (
    DeadlockVictim,
    EventKind,
    LenderAbort,
    TxnAbort,
    TxnArrive,
    TxnCommit,
    TxnDequeue,
    TxnRestart,
    TxnShed,
    TxnSubmit,
)
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.rng import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.admission import BoundedAdmissionQueue
    from repro.core.base import CommitProtocol
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultConfig, FaultTimeouts


@dataclasses.dataclass
class SimulationResult:
    """Everything a run reports (one point on one of the paper's curves)."""

    protocol: str
    mpl: int
    committed: int
    aborted: int
    elapsed_ms: float
    throughput: float          # transactions per second
    response_time_ms: float    # mean over committed transactions
    block_ratio: float
    borrow_ratio: float
    abort_ratio: float
    overheads: ProtocolOverheads
    aborts_by_reason: dict[str, int]
    deadlocks: int
    shelf_entries: int
    #: 90% batch-means relative half-width of the response-time mean
    #: (inf when too few batches -- use longer runs for tight CIs).
    response_ci_rel_half_width: float = float("inf")
    #: mean busy fraction per resource class over the measured period
    #: (all zero under infinite resources).
    utilization: dict[str, float] = dataclasses.field(default_factory=dict)

    def summary(self) -> str:
        return (f"{self.protocol:>8}  mpl={self.mpl:<3d} "
                f"thr={self.throughput:7.2f}/s  "
                f"resp={self.response_time_ms:8.1f}ms  "
                f"block={self.block_ratio:5.3f}  "
                f"borrow={self.borrow_ratio:5.3f}  "
                f"aborts={self.abort_ratio:5.3f}")


@dataclasses.dataclass
class OpenSimulationResult(SimulationResult):
    """A run under ``WorkloadMode.OPEN``: adds the open-system metrics.

    A subclass (rather than new fields on :class:`SimulationResult`) so
    closed-mode results keep their exact ``dataclasses.asdict`` shape --
    the golden-sweep fixture pins that byte-for-byte.  All fields must
    default because the parent ends with defaulted fields.
    """

    #: configured per-site Poisson arrival rate (txns/second).
    arrival_rate_tps: float = 0.0
    #: arrivals reaching the admission queues in the measured period.
    offered: int = 0
    #: arrivals dropped on a full queue.
    shed: int = 0
    shed_ratio: float = 0.0
    #: measured offered load, transactions/second (all sites combined).
    offered_per_second: float = 0.0
    queue_wait_mean_ms: float = 0.0
    queue_wait_p95_ms: float = 0.0
    response_p50_ms: float = 0.0
    response_p95_ms: float = 0.0
    response_p99_ms: float = 0.0
    #: time-averaged admission-queue backlog summed over sites.
    mean_queue_length: float = 0.0

    def summary(self) -> str:
        return (f"{self.protocol:>8}  rate={self.arrival_rate_tps:6.1f}/s "
                f"carried={self.throughput:7.2f}/s  "
                f"shed={self.shed_ratio:5.3f}  "
                f"qwait={self.queue_wait_mean_ms:7.1f}ms  "
                f"p50={self.response_p50_ms:7.1f}  "
                f"p95={self.response_p95_ms:7.1f}  "
                f"p99={self.response_p99_ms:7.1f}")


class DistributedSystem:
    """One configured instance of the simulated DBMS."""

    def __init__(self, params: ModelParams, protocol: "CommitProtocol",
                 seed: int | None = None,
                 faults: "FaultConfig | None" = None,
                 initial_time: float = 0.0,
                 percentile_sample_cap: int | None = None,
                 wal_retention: bool = True) -> None:
        params.validate()
        self.params = params
        self.protocol = protocol
        protocol.bind(self)
        #: retain the full WAL record history?  Soak runs turn this off:
        #: completed transactions' recovery-index entries are pruned per
        #: commit so memory stays bounded by the in-flight population.
        self.wal_retention = wal_retention
        # ``initial_time`` starts the kernel clock mid-stream: a soak
        # segment resumed from a checkpoint continues at the checkpointed
        # simulated time instead of 0.
        self.env = Environment(initial_time=initial_time)
        self.streams = RandomStreams(seed if seed is not None else params.seed)

        #: the instrumentation plane (docs/MODEL.md): every layer
        #: publishes typed events here; observers subscribe.
        self.bus = EventBus()
        total_slots = params.mpl * params.num_sites
        self.open_mode = params.workload_mode is WorkloadMode.OPEN
        self.metrics = MetricsCollector(
            self.env, total_slots,
            initial_response_estimate=params.initial_response_time_estimate(),
            open_system=self.open_mode,
            percentile_sample_cap=percentile_sample_cap)
        # Subscription order is semantic: metrics must see block/unblock
        # transitions before the admission controller acts on them.
        self.metrics.subscribe(self.bus)
        self.admission = None
        if params.admission_control:
            from repro.admission import HalfAndHalfController
            self.admission = HalfAndHalfController(
                self.env,
                blocked_fraction_limit=params.admission_blocked_limit,
                cancel=self._on_load_control_cancel)
            self.admission.subscribe(self.bus)
        self.wfg = WaitForGraph(on_victim=self._on_deadlock_victim)
        # Wire plane: no topology keeps the zero-consult hot path; the
        # ``uniform`` spec exercises the LanSwitch indirection
        # (byte-identical); multi-DC specs pay per-link wire costs with
        # all jitter/loss draws on dedicated ``topology-link-*`` RNG
        # substreams (covered by soak checkpoints automatically).
        self.cost_model = build_cost_model(
            params.network_topology, params.num_sites, self.streams)
        self.network = Network(self.env, params.msg_cpu_ms, bus=self.bus,
                               cost_model=self.cost_model)
        # Replication plane: None (or R=1) keeps the strictly
        # partitioned PageDirectory on the historical hot path -- the
        # golden-sweep fixture pins that byte-for-byte.  R>1 swaps in a
        # ReplicaDirectory and enables post-commit write-all-available
        # propagation (see CohortAgent._replicate_updates).
        replication = params.replication
        if replication is not None and replication.is_active:
            self.directory = ReplicaDirectory(
                params.db_size, params.num_sites, params.num_data_disks,
                replication)
            self.replicas: ReplicaDirectory | None = self.directory
        else:
            self.directory = PageDirectory(params.db_size, params.num_sites,
                                           params.num_data_disks)
            self.replicas = None
        #: replication counters (available-copies accounting).
        self.replica_updates_sent = 0
        self.replica_writes_skipped = 0
        self.sites = self._build_sites()
        self.workload = WorkloadGenerator(params, self.directory, self.streams)
        #: per-logical-site bounded admission queues (open mode only;
        #: empty list in closed mode so the attribute is always present).
        self.open_queues: list["BoundedAdmissionQueue"] = []
        if self.open_mode:
            from repro.admission import BoundedAdmissionQueue
            self.open_queues = [
                BoundedAdmissionQueue(self.env, params.admission_queue_limit)
                for _ in range(params.num_sites)]
        self._surprise_rng = self.streams.stream("surprise-aborts")
        self.transactions_started = 0
        self._started = False
        # Soak support (open mode): arrival shutoff + drain detection.
        self._arrivals_stopped = False
        self.admitted_total = 0
        self.completed_total = 0
        self._drain_event: Event | None = None
        #: fault plane: None unless an *active* FaultConfig is attached,
        #: so the healthy path stays byte-identical (golden-sweep pin).
        self.faults: "FaultInjector | None" = None
        self.fault_timeouts: "FaultTimeouts | None" = None
        if faults is not None:
            faults.validate()
            if faults.is_active:
                from repro.faults.injector import FaultInjector
                self.faults = FaultInjector(self, faults)
                self.fault_timeouts = faults.timeouts
                self.network.faults = self.faults

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_sites(self) -> list[Site]:
        params = self.params
        hooks = dict(
            on_lender_abort=self._on_lender_abort,
            bus=self.bus,
            wal_retention=self.wal_retention,
        )
        if params.topology is Topology.CENTRALIZED:
            # One physical site with the aggregate resources; logical
            # sites keep their identity for page placement and workload.
            site = Site(
                self.env, 0, self.directory, self.wfg,
                num_cpus=params.num_cpus * params.num_sites,
                num_data_disks=params.num_data_disks * params.num_sites,
                num_log_disks=params.num_log_disks * params.num_sites,
                page_cpu_ms=params.page_cpu_ms,
                page_disk_ms=params.page_disk_ms,
                infinite_resources=params.infinite_resources,
                lending_enabled=self.protocol.lending,
                group_commit=params.group_commit,
                **hooks)
            # Stripe: logical site s, logical disk d -> physical disk
            # s * num_data_disks + d, mirroring the distributed layout.
            directory = self.directory
            num_disks = params.num_data_disks
            site.data_disk_for = (  # type: ignore[method-assign]
                lambda page: site.data_disks[
                    directory.site_of(page) * num_disks
                    + directory.disk_of(page)])
            return [site]
        return [
            Site(self.env, site_id, self.directory, self.wfg,
                 num_cpus=params.num_cpus,
                 num_data_disks=params.num_data_disks,
                 num_log_disks=params.num_log_disks,
                 page_cpu_ms=params.page_cpu_ms,
                 page_disk_ms=params.page_disk_ms,
                 infinite_resources=params.infinite_resources,
                 lending_enabled=self.protocol.lending,
                 group_commit=params.group_commit,
                 **hooks)
            for site_id in range(params.num_sites)]

    def site_for(self, logical_site: int) -> Site:
        """Physical site hosting a logical site's pages and cohorts."""
        if self.params.topology is Topology.CENTRALIZED:
            return self.sites[0]
        return self.sites[logical_site]

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the workload processes (idempotent).

        Closed mode: ``mpl`` always-busy slots per site.  Open mode: one
        Poisson arrival process per site feeding its bounded admission
        queue, and ``mpl`` server slots per site draining it.
        """
        if self._started:
            return
        self._started = True
        if self.faults is not None:
            self.faults.start()
        if self.open_mode:
            for logical_site in range(self.params.num_sites):
                self.env.process(
                    self._open_arrivals(logical_site),
                    name=f"arrivals-{logical_site}")
                for slot in range(self.params.mpl):
                    self.env.process(
                        self._open_worker(logical_site),
                        name=f"server-{logical_site}.{slot}")
            return
        for logical_site in range(self.params.num_sites):
            for slot in range(self.params.mpl):
                self.env.process(
                    self._slot(logical_site),
                    name=f"slot-{logical_site}.{slot}")

    def _slot(self, origin_site: int):
        """One multiprogramming slot: submit, run, restart or replace."""
        env = self.env
        while True:
            spec = self.workload.generate(origin_site, env.now)
            yield from self._run_to_commit(spec, env.now)

    def _open_arrivals(self, origin_site: int):
        """Poisson arrival source for one site's admission queue.

        With a :class:`~repro.db.workload.RateCurve` configured, gaps are
        drawn at the *peak* modulated rate and each candidate arrival is
        thinned with probability ``factor_at(t) / peak_factor`` (Lewis &
        Shedler), giving an exact non-homogeneous Poisson process.  The
        curveless path keeps the historical draw sequence untouched.
        """
        env = self.env
        params = self.params
        # A dedicated substream per site: arrival timing is independent
        # of every workload-shape draw (common random numbers hold
        # across protocols, and closed-mode streams are untouched).
        rng = self.streams.indexed_stream("open-arrivals", origin_site)
        curve = params.rate_curve
        peak_factor = curve.peak_factor if curve is not None else 1.0
        mean_interarrival_ms = 1000.0 / (params.arrival_rate_tps
                                         * peak_factor)
        queue = self.open_queues[origin_site]
        bus = self.bus
        while True:
            yield env.timeout(rng.expovariate(1.0 / mean_interarrival_ms))
            if self._arrivals_stopped:
                return
            if curve is not None and \
                    rng.random() * peak_factor > curve.factor_at(env.now):
                continue  # thinned: no arrival at this candidate point
            spec = self.workload.generate(origin_site, env.now)
            admitted = queue.offer((spec, env.now))
            if admitted:
                self.admitted_total += 1
            if bus.has_subscribers(EventKind.TXN_ARRIVE):
                bus.publish(TxnArrive(env.now, origin_site, spec.txn_id,
                                      admitted))
            if not admitted and bus.has_subscribers(EventKind.TXN_SHED):
                bus.publish(TxnShed(env.now, origin_site, spec.txn_id,
                                    len(queue)))

    def _open_worker(self, origin_site: int):
        """One of a site's ``mpl`` server slots: drain the queue."""
        env = self.env
        queue = self.open_queues[origin_site]
        bus = self.bus
        while True:
            spec, arrival_time = yield queue.get()
            if bus.has_subscribers(EventKind.TXN_DEQUEUE):
                bus.publish(TxnDequeue(env.now, origin_site, spec.txn_id,
                                       env.now - arrival_time))
            # Response time is measured from *arrival*, so queue wait is
            # part of it -- the open-system latency the paper's closed
            # model cannot show.
            yield from self._run_to_commit(spec, arrival_time)

    def _run_to_commit(self, spec: TransactionSpec, first_submit: float):
        """Drive one transaction through retries until it commits."""
        env = self.env
        incarnation = 0
        while True:
            if self.admission is not None:
                yield from self.admission.admit()
            if self.faults is not None:
                # A down origin site cannot accept new transactions.
                yield from self.faults.wait_until_up(
                    self.site_for(spec.origin_site))
            txn = self._launch(spec, incarnation, first_submit)
            assert txn.master is not None
            outcome = yield txn.master.process
            if self.admission is not None:
                self.admission.release()
            if self.faults is not None:
                self.faults.untrack(txn)
                self._reap_stragglers(txn)
            if outcome is TransactionOutcome.COMMITTED:
                self.bus.publish(TxnCommit(env.now, txn))
                self.completed_total += 1
                if not self.wal_retention:
                    # WAL truncation: this transaction's recovery-index
                    # entries (all incarnations, every participant) are
                    # dead — no resolution path will look them up again.
                    for access in spec.accesses:
                        self.site_for(access.site_id).log_manager \
                            .forget_txn(spec.txn_id, incarnation)
                if self._drain_event is not None:
                    self._check_drained()
                return
            reason = txn.abort_reason or AbortReason.SURPRISE_VOTE
            self.bus.publish(TxnAbort(env.now, txn, reason))
            # "A transaction that is aborted is restarted after a
            # delay ... equal to the average response time."
            yield env.timeout(self.metrics.restart_delay())
            incarnation += 1

    def _launch(self, spec: TransactionSpec, incarnation: int,
                first_submit: float) -> Transaction:
        """Create agents and processes for one incarnation."""
        env = self.env
        txn = Transaction(spec, incarnation, first_submit, env.now)
        self.transactions_started += 1
        bus = self.bus
        if incarnation == 0:
            if bus.has_subscribers(EventKind.TXN_SUBMIT):
                bus.publish(TxnSubmit(
                    env.now, txn,
                    tuple(a.site_id for a in spec.accesses)))
        elif bus.has_subscribers(EventKind.TXN_RESTART):
            bus.publish(TxnRestart(
                env.now, txn, tuple(a.site_id for a in spec.accesses)))
        master = MasterAgent(self, txn, self.site_for(spec.origin_site))
        txn.master = master
        for access in spec.accesses:
            cohort = CohortAgent(self, txn, self.site_for(access.site_id),
                                 access)
            cohort.master = master
            txn.cohorts.append(cohort)
            master.cohorts.append(cohort)
        # Start cohort processes first so their inboxes are being read
        # when the master's STARTWORK messages arrive.
        for cohort in txn.cohorts:
            cohort.process = env.process(
                cohort.run(), name=f"{txn.name}-cohort@{cohort.site.site_id}")
        master.process = env.process(master.run(), name=f"{txn.name}-master")
        if self.faults is not None:
            self.faults.track(txn)
        return txn

    def _reap_stragglers(self, txn: Transaction) -> None:
        """After the master finished, kill cohorts still executing.

        Prepared/precommitted cohorts are left alone: they are either
        in-doubt (locks held until WAL replay) or mid-resolution, and
        terminate through the recovery machinery.  Anything earlier in
        its lifecycle is simply an orphan of an already-decided
        incarnation.  A master lost to a site crash reaps with TIMEOUT:
        these cohorts' sites are up, and a SITE_CRASH cause would park
        a cohort that prepares meanwhile in doubt.
        """
        cause = txn.abort_reason
        if cause is None or cause is AbortReason.SITE_CRASH:
            cause = AbortReason.TIMEOUT
        for cohort in txn.cohorts:
            if cohort.state in (CohortState.PREPARED,
                                CohortState.PRECOMMITTED):
                continue
            if cohort.process is not None and cohort.process.is_alive:
                cohort.process.interrupt(cause)

    def abort_transaction(self, txn: Transaction, reason: AbortReason) -> None:
        """Kill an incarnation (deadlock victim or lender-abort cascade).

        Idempotent: repeated calls, and calls racing with normal
        completion, are ignored.
        """
        if txn.aborting or txn.outcome is not None:
            return
        txn.aborting = True
        txn.abort_reason = reason
        for process in txn.live_processes():
            process.interrupt(reason)

    # ------------------------------------------------------------------
    # Soak support: arrival shutoff, drain barrier, state capture
    # ------------------------------------------------------------------
    def stop_arrivals(self) -> None:
        """Stop admitting new open-system arrivals (soak barrier).

        Arrival processes exit at their next candidate arrival instant;
        transactions already admitted keep running to commit.
        """
        self._arrivals_stopped = True

    def when_drained(self) -> Event:
        """Event fired once every admitted transaction has committed.

        Meaningful after :meth:`stop_arrivals`; fires immediately if the
        system is already drained.
        """
        if self._drain_event is None:
            self._drain_event = Event(self.env)
            self._check_drained()
        return self._drain_event

    def _check_drained(self) -> None:
        event = self._drain_event
        if event is not None and not event.triggered \
                and self.completed_total >= self.admitted_total:
            self._drain_event = None
            event.succeed()

    def capture_soak_state(self) -> dict:
        """Picklable snapshot of all persistent state (soak checkpoint).

        Only valid at a quiescent drain barrier (``stop_arrivals`` +
        ``when_drained``): with no transaction in flight, everything
        that outlives a segment reduces to plain data — the kernel
        clock, RNG stream states, metric accumulators, admission-queue
        lifetime counters, and the workload's transaction-id cursor.
        """
        if not self.open_mode:
            raise RuntimeError("soak checkpointing requires open mode")
        if self.completed_total < self.admitted_total:
            raise RuntimeError(
                f"cannot checkpoint mid-flight: "
                f"{self.admitted_total - self.completed_total} admitted "
                f"transactions not yet committed")
        if not self.wal_retention:
            # Quiescent: sweep index entries that per-commit pruning
            # missed (e.g. a cohort's decision record written after its
            # master had already finished).
            for site in self.sites:
                site.log_manager.compact()
        return {
            "clock_ms": self.env.now,
            "rng": self.streams.capture_state(),
            "metrics": self.metrics.capture_state(),
            "workload": self.workload.capture_state(),
            "queues": [q.capture_state() for q in self.open_queues],
            "transactions_started": self.transactions_started,
            "admitted_total": self.admitted_total,
            "completed_total": self.completed_total,
        }

    def restore_soak_state(self, state: dict) -> None:
        """Adopt a :meth:`capture_soak_state` snapshot (before start()).

        The system must have been constructed with
        ``initial_time=state["clock_ms"]`` so every time-weighted
        accumulator anchors at the checkpointed clock.
        """
        if self._started:
            raise RuntimeError("restore_soak_state must precede start()")
        if self.env.now != state["clock_ms"]:
            raise RuntimeError(
                f"system clock {self.env.now} does not match checkpoint "
                f"clock {state['clock_ms']}; construct with "
                f"initial_time=clock_ms")
        self.streams.restore_state(state["rng"])
        self.metrics.restore_state(state["metrics"])
        self.workload.restore_state(state["workload"])
        for queue, queue_state in zip(self.open_queues, state["queues"]):
            queue.restore_state(queue_state)
        self.transactions_started = state["transactions_started"]
        self.admitted_total = state["admitted_total"]
        self.completed_total = state["completed_total"]

    # ------------------------------------------------------------------
    # Behavioural callbacks (these *act*; observation is on the bus)
    # ------------------------------------------------------------------
    def _on_deadlock_victim(self, txn: Transaction) -> None:
        if self.bus.has_subscribers(EventKind.DEADLOCK_VICTIM):
            self.bus.publish(DeadlockVictim(self.env.now, txn))
        self.abort_transaction(txn, AbortReason.DEADLOCK)

    def _on_load_control_cancel(self, txn: Transaction) -> None:
        self.abort_transaction(txn, AbortReason.LOAD_CONTROL)

    def _on_lender_abort(self, borrower: CohortAgent) -> None:
        if self.bus.has_subscribers(EventKind.LENDER_ABORT):
            self.bus.publish(LenderAbort(self.env.now, borrower))
        self.abort_transaction(borrower.txn, AbortReason.LENDER_ABORT)

    def surprise_no_vote(self) -> bool:
        """Draw whether a cohort surprise-votes NO (Experiment 6)."""
        prob = self.params.surprise_abort_prob
        return prob > 0 and self._surprise_rng.random() < prob

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, measured_transactions: int = 2000,
            warmup_transactions: int | None = None) -> SimulationResult:
        """Run the model and report measured-period statistics.

        ``warmup_transactions`` commits are discarded first (default:
        one tenth of the measured count).
        """
        if measured_transactions < 1:
            raise ValueError("measured_transactions must be >= 1")
        if warmup_transactions is None:
            warmup_transactions = max(measured_transactions // 10,
                                      self.params.mpl * self.params.num_sites)
        self.start()
        if warmup_transactions:
            self.env.run(until=self.metrics.when_committed(
                warmup_transactions))
        self.metrics.reset()
        for queue in self.open_queues:
            queue.reset_stats(self.env.now)
        self._snapshot_utilization()
        self.env.run(until=self.metrics.when_committed(
            measured_transactions))
        return self.result()

    def _resource_groups(self):
        cpus = [site.cpu for site in self.sites]
        data_disks = [d for site in self.sites for d in site.data_disks]
        log_disks = [d for site in self.sites
                     for d in site.log_manager.log_disks]
        return {"cpu": cpus, "data_disk": data_disks,
                "log_disk": log_disks}

    def _snapshot_utilization(self) -> None:
        self._util_baseline = {
            name: [r.busy_snapshot() for r in resources]
            for name, resources in self._resource_groups().items()}

    def _measured_utilization(self) -> dict[str, float]:
        baseline = getattr(self, "_util_baseline", None)
        elapsed = self.metrics.elapsed_ms
        if baseline is None or elapsed <= 0:
            return {}
        out = {}
        for name, resources in self._resource_groups().items():
            busy = sum(r.busy_snapshot() - start for r, start
                       in zip(resources, baseline[name]))
            capacity = sum(getattr(r, "capacity", 1) for r in resources)
            if capacity and capacity != float("inf"):
                out[name] = busy / (elapsed * capacity)
            else:
                out[name] = 0.0
        return out

    def result(self) -> SimulationResult:
        """Snapshot the measured-period statistics.

        Open mode returns an :class:`OpenSimulationResult`; closed mode
        keeps the exact historical :class:`SimulationResult` shape.
        """
        metrics = self.metrics
        overheads = ProtocolOverheads(
            execution_messages=metrics.exec_messages.mean,
            forced_writes=metrics.forced_writes.mean,
            commit_messages=metrics.commit_messages.mean)
        common: dict[str, typing.Any] = dict(
            protocol=self.protocol.name,
            mpl=self.params.mpl,
            committed=metrics.committed,
            aborted=metrics.aborted,
            elapsed_ms=metrics.elapsed_ms,
            throughput=metrics.throughput_per_second(),
            response_time_ms=metrics.response_times.mean,
            block_ratio=metrics.block_ratio(),
            borrow_ratio=metrics.borrow_ratio(),
            abort_ratio=metrics.abort_ratio(),
            overheads=overheads,
            aborts_by_reason={reason.value: count for reason, count
                              in metrics.aborts_by_reason.items()},
            deadlocks=self.wfg.deadlocks_found,
            shelf_entries=metrics.shelf_entries,
            response_ci_rel_half_width=(
                metrics.response_batches.relative_half_width(0.90)),
            utilization=self._measured_utilization())
        if not self.open_mode:
            return SimulationResult(**common)
        now = self.env.now
        return OpenSimulationResult(
            **common,
            arrival_rate_tps=self.params.arrival_rate_tps,
            offered=metrics.offered,
            shed=metrics.shed,
            shed_ratio=metrics.shed_ratio(),
            offered_per_second=metrics.offered_per_second(),
            queue_wait_mean_ms=metrics.queue_waits.mean,
            queue_wait_p95_ms=metrics.queue_wait_sample.percentile(0.95),
            response_p50_ms=metrics.response_sample.percentile(0.50),
            response_p95_ms=metrics.response_sample.percentile(0.95),
            response_p99_ms=metrics.response_sample.percentile(0.99),
            mean_queue_length=sum(q.length.average(now)
                                  for q in self.open_queues))

    def __repr__(self) -> str:
        return (f"<DistributedSystem {self.protocol.name} "
                f"sites={len(self.sites)} mpl={self.params.mpl}>")
