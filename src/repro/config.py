"""Simulation model parameters (paper Table 1) and baseline settings.

The dataclass mirrors Table 1 of the paper; the preset constructors mirror
the per-experiment settings of Section 5.  Times are in **milliseconds**.

Paper Table 2 (baseline values) is garbled in the available scan; values
are reconstructed from the paper's prose and the authors' companion
simulator (see DESIGN.md section 3 for the provenance of each value).
"""

from __future__ import annotations

import dataclasses
import enum
import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.pages import ReplicationSpec
    from repro.db.topology import NetworkTopology
    from repro.db.workload import AccessSkew, RateCurve


class WorkloadMode(enum.Enum):
    """How transactions enter the system."""

    #: The paper's closed queueing model: a fixed multiprogramming level
    #: of ``mpl`` transactions per site, each slot refilled on commit.
    CLOSED = "closed"
    #: Open system: per-site Poisson arrivals at ``arrival_rate_tps``,
    #: a bounded admission queue (``admission_queue_limit``) shedding
    #: load when full, and at most ``mpl`` concurrently executing
    #: transactions per site.
    OPEN = "open"


class TransactionType(enum.Enum):
    """How a transaction's cohorts execute (paper Section 4.1)."""

    #: Cohorts are started together and execute independently.
    PARALLEL = "parallel"
    #: Cohorts execute one after another.
    SEQUENTIAL = "sequential"


class Topology(enum.Enum):
    """Placement of data and processing."""

    #: Normal distributed system: pages striped across ``num_sites``.
    DISTRIBUTED = "distributed"
    #: CENT baseline: one site holding all data, with the aggregate
    #: physical resources of the distributed configuration, and the
    #: aggregate multiprogramming level.  The cohort structure of
    #: transactions is retained so that exactly the *distribution* effect
    #: is removed (paper Section 5.1).
    CENTRALIZED = "centralized"


@dataclasses.dataclass
class ModelParams:
    """All knobs of the closed queueing model (paper Table 1).

    Defaults are the baseline settings of Experiment 1 (resource plus
    data contention, "RC+DC").
    """

    # ----- workload ---------------------------------------------------
    num_sites: int = 8
    #: Table 2 is unreadable in the available scan; 2400 (the value in
    #: the authors' companion RTSS'96 simulator) thrashes earlier than
    #: the paper's figures, so the default is calibrated to 4800, which
    #: puts the peak-throughput MPL at 3-4 under both RC+DC and pure DC,
    #: where Figures 1a/2a have it.  See DESIGN.md section 3.
    db_size: int = 4800
    mpl: int = 8                       # transactions per site
    trans_type: TransactionType = TransactionType.PARALLEL
    dist_degree: int = 3               # number of cohorts
    cohort_size: int = 6               # average pages per cohort
    update_prob: float = 1.0

    # ----- physical resources ------------------------------------------
    num_cpus: int = 1
    num_data_disks: int = 2
    num_log_disks: int = 1
    page_cpu_ms: float = 5.0
    page_disk_ms: float = 20.0
    msg_cpu_ms: float = 5.0

    #: Experiment 2: make CPUs and disks infinite (pure data contention).
    infinite_resources: bool = False

    # ----- scenario ----------------------------------------------------
    topology: Topology = Topology.DISTRIBUTED

    #: network placement and wire costs (extension; see docs/MODEL.md).
    #: None and the ``uniform`` spec are the paper's zero-latency
    #: switch; ``dcs:``/``matrix:`` specs pay per-link wire
    #: latency/jitter/loss.
    network_topology: "NetworkTopology | None" = None
    #: workload placement: pick cohort sites from the master's own
    #: datacenter first (requires a multi-DC ``network_topology``).
    prefer_local_cohorts: bool = False

    #: Probability that a cohort "surprise"-votes NO on PREPARE
    #: (Experiment 6).  0.01/0.05/0.10 give transaction abort
    #: probabilities of roughly 3%/15%/27% at dist_degree=3.
    surprise_abort_prob: float = 0.0

    #: Enable the read-only one-phase optimization (paper Section 3.2,
    #: "Read-Only").  Only observable when update_prob < 1.
    read_only_optimization: bool = False

    #: Enable Half-and-Half admission control (paper Section 5 cites it
    #: as the way peak throughput "can be maintained" past the thrashing
    #: MPL).  See :mod:`repro.admission`.
    admission_control: bool = False
    #: blocked-transaction fraction at which admissions stop.
    admission_blocked_limit: float = 0.5

    #: Batch forced log writes at the log disks (paper Section 3.2,
    #: "Group Commit").
    group_commit: bool = False

    # ----- open-system workload (extension; see docs/MODEL.md) ---------
    #: CLOSED keeps the paper's fixed-MPL model byte-identical; OPEN
    #: turns ``mpl`` into a per-site concurrency cap fed by arrivals.
    workload_mode: WorkloadMode = WorkloadMode.CLOSED
    #: mean Poisson arrival rate per site, transactions/second (OPEN).
    arrival_rate_tps: float = 0.0
    #: per-site admission queue bound; arrivals beyond it are shed (OPEN).
    admission_queue_limit: int = 64
    #: page-access skew (None = the paper's uniform model).  An
    #: :class:`repro.db.workload.AccessSkew`; applies in both modes.
    skew: "AccessSkew | None" = None
    #: time-varying multiplier on ``arrival_rate_tps`` (OPEN only;
    #: None = homogeneous Poisson).  A :class:`repro.db.workload.RateCurve`.
    rate_curve: "RateCurve | None" = None

    #: page replication (extension; see docs/MODEL.md).  None or R=1
    #: keeps the paper's strictly partitioned placement byte-identical
    #: on the historical hot path; R>1 gives every page an R-site
    #: replica set (read-one-local / write-all-available).  A
    #: :class:`repro.db.pages.ReplicationSpec`.
    replication: "ReplicationSpec | None" = None

    # ----- run control --------------------------------------------------
    seed: int = 20250705

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on any inconsistent setting."""
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if self.db_size < self.num_sites:
            raise ValueError("db_size must be >= num_sites")
        if self.mpl < 1:
            raise ValueError("mpl must be >= 1")
        if not 1 <= self.dist_degree <= self.num_sites:
            raise ValueError(
                f"dist_degree must be in [1, num_sites={self.num_sites}] "
                f"(one cohort per distinct site), got {self.dist_degree}")
        if self.cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        if not 0.0 <= self.update_prob <= 1.0:
            raise ValueError("update_prob must be in [0, 1]")
        if not 0.0 <= self.surprise_abort_prob <= 1.0:
            raise ValueError("surprise_abort_prob must be in [0, 1]")
        if self.num_cpus < 1 or self.num_data_disks < 1 or self.num_log_disks < 1:
            raise ValueError("resource counts must be >= 1")
        if self.page_cpu_ms < 0 or self.page_disk_ms < 0 or self.msg_cpu_ms < 0:
            raise ValueError("service times must be >= 0")
        if not 0.0 < self.admission_blocked_limit <= 1.0:
            raise ValueError("admission_blocked_limit must be in (0, 1]")
        max_cohort_pages = self.max_cohort_pages
        if self.pages_per_site < max_cohort_pages:
            raise ValueError(
                f"a site must hold at least the largest cohort access set "
                f"(1.5 x cohort_size = {max_cohort_pages} pages), but "
                f"db_size={self.db_size} over num_sites={self.num_sites} "
                f"leaves only {self.pages_per_site} pages per site")
        if self.arrival_rate_tps < 0:
            raise ValueError(
                f"arrival_rate_tps must be >= 0, got {self.arrival_rate_tps}")
        if self.workload_mode is WorkloadMode.OPEN \
                and self.arrival_rate_tps <= 0:
            raise ValueError(
                "the open workload mode needs arrival_rate_tps > 0 "
                "(per-site Poisson arrival rate in transactions/second)")
        if self.admission_queue_limit < 1:
            raise ValueError(
                f"admission_queue_limit must be >= 1, got "
                f"{self.admission_queue_limit}")
        if self.network_topology is not None:
            self.network_topology.validate()
            self.network_topology.check_num_sites(self.num_sites)
            if not self.network_topology.is_uniform \
                    and self.topology is Topology.CENTRALIZED:
                raise ValueError(
                    "the CENT baseline runs at a single site; a "
                    "multi-datacenter network_topology does not apply")
        if self.prefer_local_cohorts:
            if self.network_topology is None \
                    or self.network_topology.placement(self.num_sites) \
                    is None:
                raise ValueError(
                    "prefer_local_cohorts needs a multi-datacenter "
                    "network_topology (dcs:... or matrix:...) so that "
                    "'local' has a meaning")
        if self.skew is not None:
            self.skew.validate()
        if self.rate_curve is not None:
            if self.workload_mode is not WorkloadMode.OPEN:
                raise ValueError(
                    "rate_curve only applies to the open workload mode")
            self.rate_curve.validate()
        if self.replication is not None:
            self.replication.validate(self.num_sites)
            if self.replication.is_active \
                    and self.topology is Topology.CENTRALIZED:
                raise ValueError(
                    "the CENT baseline holds all data at a single site; "
                    "page replication does not apply")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def pages_per_site(self) -> int:
        """Pages stored at each site (uniform striping)."""
        return self.db_size // self.num_sites

    @property
    def min_cohort_pages(self) -> int:
        """Smallest cohort access-set size (0.5 x CohortSize)."""
        return max(1, math.ceil(0.5 * self.cohort_size))

    @property
    def max_cohort_pages(self) -> int:
        """Largest cohort access-set size (1.5 x CohortSize)."""
        return max(1, math.floor(1.5 * self.cohort_size))

    @property
    def mean_transaction_pages(self) -> float:
        """Expected total pages accessed by one transaction."""
        return self.dist_degree * self.cohort_size

    def initial_response_time_estimate(self) -> float:
        """A crude prior for the restart-delay heuristic.

        Before any transaction has committed there is no measured mean
        response time; use the no-contention service demand instead.
        """
        per_page = self.page_cpu_ms + self.page_disk_ms
        if self.trans_type is TransactionType.PARALLEL:
            execution = self.cohort_size * per_page
        else:
            execution = self.mean_transaction_pages * per_page
        commit = 3 * self.page_disk_ms + 4 * self.msg_cpu_ms
        return execution + commit

    def replace(self, **changes: object) -> "ModelParams":
        """A copy with the given fields changed (validates the result)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Presets matching the paper's experiments (Section 5)
# ----------------------------------------------------------------------

def baseline_rc_dc(**overrides: object) -> ModelParams:
    """Experiment 1: significant resource *and* data contention."""
    return ModelParams(**overrides)  # type: ignore[arg-type]


def pure_data_contention(**overrides: object) -> ModelParams:
    """Experiment 2: infinite physical resources, contention on data only."""
    params = {"infinite_resources": True}
    params.update(overrides)
    return ModelParams(**params)  # type: ignore[arg-type]


def fast_network(pure_dc: bool = False, **overrides: object) -> ModelParams:
    """Experiment 3: five-times-faster network interface (MsgCPU = 1ms)."""
    params: dict[str, object] = {"msg_cpu_ms": 1.0}
    if pure_dc:
        params["infinite_resources"] = True
    params.update(overrides)
    return ModelParams(**params)  # type: ignore[arg-type]


def high_distribution(pure_dc: bool = False, **overrides: object) -> ModelParams:
    """Experiment 4: DistDegree = 6 with CohortSize = 3.

    The cohort size is reduced so the average transaction length matches
    the baseline (6 x 3 = 3 x 6 = 18 pages).
    """
    params: dict[str, object] = {"dist_degree": 6, "cohort_size": 3}
    if pure_dc:
        params["infinite_resources"] = True
    params.update(overrides)
    return ModelParams(**params)  # type: ignore[arg-type]


def surprise_aborts(cohort_abort_prob: float, pure_dc: bool = False,
                    **overrides: object) -> ModelParams:
    """Experiment 6: cohorts vote NO with the given probability."""
    params: dict[str, object] = {"surprise_abort_prob": cohort_abort_prob}
    if pure_dc:
        params["infinite_resources"] = True
    params.update(overrides)
    return ModelParams(**params)  # type: ignore[arg-type]


def sequential_transactions(**overrides: object) -> ModelParams:
    """Section 5.8: sequential (rather than parallel) cohort execution."""
    params: dict[str, object] = {"trans_type": TransactionType.SEQUENTIAL}
    params.update(overrides)
    return ModelParams(**params)  # type: ignore[arg-type]


#: Per-site arrival rate used when the CLI enables ``--open`` without an
#: explicit ``--arrival-rate`` (a mid-load point under the baseline
#: hardware: each site sustains ~1.6 committed txns/s at mpl=8, so 1.0
#: offered txns/s/site is roughly 60% utilization).
DEFAULT_OPEN_ARRIVAL_TPS = 1.0


def open_system(arrival_rate_tps: float = DEFAULT_OPEN_ARRIVAL_TPS,
                skew: "AccessSkew | None" = None,
                admission_queue_limit: int = 64,
                rate_curve: "RateCurve | None" = None,
                **overrides: object) -> ModelParams:
    """Open-system extension: Poisson arrivals + bounded admission queue.

    ``mpl`` becomes the per-site concurrency cap (service parallelism)
    rather than a fixed population; ``skew`` optionally concentrates
    accesses on hot pages (see :class:`repro.db.workload.AccessSkew`).
    """
    params: dict[str, object] = {
        "workload_mode": WorkloadMode.OPEN,
        "arrival_rate_tps": arrival_rate_tps,
        "admission_queue_limit": admission_queue_limit,
        "skew": skew,
        "rate_curve": rate_curve,
    }
    params.update(overrides)
    return ModelParams(**params)  # type: ignore[arg-type]
