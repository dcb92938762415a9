"""repro: a reproduction of *Revisiting Commit Processing in Distributed
Database Systems* (Gupta, Haritsa, Ramamritham; SIGMOD 1997).

The package simulates a distributed DBMS (closed queueing model) under a
family of transaction commit protocols -- 2PC, presumed abort, presumed
commit, 3PC, the paper's new OPT protocol and its combinations -- plus
the CENT and DPCC baselines, and regenerates every table and figure of
the paper's evaluation.

Quickstart::

    from repro import simulate

    result = simulate("OPT", mpl=6)
    print(result.summary())

See ``examples/`` for richer usage and ``benchmarks/`` for the paper's
experiments.
"""

from __future__ import annotations

import typing

from repro.config import (
    ModelParams,
    Topology,
    TransactionType,
    WorkloadMode,
    baseline_rc_dc,
    fast_network,
    high_distribution,
    open_system,
    pure_data_contention,
    sequential_transactions,
    surprise_aborts,
)
from repro.core import (
    PROTOCOL_NAMES,
    CommitProtocol,
    create_protocol,
    protocol_requires_centralized_topology,
)
from repro.db.system import (
    DistributedSystem,
    OpenSimulationResult,
    SimulationResult,
)
from repro.db.topology import (
    NetworkTopology,
    TopologyKind,
    WanTopology,
)
from repro.db.pages import ReplicationSpec
from repro.db.workload import AccessSkew, SkewKind

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultConfig

__version__ = "1.0.0"

__all__ = [
    "PROTOCOL_NAMES",
    "AccessSkew",
    "CommitProtocol",
    "DistributedSystem",
    "ModelParams",
    "NetworkTopology",
    "OpenSimulationResult",
    "ReplicationSpec",
    "SimulationResult",
    "SkewKind",
    "Topology",
    "TopologyKind",
    "TransactionType",
    "WanTopology",
    "WorkloadMode",
    "baseline_rc_dc",
    "build_system",
    "create_protocol",
    "fast_network",
    "high_distribution",
    "open_system",
    "protocol_requires_centralized_topology",
    "pure_data_contention",
    "sequential_transactions",
    "simulate",
    "surprise_aborts",
]


def build_system(protocol: str, params: ModelParams | None = None,
                 seed: int | None = None,
                 faults: "FaultConfig | None" = None,
                 **param_overrides: object,
                 ) -> DistributedSystem:
    """Construct a ready-to-run system for the named protocol.

    The CENT baseline automatically switches the topology to
    centralized; everything else runs distributed unless the caller's
    ``params`` say otherwise.

    ``faults`` (a :class:`repro.faults.FaultConfig`) arms the fault
    injector: site crash/recover cycles, message loss, and the protocol
    timeout machinery.  ``None`` (the default) keeps the failure-free
    model byte-identical to previous releases.
    """
    if params is None:
        params = ModelParams()
    if param_overrides:
        params = params.replace(**param_overrides)
    if protocol_requires_centralized_topology(protocol):
        params = params.replace(topology=Topology.CENTRALIZED)
    return DistributedSystem(params, create_protocol(protocol), seed=seed,
                             faults=faults)


def simulate(protocol: str, params: ModelParams | None = None,
             measured_transactions: int = 2000,
             warmup_transactions: int | None = None,
             seed: int | None = None,
             on_system: object = None,
             faults: "FaultConfig | None" = None,
             **param_overrides: object) -> SimulationResult:
    """Run one simulation and return its :class:`SimulationResult`.

    ``param_overrides`` are applied on top of ``params`` (or the
    baseline settings), e.g. ``simulate("2PC", mpl=4, dist_degree=6)``.

    ``on_system`` (if given) is called with the built
    :class:`DistributedSystem` before the run starts -- the hook for
    attaching observers to ``system.bus`` (tracers, event exporters,
    phase-latency breakdowns; see :mod:`repro.obs`).

    ``faults`` (if given) is the :class:`repro.faults.FaultConfig` for
    the run; see :mod:`repro.faults`.
    """
    system = build_system(protocol, params, seed=seed, faults=faults,
                          **param_overrides)
    if on_system is not None:
        on_system(system)  # type: ignore[operator]
    return system.run(measured_transactions=measured_transactions,
                      warmup_transactions=warmup_transactions)
