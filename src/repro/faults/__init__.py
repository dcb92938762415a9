"""Configuration-driven fault injection (the general failure plane).

The paper's argument about commit protocols is ultimately an argument
about *failures* -- blocking in the 2PC family versus 3PC's termination
protocol -- yet most simulation studies only ever crash one hand-picked
process.  This package generalizes that: a seeded, deterministic
:class:`FaultPlan` schedules stochastic site crash/recover cycles
(MTTF/MTTR) or explicit crash schedules, plus per-message loss in the
network; the :class:`FaultInjector` executes the plan against a
running :class:`~repro.db.system.DistributedSystem`, and the protocol
layer (``core/base.py``) supplies the timeout and WAL-replay recovery
machinery every registered protocol inherits.

Determinism: all fault draws come from dedicated named RNG streams
(``faults-site-<id>``, ``faults-msgloss``), so enabling faults never
perturbs the workload streams, and the same seed plus the same
:class:`FaultConfig` reproduces the identical failure trajectory.

Correlated failures (:mod:`repro.faults.region`) extend the plane from
independent per-site crashes to whole-datacenter outages and inter-DC
link partitions: a parseable :class:`RegionPlan` (``--fault-plan``)
crashes every site of a datacenter atomically or severs the link group
between two datacenters, with scheduled (``at=/for=``) or stochastic
(``mttf=/mttr=`` on per-directive streams ``faults-dc-<dc>`` /
``faults-partition-<a>-<b>``) timing.  Those directives require a
multi-datacenter topology (``--topology dcs:...``) to resolve the
site -> datacenter placement.  The plan's ``master_stall`` directive is
the hand-picked case: one transaction's master goes silent before its
COMMIT force (the ``blocking`` preset of :mod:`repro.experiments.grid`
measures it).

An *inactive* config (:attr:`FaultConfig.is_active` false) wires
nothing: the system runs byte-identical to one built without faults
(pinned against ``tests/data/golden_sweep.json``).
"""

from repro.faults.plan import CrashEvent, FaultConfig, FaultPlan, FaultTimeouts
from repro.faults.region import RegionDirective, RegionPlan
from repro.faults.injector import FaultInjector

__all__ = [
    "CrashEvent",
    "FaultConfig",
    "FaultInjector",
    "FaultPlan",
    "FaultTimeouts",
    "RegionDirective",
    "RegionPlan",
]
