"""Configuration-driven fault injection (the general failure plane).

The paper's argument about commit protocols is ultimately an argument
about *failures* -- blocking in the 2PC family versus 3PC's termination
protocol -- yet most simulation studies only ever crash one hand-picked
process.  This package generalizes that: every fault is a directive of
one grammar, the fault plan (:class:`RegionPlan`, ``--fault-plan``; the
forms are in :mod:`repro.faults.region`), and the CLI's fault flags are
sugar that spells directives (:func:`flag_plan`).  The seeded
:class:`FaultPlan` realizes a plan, the :class:`FaultInjector` executes
it against a running :class:`~repro.db.system.DistributedSystem`, and
the protocol layer (``core/base.py``) supplies the timeout and WAL-replay
recovery machinery every registered protocol inherits.

Determinism: all fault draws come from dedicated named RNG streams
(``faults-site-<id>``, ``faults-dc-<dc>``, ``faults-partition-<a>-<b>``,
``faults-msgloss``, ``faults-msgdelay``), so enabling faults never
perturbs the workload streams, and the same seed plus the same
:class:`FaultConfig` reproduces the identical failure trajectory.

An *inactive* config (:attr:`FaultConfig.is_active` false) wires
nothing: the system runs byte-identical to one built without faults
(pinned against ``tests/data/golden_sweep.json``).
"""

from repro.faults.plan import FaultConfig, FaultPlan, FaultTimeouts, flag_plan
from repro.faults.region import RegionDirective, RegionPlan
from repro.faults.injector import FaultInjector

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultPlan",
    "FaultTimeouts",
    "RegionDirective",
    "RegionPlan",
    "flag_plan",
]
