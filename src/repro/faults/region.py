"""Correlated-failure plans: datacenter outages and link partitions.

The per-site fault plane (:mod:`repro.faults.plan`) crashes sites
*independently* -- the assumption the paper's blocking argument was made
under.  Real failures correlate: a power event takes out every site of a
datacenter at once, a cut fiber partitions two datacenters while all
their sites keep running.  Gray & Lamport's non-blocking argument is
about exactly this regime, so the reproduction needs a way to express
it.

:class:`RegionPlan` is the parseable spec (``--fault-plan`` on the CLI):
a comma-separated list of :class:`RegionDirective` entries, each either
*scheduled* (``at=<ms>:for=<ms>``) or *stochastic*
(``mttf=<ms>:mttr=<ms>``, exponential cycles on a dedicated RNG stream
per directive):

- ``dc_crash:<dc>:at=<ms>:for=<ms>`` -- every site of datacenter
  ``<dc>`` crashes atomically at ``at`` and recovers ``for`` ms later.
- ``dc_crash:<dc>:mttf=<ms>:mttr=<ms>`` -- the whole-DC outage repeats
  on an exponential MTTF/MTTR cycle.
- ``partition:<dcA>|<dcB>:at=<ms>:for=<ms>`` -- the link group between
  the two datacenters is severed (messages and inquiries across it are
  dropped; the sites themselves stay up) and heals ``for`` ms later.
- ``partition:<dcA>|<dcB>:mttf=<ms>:mttr=<ms>`` -- stochastic variant.
- ``master_stall:<txn>:for=<ms>`` -- transaction ``<txn>``'s master
  goes silent for ``for`` ms just before it forces its COMMIT record,
  while its site stays up: every cohort is in its decision wait then
  (prepared, or precommitted under 3PC), so the stall measures the
  paper's Section 2.4 blocking window.  It names no datacenter, so it
  needs no multi-DC topology.

Directives compose: overlapping severs of the same link group nest
(depth-counted), and a DC crash overlapping a per-site outage only takes
down -- and later only recovers -- the sites it actually crashed.

A plan's DC directives are resolved against the active topology's
site -> datacenter placement by the injector; running one without a
multi-DC topology is a configuration error (surfaced as a CLI ``error:``
exit, like a bad ``--topology`` spec).
"""

from __future__ import annotations

import dataclasses

from repro.db.topology import parse_options

#: canonical spelling of the accepted directive forms (quoted by parse
#: errors).
_PLAN_FORMS = ("'dc_crash:<dc>:at=<ms>:for=<ms>', "
               "'dc_crash:<dc>:mttf=<ms>:mttr=<ms>', "
               "'partition:<dcA>|<dcB>:at=<ms>:for=<ms>', "
               "'partition:<dcA>|<dcB>:mttf=<ms>:mttr=<ms>', or "
               "'master_stall:<txn>:for=<ms>' (comma-separated)")


@dataclasses.dataclass(frozen=True)
class RegionDirective:
    """One correlated-failure clause of a :class:`RegionPlan`.

    Exactly one mode is set: *scheduled* (``at_ms >= 0`` with a positive
    ``for_ms``) or *stochastic* (positive ``mttf_ms``/``mttr_ms``); a
    ``master_stall`` sets only ``txn`` and ``for_ms``.  Partition
    endpoints are normalized so ``dc_a < dc_b`` -- a severed link group
    cuts both directions.
    """

    kind: str  # "dc_crash" | "partition" | "master_stall"
    #: dc_crash: the datacenter that goes down.
    dc: int = -1
    #: partition: the two datacenters whose link group is severed.
    dc_a: int = -1
    dc_b: int = -1
    #: master_stall: the transaction whose master stalls.
    txn: int = -1
    #: scheduled mode: onset time and outage duration.
    at_ms: float = -1.0
    for_ms: float = 0.0
    #: stochastic mode: exponential healthy/outage cycle means.
    mttf_ms: float = 0.0
    mttr_ms: float = 0.0

    @property
    def is_scheduled(self) -> bool:
        return self.at_ms >= 0.0

    @property
    def stream_name(self) -> str:
        """Dedicated RNG stream for this directive's stochastic cycle."""
        if self.kind == "dc_crash":
            return f"faults-dc-{self.dc}"
        return f"faults-partition-{self.dc_a}-{self.dc_b}"

    def dcs(self) -> tuple[int, ...]:
        """Every datacenter this directive references."""
        if self.kind == "dc_crash":
            return (self.dc,)
        if self.kind == "master_stall":
            return ()
        return (self.dc_a, self.dc_b)

    def validate(self) -> None:
        if self.kind not in ("dc_crash", "partition", "master_stall"):
            raise ValueError(f"unknown directive kind {self.kind!r}")
        if self.kind == "master_stall":
            if self.txn < 0:
                raise ValueError("master_stall needs a transaction id >= 0")
            if self.is_scheduled or self.mttf_ms or self.mttr_ms:
                raise ValueError("master_stall takes only for=<ms>")
            if self.for_ms <= 0:
                raise ValueError("master_stall needs for=<ms> > 0")
            return
        if self.kind == "dc_crash":
            if self.dc < 0:
                raise ValueError("dc_crash needs a datacenter index >= 0")
        else:
            if self.dc_a < 0 or self.dc_b < 0:
                raise ValueError(
                    "partition needs two datacenter indices >= 0")
            if self.dc_a == self.dc_b:
                raise ValueError(
                    f"partition endpoints must differ, got "
                    f"{self.dc_a}|{self.dc_b}")
        scheduled = self.is_scheduled or self.for_ms > 0
        stochastic = self.mttf_ms > 0 or self.mttr_ms > 0
        if scheduled and stochastic:
            raise ValueError(
                "a directive is either scheduled (at=/for=) or "
                "stochastic (mttf=/mttr=), not both")
        if scheduled:
            if self.at_ms < 0 or self.for_ms <= 0:
                raise ValueError(
                    "scheduled directives need at=<ms> >= 0 and "
                    "for=<ms> > 0")
        elif stochastic:
            if self.mttf_ms <= 0 or self.mttr_ms <= 0:
                raise ValueError(
                    "stochastic directives need mttf=<ms> > 0 and "
                    "mttr=<ms> > 0")
        else:
            raise ValueError(
                "directive needs either at=<ms>:for=<ms> or "
                "mttf=<ms>:mttr=<ms>")

    def describe(self) -> str:
        if self.kind == "master_stall":
            return f"master_stall txn{self.txn} for={self.for_ms:g}ms"
        target = (f"dc{self.dc}" if self.kind == "dc_crash"
                  else f"dc{self.dc_a}|dc{self.dc_b}")
        if self.is_scheduled:
            timing = f"at={self.at_ms:g}ms for={self.for_ms:g}ms"
        else:
            timing = f"mttf={self.mttf_ms:g}ms mttr={self.mttr_ms:g}ms"
        return f"{self.kind} {target} {timing}"


@dataclasses.dataclass(frozen=True)
class RegionPlan:
    """A parsed correlated-failure plan (tuple of directives).

    Attached to a :class:`repro.faults.FaultConfig` via its ``region``
    field; an empty plan is inactive.  The datacenter indices are checked
    against the live topology's placement when the injector wires up
    (:meth:`check_dcs`), not at parse time -- the plan text does not know
    the topology.
    """

    directives: tuple[RegionDirective, ...] = ()

    def validate(self) -> None:
        for directive in self.directives:
            directive.validate()

    def check_dcs(self, num_dcs: int) -> None:
        """Reject directives referencing datacenters the topology lacks."""
        for directive in self.directives:
            for dc in directive.dcs():
                if dc >= num_dcs:
                    raise ValueError(
                        f"fault plan references datacenter {dc} but the "
                        f"topology only has {num_dcs} "
                        f"(directive: {directive.describe()})")

    def describe(self) -> str:
        if not self.directives:
            return "none"
        return ", ".join(d.describe() for d in self.directives)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "RegionPlan":
        """Parse the CLI syntax (module docstring has the grammar)."""
        raw = text.strip().lower()
        if not raw:
            raise ValueError(f"bad fault plan spec {text!r}: empty plan")
        directives = []
        for clause in raw.split(","):
            directives.append(cls._parse_directive(clause.strip(), text))
        plan = cls(directives=tuple(directives))
        try:
            plan.validate()
        except ValueError as error:
            raise ValueError(
                f"bad fault plan spec {text!r}: {error}") from None
        return plan

    @classmethod
    def _parse_directive(cls, clause: str, text: str) -> RegionDirective:
        parts = clause.split(":")
        kind = parts[0]
        try:
            if kind == "dc_crash" and len(parts) >= 3:
                options = parse_options(
                    parts[2:], ("at", "for", "mttf", "mttr"))
                return RegionDirective(
                    kind="dc_crash", dc=int(parts[1]),
                    **cls._timing(options))
            if kind == "partition" and len(parts) >= 3:
                ends = parts[1].split("|")
                if len(ends) != 2:
                    raise ValueError(
                        f"expected <dcA>|<dcB> endpoints, got {parts[1]!r}")
                dc_a, dc_b = sorted(int(end) for end in ends)
                options = parse_options(
                    parts[2:], ("at", "for", "mttf", "mttr"))
                return RegionDirective(
                    kind="partition", dc_a=dc_a, dc_b=dc_b,
                    **cls._timing(options))
            if kind == "master_stall" and len(parts) >= 3:
                options = parse_options(parts[2:], ("for",))
                return RegionDirective(
                    kind="master_stall", txn=int(parts[1]),
                    **cls._timing(options))
        except ValueError as error:
            raise ValueError(
                f"bad fault plan spec {text!r}: {error}") from None
        raise ValueError(
            f"bad fault plan spec {text!r}; expected {_PLAN_FORMS}")

    @staticmethod
    def _timing(options: dict[str, float]) -> dict[str, float]:
        timing: dict[str, float] = {}
        if "at" in options:
            timing["at_ms"] = options["at"]
        if "for" in options:
            timing["for_ms"] = options["for"]
        if "mttf" in options:
            timing["mttf_ms"] = options["mttf"]
        if "mttr" in options:
            timing["mttr_ms"] = options["mttr"]
        return timing
