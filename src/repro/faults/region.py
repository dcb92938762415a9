"""The fault plan: one grammar for every fault the plane injects.

:class:`RegionPlan` (``--fault-plan`` on the CLI, ``FaultConfig.region``
in the library) is a comma-separated list of :class:`RegionDirective`
entries.  An outage is *scheduled* (``at=<ms>:for=<ms>``) or
*stochastic* (``mttf=<ms>:mttr=<ms>``, exponential healthy/outage cycles
on the directive's own RNG stream, named in brackets):

- ``site_crash:<site|*>:...`` -- the site crashes, then recovers
  [``faults-site-<id>``]; ``*`` is one directive per site, in site order.
- ``dc_crash:<dc>:...`` -- every site of the datacenter crashes at once,
  then recovers [``faults-dc-<dc>``].
- ``partition:<dcA>|<dcB>:...`` -- the link group between the two
  datacenters is severed, then heals; the sites stay up
  [``faults-partition-<a>-<b>``].
- ``loss:<p>`` and ``delay:<ms>`` -- each remote message is lost with
  probability ``p`` [``faults-msgloss``] and arrives late by an
  exponential extra delay of mean ``<ms>`` [``faults-msgdelay``]; a plan
  holds at most one of each, as each draws from its one stream.
- ``master_stall:<txn>:for=<ms>`` -- transaction ``<txn>``'s master goes
  silent for ``for`` ms just before it forces its COMMIT record, while
  its site stays up and every cohort waits for the decision (the
  paper's Section 2.4 blocking window).

One overlap rule covers every crash: an onset that finds its site down
does not take it (a skipped stochastic ``site_crash`` skips its downtime
too), and a directive recovers only the sites it took down.  Overlapping
severs of one link group nest.  The plan text does not know the system:
sites are checked against it, and datacenters against the topology's
site -> datacenter placement (so ``dc_crash`` and ``partition`` need a
multi-DC ``--topology``), when the injector wires up; a mismatch is a
configuration error (a CLI ``error:`` exit).
"""

from __future__ import annotations

import dataclasses

from repro.db.topology import parse_options

#: canonical spelling of the accepted directive forms (quoted by parse
#: errors).
_PLAN_FORMS = ("'site_crash:<site|*>:at=<ms>:for=<ms>', "
               "'dc_crash:<dc>:at=<ms>:for=<ms>', "
               "'partition:<dcA>|<dcB>:at=<ms>:for=<ms>' (each also "
               "with mttf=<ms>:mttr=<ms>), 'loss:<p>', 'delay:<ms>', or "
               "'master_stall:<txn>:for=<ms>' (comma-separated)")
#: the RNG stream each kind draws from, over the directive's fields.
_STREAMS = {"site_crash": "faults-site-{site}", "dc_crash": "faults-dc-{dc}",
            "partition": "faults-partition-{dc_a}-{dc_b}",
            "loss": "faults-msgloss", "delay": "faults-msgdelay"}


@dataclasses.dataclass(frozen=True)
class RegionDirective:
    """One clause of a :class:`RegionPlan`.

    An outage (``site_crash``, ``dc_crash``, ``partition``) sets exactly
    one mode: *scheduled* (``at_ms >= 0`` with a positive ``for_ms``) or
    *stochastic* (positive ``mttf_ms``/``mttr_ms``).  ``loss`` sets only
    ``prob``, ``delay`` only ``mean_ms``, and ``master_stall`` only
    ``txn`` and ``for_ms``.  Partition endpoints are normalized so
    ``dc_a < dc_b`` -- a severed link group cuts both directions.
    """

    #: site_crash | dc_crash | partition | loss | delay | master_stall
    kind: str
    #: site_crash: the site that goes down; None (``*``) = every site,
    #: one directive per site once the fault plan expands it.
    site: int | None = None
    #: dc_crash: the datacenter that goes down.
    dc: int = -1
    #: partition: the two datacenters whose link group is severed.
    dc_a: int = -1
    dc_b: int = -1
    #: master_stall: the transaction whose master stalls.
    txn: int = -1
    #: loss: per-remote-message loss probability.
    prob: float = 0.0
    #: delay: mean extra wire delay per remote message (exponential).
    mean_ms: float = 0.0
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
        """The RNG stream this directive draws from."""
        return _STREAMS[self.kind].format_map(vars(self))

    def dcs(self) -> tuple[int, ...]:
        """Every datacenter this directive references."""
        if self.kind == "dc_crash":
            return (self.dc,)
        if self.kind == "partition":
            return (self.dc_a, self.dc_b)
        return ()

    def validate(self) -> None:
        if self.kind == "loss" and not 0.0 < self.prob < 1.0:
            raise ValueError(
                f"loss needs a probability in (0, 1), got {self.prob:g}")
        if self.kind == "delay" and not self.mean_ms > 0.0:
            raise ValueError(
                f"delay needs a mean > 0 ms, got {self.mean_ms:g}")
        if self.kind in ("loss", "delay"):
            return
        if self.kind == "master_stall":
            if self.txn < 0:
                raise ValueError("master_stall needs a transaction id >= 0")
            if self.is_scheduled or self.mttf_ms or self.mttr_ms:
                raise ValueError("master_stall takes only for=<ms>")
            if self.for_ms <= 0:
                raise ValueError("master_stall needs for=<ms> > 0")
            return
        if self.kind == "site_crash":
            if self.site is not None and self.site < 0:
                raise ValueError("site_crash needs a site index >= 0 or *")
        elif self.kind == "dc_crash":
            if self.dc < 0:
                raise ValueError("dc_crash needs a datacenter index >= 0")
        elif self.kind == "partition":
            if self.dc_a < 0 or self.dc_b < 0:
                raise ValueError(
                    "partition needs two datacenter indices >= 0")
            if self.dc_a == self.dc_b:
                raise ValueError(
                    f"partition endpoints must differ, got "
                    f"{self.dc_a}|{self.dc_b}")
        else:
            raise ValueError(f"unknown directive kind {self.kind!r}")
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
        if self.kind == "loss":
            return f"loss p={self.prob:g}"
        if self.kind == "delay":
            return f"delay mean={self.mean_ms:g}ms"
        if self.kind == "site_crash":
            target = "*" if self.site is None else f"site{self.site}"
        elif self.kind == "dc_crash":
            target = f"dc{self.dc}"
        else:
            target = f"dc{self.dc_a}|dc{self.dc_b}"
        if self.is_scheduled:
            timing = f"at={self.at_ms:g}ms for={self.for_ms:g}ms"
        else:
            timing = f"mttf={self.mttf_ms:g}ms mttr={self.mttr_ms:g}ms"
        return f"{self.kind} {target} {timing}"


@dataclasses.dataclass(frozen=True)
class RegionPlan:
    """A parsed fault plan (tuple of directives, in plan order).

    Attached to a :class:`repro.faults.FaultConfig` via its ``region``
    field; an empty plan is inactive.  Site and datacenter indices are
    checked against the live system when the injector wires up, not at
    parse time -- the plan text does not know the system.
    """

    directives: tuple[RegionDirective, ...] = ()

    def validate(self) -> None:
        for directive in self.directives:
            directive.validate()
        for kind in ("loss", "delay"):
            if sum(d.kind == kind for d in self.directives) > 1:
                raise ValueError(f"a plan takes at most one {kind} "
                                 f"directive (it draws from one stream)")

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
            if kind in ("site_crash", "dc_crash", "partition") \
                    and len(parts) >= 3:
                options = parse_options(
                    parts[2:], ("at", "for", "mttf", "mttr"))
                return RegionDirective(
                    kind=kind, **cls._target(kind, parts[1]),
                    **cls._timing(options))
            if kind == "loss" and len(parts) == 2:
                return RegionDirective(kind="loss", prob=float(parts[1]))
            if kind == "delay" and len(parts) == 2:
                return RegionDirective(kind="delay", mean_ms=float(parts[1]))
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
    def _target(kind: str, text: str) -> dict[str, int | None]:
        """An outage's target fields: ``site`` (None for ``*``), ``dc``,
        or the normalized ``dc_a``/``dc_b`` of a partition."""
        if kind == "site_crash":
            return {"site": None if text == "*" else int(text)}
        if kind == "dc_crash":
            return {"dc": int(text)}
        ends = text.split("|")
        if len(ends) != 2:
            raise ValueError(f"expected <dcA>|<dcB> endpoints, got {text!r}")
        dc_a, dc_b = sorted(int(end) for end in ends)
        return {"dc_a": dc_a, "dc_b": dc_b}

    @staticmethod
    def _timing(options: dict[str, float]) -> dict[str, float]:
        """``at``/``for``/``mttf``/``mttr`` options as directive fields."""
        return {f"{key}_ms": value for key, value in options.items()}
