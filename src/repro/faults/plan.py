"""Fault configuration and the deterministic fault plan.

:class:`FaultConfig` is the user-facing knob set: one fault plan
(:class:`~repro.faults.region.RegionPlan`, ``--fault-plan``) plus the
protocol timeouts.  The CLI's fault flags (``--mttf-ms``, ``--msg-loss``,
...) spell directives of that plan (:func:`flag_plan`).
:class:`FaultPlan` turns a config plus the system's named RNG streams
into concrete, reproducible outage cycles and message-loss/delay draws.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults.region import RegionDirective, RegionPlan

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RandomStreams


@dataclasses.dataclass(frozen=True)
class FaultTimeouts:
    """Protocol-layer timeouts (only consulted while faults are active).

    Defaults are calibrated against the baseline response time (a few
    hundred ms at moderate MPL): long enough that healthy traffic never
    times out spuriously, short enough that failures resolve well inside
    a typical MTTR.
    """

    #: master's wait for each cohort work-completion report.
    work_timeout_ms: float = 5_000.0
    #: master's wait for each vote; cohort's wait for PREPARE.
    vote_timeout_ms: float = 2_000.0
    #: cohort's wait for the global decision (then: status inquiry).
    decision_timeout_ms: float = 1_500.0
    #: master's wait for decision ACKs (expired ACKs are abandoned --
    #: the cohorts resolve themselves).
    ack_timeout_ms: float = 1_500.0
    #: pause between status-inquiry retries while the master site is
    #: unreachable or the master is still undecided.
    resolve_retry_ms: float = 500.0

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) <= 0:
                raise ValueError(f"{field.name} must be > 0")


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Everything the fault plane can inject.

    The default instance is *inactive* (no directive): attaching it to a
    system wires nothing and changes nothing.
    """

    #: shorthand for a leading ``site_crash:*:mttf=<mttf_ms>:mttr=<mttr_ms>``
    #: directive (:class:`FaultPlan` expands it); 0 = none.
    mttf_ms: float = 0.0
    #: mean time to repair of the shorthand's site crashes.
    mttr_ms: float = 2_000.0
    timeouts: FaultTimeouts = FaultTimeouts()
    #: the fault plan (:mod:`repro.faults.region` has the grammar);
    #: None = no plan.
    region: RegionPlan | None = None

    @property
    def is_active(self) -> bool:
        """True when the config injects anything at all."""
        return self.mttf_ms > 0 or (self.region is not None
                                    and bool(self.region.directives))

    def validate(self) -> None:
        if self.mttf_ms < 0:
            raise ValueError("mttf_ms must be >= 0")
        if self.mttr_ms <= 0:
            raise ValueError("mttr_ms must be > 0")
        if self.region is not None:
            self.region.validate()
        self.timeouts.validate()


def flag_plan(mttf_ms: float, mttr_ms: float, loss: float = 0.0,
              delay_ms: float = 0.0, plan: RegionPlan | None = None,
              ) -> RegionPlan | None:
    """The plan the fault flags spell, ahead of ``plan``'s directives:
    ``site_crash:*:mttf=<mttf_ms>:mttr=<mttr_ms>``, ``loss:<loss>`` and
    ``delay:<delay_ms>``, each for a non-zero flag only.  None when no
    directive is left."""
    if mttf_ms < 0:
        raise ValueError("mttf_ms must be >= 0")
    spelled = ",".join(text for value, text in (
        (mttf_ms, f"site_crash:*:mttf={mttf_ms}:mttr={mttr_ms}"),
        (loss, f"loss:{loss}"), (delay_ms, f"delay:{delay_ms}")) if value)
    directives = ((RegionPlan.parse(spelled).directives if spelled else ())
                  + (() if plan is None else plan.directives))
    return RegionPlan(directives) if directives else None


class FaultPlan:
    """Deterministic realization of a :class:`FaultConfig`.

    :attr:`directives` is the config's plan with the ``mttf_ms``
    shorthand in front and every ``site_crash:*`` expanded to one
    directive per site, in site order.  Each stochastic directive draws
    its cycle lazily from its own stream (:attr:`RegionDirective.
    stream_name`), so outages are independent and the draw order cannot
    depend on event-loop interleaving; message-loss and message-delay
    draws come from ``faults-msgloss`` / ``faults-msgdelay`` in network
    send order (itself deterministic).
    """

    def __init__(self, config: FaultConfig, streams: "RandomStreams",
                 num_sites: int) -> None:
        config.validate()
        self._streams = streams
        written = () if config.region is None else config.region.directives
        if config.mttf_ms > 0:
            written = (RegionDirective(
                kind="site_crash", mttf_ms=config.mttf_ms,
                mttr_ms=config.mttr_ms),) + written
        directives: list[RegionDirective] = []
        for directive in written:
            if directive.kind == "site_crash" and directive.site is None:
                directives += (dataclasses.replace(directive, site=site)
                               for site in range(num_sites))
                continue
            if directive.kind == "site_crash" and directive.site >= num_sites:
                raise ValueError(
                    f"fault plan references site {directive.site} but the "
                    f"system only has {num_sites} "
                    f"(directive: {directive.describe()})")
            directives.append(directive)
        self.directives = tuple(directives)
        loss = next((d for d in directives if d.kind == "loss"), None)
        delay = next((d for d in directives if d.kind == "delay"), None)
        self._loss_prob = loss.prob if loss else 0.0
        self._delay_mean = delay.mean_ms if delay else 0.0
        self._loss_rng = streams.stream(loss.stream_name) if loss else None
        self._delay_rng = streams.stream(delay.stream_name) if delay else None

    # ------------------------------------------------------------------
    def cycle(self, directive: RegionDirective,
              ) -> typing.Iterator[tuple[float, float]]:
        """Infinite ``(healthy_ms, outage_ms)`` draws for one stochastic
        directive, from its stream (``faults-site-<id>``,
        ``faults-dc-<dc>`` or ``faults-partition-<a>-<b>``)."""
        rng = self._streams.stream(directive.stream_name)
        while True:
            yield (rng.expovariate(1.0 / directive.mttf_ms),
                   rng.expovariate(1.0 / directive.mttr_ms))

    def lose_message(self) -> bool:
        """Draw whether the next remote message is lost."""
        rng = self._loss_rng
        return rng is not None and rng.random() < self._loss_prob

    def message_delay(self) -> float:
        """Draw the next remote message's extra wire delay in ms."""
        rng = self._delay_rng
        if rng is None:
            return 0.0
        return rng.expovariate(1.0 / self._delay_mean)
