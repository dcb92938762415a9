"""The fault injector: executes a :class:`FaultPlan` against a system.

Every outage directive of the plan (``site_crash``, ``dc_crash``,
``partition``) runs in its own driver process: a scheduled one waits for
its onset, a stochastic one loops over its MTTF/MTTR cycle, and both run
each outage through one overlap rule (:meth:`FaultInjector._one_outage`).

Crash semantics (docs/MODEL.md, "Failure model & recovery"):

- A crashing site loses its volatile state: every agent process hosted
  there is killed and its inbox flushed; in-flight deliveries addressed
  to it are dropped by the network.  The WAL (``LogManager.records``)
  is stable storage and survives.
- Cohorts killed in the PREPARED/PRECOMMITTED state become *in-doubt*:
  they keep their update locks (that is the blocking phenomenon the
  paper argues about) and are recorded for resolution at recovery.
- On recovery the site replays its WAL: each in-doubt cohort runs the
  protocol's status-inquiry / presumption / termination logic
  (:meth:`repro.core.base.CommitProtocol.resolve_in_doubt`) until it
  commits or aborts, releasing its locks.

A ``master_stall`` directive is not a crash: the target transaction's
master goes silent before its COMMIT force (:meth:`FaultInjector.stall`)
while its site, its state and every other agent there keep running.

Everything here is driven by ordinary simulation processes and named
RNG streams, so runs are deterministic and reproducible.
"""

from __future__ import annotations

import typing

from repro.db.transaction import AbortReason, CohortState
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs.events import (
    DcCrash,
    EventKind,
    LinkHeal,
    LinkPartition,
    SiteCrash,
    SiteRecover,
    SiteRecoveryReplay,
)
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.site import Site
    from repro.db.system import DistributedSystem
    from repro.db.transaction import CohortAgent, MasterAgent, Transaction
    from repro.faults.region import RegionDirective

#: directive kinds that take something down for a while; each runs in
#: its own driver process.
_OUTAGES = ("site_crash", "dc_crash", "partition")


class FaultInjector:
    """Schedules crashes/recoveries and tracks in-doubt cohorts."""

    def __init__(self, system: "DistributedSystem",
                 config: FaultConfig) -> None:
        self.system = system
        self.config = config
        self.plan = FaultPlan(config, system.streams, len(system.sites))
        # Counters (reported by the availability experiment).
        self.crashes = 0
        self.recoveries = 0
        self.messages_dropped = 0
        self.in_doubt_resolved = 0
        self.replays = 0
        # Correlated-failure counters (region-outage experiment).
        self.dc_crashes = 0
        self.link_partitions = 0
        #: total ms in-doubt cohorts spent holding their update locks
        #: before resolution (the paper's blocking cost, made a number).
        self.blocked_lock_ms = 0.0
        #: in-doubt cohorts per crashed site, in registration order.
        self._in_doubt: dict[int, list["CohortAgent"]] = {}
        #: live incarnations, insertion-ordered (determinism: iteration
        #: order at crash time must not depend on object hashes).
        self._live: dict["Transaction", None] = {}
        self._started = False
        # Region plans resolve against the topology's site -> DC
        # placement; running one without a multi-DC topology is a
        # configuration error, caught here (surfaces as a CLI error).
        cost = system.cost_model
        self._placement = None if cost is None else cost.placement
        #: stall length per ``master_stall`` target txn; popped on firing.
        self._stalls = {d.txn: d.for_ms for d in self.plan.directives
                        if d.kind == "master_stall"}
        region = config.region
        if region is not None and any(d.dcs() for d in region.directives):
            if self._placement is None:
                raise ValueError(
                    "a region fault plan needs a multi-datacenter "
                    "topology (run with --topology "
                    "dcs:<D>x<S>:rtt_ms=<ms> or matrix:...)")
            region.check_dcs(max(self._placement) + 1)
        #: sever depth per normalized DC pair; overlapping directives
        #: severing the same link group nest instead of double-healing.
        self._partition_depth: dict[tuple[int, int], int] = {}
        #: currently severed DC pairs (the hot-path membership set).
        self._partitioned: set[tuple[int, int]] = set()
        #: shared one-shot event triggered at the next partition heal;
        #: lazily (re)created by :meth:`heal_event`.
        self._heal_event: Event | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one driver process per outage directive, in plan order
        (idempotent)."""
        if self._started:
            return
        self._started = True
        env = self.system.env
        for index, directive in enumerate(self.plan.directives):
            if directive.kind not in _OUTAGES:
                continue  # drawn per message, or fired by the master
            driver = (self._scheduled_driver if directive.is_scheduled
                      else self._stochastic_driver)
            env.process(driver(directive),
                        name=f"faults-{directive.kind}-{index}")

    def track(self, txn: "Transaction") -> None:
        self._live[txn] = None

    def untrack(self, txn: "Transaction") -> None:
        self._live.pop(txn, None)

    # ------------------------------------------------------------------
    # Queries (used by the network and the protocol layer)
    # ------------------------------------------------------------------
    @property
    def partitions_active(self) -> bool:
        """True while any inter-DC link group is severed."""
        return bool(self._partitioned)

    def link_severed(self, src_site: int, dst_site: int) -> bool:
        """Whether a live partition cuts the link between two sites.

        Hot path: with no active partition this is one truthiness test,
        so runs without a region plan pay (almost) nothing.
        """
        if not self._partitioned:
            return False
        placement = self._placement
        if placement is None:
            return False
        dc_a = placement[src_site]
        dc_b = placement[dst_site]
        if dc_a == dc_b:
            return False
        key = (dc_a, dc_b) if dc_a < dc_b else (dc_b, dc_a)
        return key in self._partitioned

    def heal_event(self) -> Event:
        """A one-shot event triggered at the next partition heal.

        Resolvers blocked across a severed link wait on this alongside
        their capped-backoff timer: without the wake-up the first
        post-heal inquiry could sleep out a full 8x-capped interval,
        inflating ``blocked_lock_ms`` long after the link is back.
        The event is shared between waiters and lazily re-armed after
        each heal.
        """
        event = self._heal_event
        if event is None or event.triggered:
            event = Event(self.system.env)
            self._heal_event = event
        return event

    def wait_until_up(self, site: "Site"):
        """Coroutine: poll until ``site`` is operational again."""
        retry = self.config.timeouts.resolve_retry_ms
        while not site.up:
            yield self.system.env.timeout(retry)

    def stall(self, master: "MasterAgent"):
        """Coroutine: a ``master_stall`` aimed at ``master``'s txn holds
        the master silent here, just before its COMMIT force (once).

        The site stays up and the master keeps its state: its cohorts
        wait out their decision timeout in doubt, and the master
        finishes the protocol when the stall ends.  The stall publishes
        the :class:`SiteCrash`/:class:`SiteRecover` pair with the
        target's ``txn_id``.
        """
        for_ms = self._stalls.pop(master.txn.txn_id, None)
        if for_ms is None:
            return
        env = self.system.env
        bus = self.system.bus
        site_id, txn_id = master.site.site_id, master.txn.txn_id
        if bus.has_subscribers(EventKind.SITE_CRASH):
            bus.publish(SiteCrash(env.now, site_id, txn_id))
        yield env.timeout(for_ms)
        if bus.has_subscribers(EventKind.SITE_RECOVER):
            bus.publish(SiteRecover(env.now, site_id, txn_id))

    # ------------------------------------------------------------------
    # Outage drivers: one process per outage directive
    # ------------------------------------------------------------------
    def _scheduled_driver(self, directive: "RegionDirective"):
        env = self.system.env
        if directive.at_ms > env.now:
            yield env.timeout(directive.at_ms - env.now)
        yield from self._one_outage(directive, directive.for_ms)

    def _stochastic_driver(self, directive: "RegionDirective"):
        env = self.system.env
        for healthy_ms, outage_ms in self.plan.cycle(directive):
            yield env.timeout(healthy_ms)
            yield from self._one_outage(directive, outage_ms)

    def _one_outage(self, directive: "RegionDirective",
                    duration_ms: float):
        """One outage of ``directive``, under the one overlap rule: an
        onset takes only sites that are up, and the recovery brings
        back only those.  A site crash that finds its site down is
        skipped, downtime and all; a DC crash waits out its outage even
        when it took no site."""
        env = self.system.env
        if directive.kind == "site_crash":
            site = self.system.sites[directive.site]
            if not site.up:
                return
            self._crash(site)
            yield env.timeout(duration_ms)
            self._recover(site)
        elif directive.kind == "dc_crash":
            taken = self._crash_dc(directive.dc)
            yield env.timeout(duration_ms)
            for site in taken:
                self._recover(site)
        else:
            self._sever(directive.dc_a, directive.dc_b)
            yield env.timeout(duration_ms)
            self._heal(directive.dc_a, directive.dc_b)

    def _crash_dc(self, dc: int) -> list["Site"]:
        """Crash every operational site of one datacenter atomically;
        returns the sites taken."""
        placement = self._placement
        assert placement is not None
        taken = [site for site in self.system.sites
                 if placement[site.site_id] == dc and site.up]
        self.dc_crashes += 1
        for site in taken:
            self._crash(site)
        bus = self.system.bus
        if bus.has_subscribers(EventKind.DC_CRASH):
            bus.publish(DcCrash(self.system.env.now, dc,
                                tuple(site.site_id for site in taken)))
        return taken

    def _sever(self, dc_a: int, dc_b: int) -> None:
        key = (dc_a, dc_b) if dc_a < dc_b else (dc_b, dc_a)
        depth = self._partition_depth.get(key, 0) + 1
        self._partition_depth[key] = depth
        if depth > 1:
            return  # nested sever of an already-cut link group
        self._partitioned.add(key)
        self.link_partitions += 1
        bus = self.system.bus
        if bus.has_subscribers(EventKind.LINK_PARTITION):
            bus.publish(LinkPartition(self.system.env.now, key[0],
                                      key[1]))

    def _heal(self, dc_a: int, dc_b: int) -> None:
        key = (dc_a, dc_b) if dc_a < dc_b else (dc_b, dc_a)
        depth = self._partition_depth[key] - 1
        self._partition_depth[key] = depth
        if depth:
            return  # an overlapping directive still holds the cut
        self._partitioned.discard(key)
        if self._heal_event is not None and not self._heal_event.triggered:
            self._heal_event.succeed()
        bus = self.system.bus
        if bus.has_subscribers(EventKind.LINK_HEAL):
            bus.publish(LinkHeal(self.system.env.now, key[0], key[1]))

    def _crash(self, site: "Site") -> None:
        """Take a site down: kill hosted agents, flush their inboxes."""
        env = self.system.env
        site.up = False
        self.crashes += 1
        bus = self.system.bus
        if bus.has_subscribers(EventKind.SITE_CRASH):
            bus.publish(SiteCrash(env.now, site.site_id))
        for txn in list(self._live):
            master = txn.master
            if master is not None and master.site is site:
                if master.process is not None and master.process.is_alive:
                    master.process.interrupt(AbortReason.SITE_CRASH)
                master.inbox.clear()
            for cohort in txn.cohorts:
                if cohort.site is not site:
                    continue
                if cohort.process is not None and cohort.process.is_alive:
                    # The cleanup hook decides: volatile states abort,
                    # prepared/precommitted states go in-doubt (keeping
                    # their locks) via register_in_doubt().
                    cohort.process.interrupt(AbortReason.SITE_CRASH)
                cohort.inbox.clear()

    def register_in_doubt(self, cohort: "CohortAgent") -> None:
        """A prepared/precommitted cohort lost its process to a crash."""
        self._in_doubt.setdefault(cohort.site.site_id, []).append(cohort)

    def note_resolved(self, cohort: "CohortAgent") -> None:
        """Account one in-doubt resolution and its blocked-lock window,
        then retry retiring the cohort's incarnation.

        ``blocked_lock_ms`` accumulates the time an *operational*
        cohort held its update locks while in doubt -- the paper's
        blocking phenomenon, made a number.  The window opens when
        resolution starts (decision timeout on a live site, or WAL
        replay once a crashed site is back up); time a cohort spends on
        a downed site is excluded, because the whole site is unavailable
        then and its locks block nobody who could otherwise run.
        """
        self.in_doubt_resolved += 1
        since = cohort.in_doubt_since
        if since is not None:
            self.blocked_lock_ms += self.system.env.now - since
            cohort.in_doubt_since = None
        cohort.txn.retire()  # it may have been the last one in doubt

    def _recover(self, site: "Site") -> None:
        env = self.system.env
        site.up = True
        self.recoveries += 1
        bus = self.system.bus
        if bus.has_subscribers(EventKind.SITE_RECOVER):
            bus.publish(SiteRecover(env.now, site.site_id))
        pending = self._in_doubt.pop(site.site_id, [])
        self.replays += 1
        if bus.has_subscribers(EventKind.SITE_RECOVERY_REPLAY):
            bus.publish(SiteRecoveryReplay(env.now, site.site_id,
                                           len(pending)))
        if pending:
            env.process(self._replay(site, pending),
                        name=f"wal-replay@{site.site_id}")

    def _replay(self, site: "Site", pending: list["CohortAgent"]):
        """Resolve the recovered site's in-doubt cohorts, one by one."""
        protocol = self.system.protocol
        for cohort in pending:
            if cohort.state not in (CohortState.PREPARED,
                                    CohortState.PRECOMMITTED):
                continue  # already resolved (defensive; should not happen)
            yield from protocol.resolve_in_doubt(cohort)

    def __repr__(self) -> str:
        return (f"<FaultInjector crashes={self.crashes} "
                f"dropped={self.messages_dropped} "
                f"in_doubt_resolved={self.in_doubt_resolved}>")
