"""Correlated-failure plane tests (ISSUE PR 9 tentpole).

Contracts pinned here, on top of what ``test_faults.py`` already holds:

1. **Plan parsing** -- the ``--fault-plan`` DSL round-trips, rejects
   malformed specs with actionable messages, and a plan without a
   multi-DC topology is a configuration error (CLI ``error:`` exit 2).
2. **DC-granular semantics** -- a ``dc_crash`` takes every site of the
   datacenter down at the same instant; a ``partition`` drops exactly
   the messages crossing the cut (reason ``"partition"``) and heals as
   one event.
3. **Liveness** -- every registered protocol completes an aggressive
   DC-crash + link-partition sweep over ``dcs:2x2`` and ``dcs:3x2``
   with no hangs.
4. **The blocking result** -- under a coordinator-side DC loss, 2PC's
   blocked-lock time is strictly higher than 3PC's: the termination
   protocol is what non-blocking buys.
5. **Accounting** -- ``drops_by_reason`` partitions the network's drop
   total; the injector's ``messages_dropped`` excludes the topology's
   own wire loss (which is weather, not injected failure).
"""

import dataclasses
import io

import pytest

import repro
from repro.cli import main as cli_main
from repro.faults import FaultConfig, FaultPlan, RegionDirective, RegionPlan
from repro.obs import EventLog
from repro.obs.events import EventKind, event_to_dict
from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.faults

#: one DC outage then one partition -- both correlated shapes per run.
COMBINED_PLAN = "dc_crash:0:at=800:for=1500,partition:0|1:at=4000:for=1500"


def _region_run(protocol, topology, plan, num_sites, seed=7, mpl=2,
                transactions=40, log_kinds=None, **config_kwargs):
    """One region-fault run; returns (result, injector, system, log)."""
    captured = []
    log = EventLog(kinds=log_kinds)
    config = FaultConfig(region=RegionPlan.parse(plan), **config_kwargs)
    result = repro.simulate(
        protocol, mpl=mpl, num_sites=num_sites,
        network_topology=repro.NetworkTopology.parse(topology),
        measured_transactions=transactions, warmup_transactions=0,
        seed=seed,
        on_system=lambda s: (captured.append(s), log.attach(s.bus)),
        faults=config)
    return result, captured[0].faults, captured[0], log


# ----------------------------------------------------------------------
# Plan parsing and validation
# ----------------------------------------------------------------------
class TestRegionPlanParse:
    def test_scheduled_dc_crash(self):
        plan = RegionPlan.parse("dc_crash:1:at=500:for=2000")
        (directive,) = plan.directives
        assert directive == RegionDirective(
            kind="dc_crash", dc=1, at_ms=500.0, for_ms=2000.0)
        assert directive.is_scheduled
        assert directive.stream_name == "faults-dc-1"

    def test_partition_endpoints_normalize(self):
        plan = RegionPlan.parse("partition:2|0:at=0:for=100")
        (directive,) = plan.directives
        assert (directive.dc_a, directive.dc_b) == (0, 2)
        assert directive.dcs() == (0, 2)
        assert directive.stream_name == "faults-partition-0-2"

    def test_stochastic_variant(self):
        plan = RegionPlan.parse("partition:0|1:mttf=60000:mttr=3000")
        (directive,) = plan.directives
        assert not directive.is_scheduled
        assert directive.mttf_ms == 60_000.0

    def test_master_stall(self):
        plan = RegionPlan.parse("master_stall:40:for=3000")
        (directive,) = plan.directives
        assert directive == RegionDirective(
            kind="master_stall", txn=40, for_ms=3000.0)
        assert directive.dcs() == ()
        assert plan.describe() == "master_stall txn40 for=3000ms"
        plan.check_dcs(0)  # names no datacenter: any topology will do
        repro.build_system("2PC", faults=FaultConfig(region=plan))

    def test_site_crash_forms(self):
        plan = RegionPlan.parse(
            "site_crash:3:at=500:for=1000,site_crash:*:mttf=25000:mttr=2000")
        one, every = plan.directives
        assert one == RegionDirective(
            kind="site_crash", site=3, at_ms=500.0, for_ms=1000.0)
        assert one.stream_name == "faults-site-3"
        assert every == RegionDirective(
            kind="site_crash", site=None, mttf_ms=25_000.0,
            mttr_ms=2_000.0)
        assert not every.is_scheduled and every.dcs() == ()
        assert plan.describe() == ("site_crash site3 at=500ms for=1000ms, "
                                   "site_crash * mttf=25000ms mttr=2000ms")
        # Names no datacenter: any topology will do.
        repro.build_system("2PC", faults=FaultConfig(region=plan))

    def test_loss_and_delay(self):
        plan = RegionPlan.parse("loss:0.02,delay:3")
        assert plan.directives == (RegionDirective(kind="loss", prob=0.02),
                                   RegionDirective(kind="delay",
                                                   mean_ms=3.0))
        assert [d.stream_name for d in plan.directives] == \
            ["faults-msgloss", "faults-msgdelay"]
        assert plan.describe() == "loss p=0.02, delay mean=3ms"

    def test_multiple_directives(self):
        plan = RegionPlan.parse(COMBINED_PLAN)
        assert [d.kind for d in plan.directives] == \
            ["dc_crash", "partition"]
        assert "dc_crash dc0" in plan.describe()
        assert "partition dc0|dc1" in plan.describe()

    @pytest.mark.parametrize("bad", [
        "",
        "meteor:0:at=1:for=2",
        "dc_crash:0",
        "dc_crash:zero:at=1:for=2",
        "dc_crash:0:at=1",                      # missing for=
        "dc_crash:0:for=1",                     # missing at=
        "dc_crash:0:at=1:for=0",                # zero duration
        "dc_crash:0:at=-5:for=10",              # negative onset
        "dc_crash:0:at=1:for=2:mttf=3:mttr=4",  # both modes
        "dc_crash:0:mttf=1000",                 # missing mttr=
        "dc_crash:0:until=9:for=2",             # unknown option
        "partition:0:at=1:for=2",               # one endpoint
        "partition:0|0:at=1:for=2",             # same endpoint
        "partition:0|1|2:at=1:for=2",           # three endpoints
        "site_crash:0",                         # no timing
        "site_crash:-1:at=1:for=2",             # negative site
        "site_crash:one:at=1:for=2",
        "site_crash:*:at=1:for=2:mttf=3:mttr=4",  # both modes
        "loss",
        "loss:0",                               # a loss that loses nothing
        "loss:1.5",
        "loss:0.1:kinds=vote_yes",              # no per-kind loss
        "delay:0",
        "delay:-3",
        "loss:0.1,loss:0.2",                    # one stream, one directive
        "delay:1,delay:2",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError, match="bad fault plan spec|empty"):
            RegionPlan.parse(bad)

    def test_check_dcs_rejects_out_of_range(self):
        plan = RegionPlan.parse("dc_crash:5:at=1:for=2")
        with pytest.raises(ValueError, match="datacenter 5"):
            plan.check_dcs(2)

    def test_region_plan_activates_config(self):
        assert not FaultConfig(region=None).is_active
        assert not FaultConfig(region=RegionPlan()).is_active
        assert FaultConfig(
            region=RegionPlan.parse("dc_crash:0:at=1:for=2")).is_active

    def test_config_validate_delegates_to_plan(self):
        bad = RegionPlan(directives=(
            RegionDirective(kind="dc_crash", dc=0),))  # no timing mode
        with pytest.raises(ValueError, match="at=<ms>:for=<ms>"):
            FaultConfig(region=bad).validate()

    def test_plan_without_multi_dc_topology_is_an_error(self):
        config = FaultConfig(
            region=RegionPlan.parse("dc_crash:0:at=1:for=2"))
        with pytest.raises(ValueError, match="multi-datacenter topology"):
            repro.build_system("2PC", faults=config)

    def test_region_cycle_is_seeded_per_directive(self):
        config = FaultConfig(
            region=RegionPlan.parse("dc_crash:0:mttf=5000:mttr=500"))

        def draws(seed):
            plan = FaultPlan(config, RandomStreams(seed), num_sites=4)
            (directive,) = plan.directives
            cycle = plan.cycle(directive)
            return [next(cycle) for _ in range(5)]

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)


class TestRegionCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_fault_plan_without_topology_exits_2(self):
        code, text = self.run_cli(
            "simulate", "2PC", "--transactions", "10",
            "--fault-plan", "dc_crash:0:at=1:for=2")
        assert code == 2
        assert text.startswith("error: a region fault plan needs a "
                               "multi-datacenter topology")

    def test_fault_plan_referencing_missing_dc_exits_2(self):
        code, text = self.run_cli(
            "simulate", "2PC", "--transactions", "10",
            "--topology", "dcs:2x4:rtt_ms=1",
            "--fault-plan", "dc_crash:7:at=1:for=2")
        assert code == 2
        assert text.startswith("error: fault plan references datacenter 7")

    def test_simulate_reports_region_counters(self):
        code, text = self.run_cli(
            "simulate", "2PC", "--mpl", "2", "--transactions", "30",
            "--seed", "7", "--topology", "dcs:2x4:rtt_ms=5",
            "--fault-plan", "dc_crash:0:at=500:for=1500")
        assert code == 0
        assert "region faults: 1 DC crashes" in text
        assert "blocked lock time" in text
        assert "drops by reason" in text

    def test_region_outage_command_runs(self):
        code, text = self.run_cli(
            "region-outage", "--protocols", "2PC,3PC",
            "--outages", "dc_crash", "--durations", "1500",
            "--transactions", "30", "--quiet")
        assert code == 0
        assert "== region-outage" in text
        assert "dropped messages by reason" in text
        assert "least blocking" in text

    def test_region_outage_rejects_unknown_outage(self):
        code, text = self.run_cli(
            "region-outage", "--outages", "asteroid",
            "--transactions", "10", "--quiet")
        assert code == 2
        assert text.startswith("error: unknown outage")


# ----------------------------------------------------------------------
# DC-crash and partition semantics
# ----------------------------------------------------------------------
class TestDcCrashSemantics:
    def test_whole_dc_crashes_atomically(self):
        _, injector, _, log = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5", "dc_crash:0:at=1000:for=2000",
            num_sites=4,
            log_kinds=(EventKind.DC_CRASH, EventKind.SITE_CRASH,
                       EventKind.SITE_RECOVER))
        dc_events = [e for e in log.events
                     if e.kind is EventKind.DC_CRASH]
        assert len(dc_events) == 1
        assert dc_events[0].dc == 0
        assert dc_events[0].sites == (0, 1)  # dcs:2x2 -> DC0 = {0, 1}
        crashes = [e for e in log.events
                   if e.kind is EventKind.SITE_CRASH]
        assert {e.site_id for e in crashes} == {0, 1}
        assert {e.time for e in crashes} == {1000.0}, "not atomic"
        recovers = [e for e in log.events
                    if e.kind is EventKind.SITE_RECOVER]
        assert len(recovers) == 2
        for event in recovers:
            assert event.time == pytest.approx(3000.0)
        assert injector.dc_crashes == 1
        assert injector.crashes == 2

    def test_dc_crash_skips_already_down_sites(self):
        # Site 0 is already down (its own site_crash) when the DC outage
        # fires: the DC crash takes only site 1 and recovers only site 1
        # -- the site crash keeps ownership of site 0.
        _, injector, _, log = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5",
            "site_crash:0:at=500:for=4000,dc_crash:0:at=1000:for=1000",
            num_sites=4,
            log_kinds=(EventKind.DC_CRASH, EventKind.SITE_RECOVER))
        (dc_event,) = [e for e in log.events
                       if e.kind is EventKind.DC_CRASH]
        assert dc_event.sites == (1,)
        recover_times = {e.site_id: e.time for e in log.events
                         if e.kind is EventKind.SITE_RECOVER}
        assert recover_times[1] == pytest.approx(2000.0)
        assert recover_times[0] == pytest.approx(4500.0)
        assert injector.crashes == 2 and injector.recoveries == 2

    def test_scheduled_site_crash_skips_during_dc_outage(self):
        # The site crash's onset comes at t=1500 while the DC outage
        # holds its site down: it must skip, not double-crash.
        _, injector, _, log = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5",
            "site_crash:0:at=1500:for=500,dc_crash:0:at=1000:for=2000",
            num_sites=4,
            log_kinds=(EventKind.SITE_CRASH, EventKind.SITE_RECOVER))
        crashes = [e for e in log.events
                   if e.kind is EventKind.SITE_CRASH and e.site_id == 0]
        assert [e.time for e in crashes] == [1000.0]
        assert injector.crashes == 2  # both DC sites, nothing extra

    def test_stochastic_site_crash_skips_during_dc_outage(self):
        # A fast stochastic site cycle wakes repeatedly inside the DC
        # outage window; every wake must find the site down and skip.
        _, injector, _, log = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5",
            "site_crash:0:mttf=150:mttr=50,dc_crash:0:at=200:for=3000",
            num_sites=4, transactions=20,
            log_kinds=(EventKind.SITE_CRASH,))
        for event in log.events:
            if event.site_id != 0:
                continue
            inside = 200.0 < event.time < 3200.0
            assert not inside or event.time == 200.0, (
                f"stochastic crash fired at {event.time} during the "
                f"DC outage")

    def test_replay_skips_already_resolved_cohorts(self):
        system = repro.build_system(
            "2PC", faults=FaultConfig(
                region=RegionPlan.parse("site_crash:0:at=1e9:for=1")))
        injector = system.faults
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, system.env.now)
        cohort = txn.cohorts[0]
        # A cohort whose state already left PREPARED/PRECOMMITTED must
        # be skipped by the replay loop, not re-resolved.
        steps = list(injector._replay(cohort.site, [cohort]))
        assert steps == []
        assert injector.in_doubt_resolved == 0


class TestPartitionSemantics:
    PLAN = "partition:0|1:at=1000:for=2000"

    def test_partition_drops_only_cross_cut_messages(self):
        _, injector, system, log = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5", self.PLAN, num_sites=4,
            log_kinds=(EventKind.MSG_DROP, EventKind.LINK_PARTITION,
                       EventKind.LINK_HEAL))
        drops = [e for e in log.events if e.kind is EventKind.MSG_DROP]
        assert drops, "plan too mild: nothing crossed the cut"
        assert {e.reason for e in drops} == {"partition"}
        for event in drops:
            src, dst = event.message.link
            assert (src < 2) != (dst < 2), (
                f"intra-DC message {src}->{dst} dropped by a partition")
            assert 1000.0 <= event.time <= 3000.0
        (cut,) = [e for e in log.events
                  if e.kind is EventKind.LINK_PARTITION]
        (heal,) = [e for e in log.events
                   if e.kind is EventKind.LINK_HEAL]
        assert (cut.dc_a, cut.dc_b) == (0, 1)
        assert cut.time == 1000.0
        assert heal.time == pytest.approx(3000.0)
        assert injector.link_partitions == 1
        assert injector.crashes == 0  # sites stay up through a partition
        assert not injector.partitions_active  # healed by run end

    def test_link_severed_is_directional_pairwise(self):
        _, injector, system, _ = _region_run(
            "2PC", "dcs:3x2:rtt_ms=5", "partition:0|2:at=0:for=1e9",
            num_sites=6, transactions=10)
        # Plan severed 0|2 only: 0<->1 and 1<->2 stay open.
        assert injector.link_severed(0, 4)  # DC0 -> DC2
        assert injector.link_severed(5, 1)  # DC2 -> DC0 (symmetric)
        assert not injector.link_severed(0, 2)  # DC0 -> DC1
        assert not injector.link_severed(2, 4)  # DC1 -> DC2
        assert not injector.link_severed(0, 1)  # intra-DC
        assert injector.partitions_active

    def test_overlapping_severs_nest(self):
        plan = ("partition:0|1:at=1000:for=3000,"
                "partition:1|0:at=2000:for=500")
        _, injector, _, log = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5", plan, num_sites=4,
            log_kinds=(EventKind.LINK_PARTITION, EventKind.LINK_HEAL))
        cuts = [e for e in log.events
                if e.kind is EventKind.LINK_PARTITION]
        heals = [e for e in log.events if e.kind is EventKind.LINK_HEAL]
        # The nested directive neither re-cuts nor early-heals: one
        # LINK_PARTITION at 1000, one LINK_HEAL at 4000.
        assert [e.time for e in cuts] == [1000.0]
        assert [pytest.approx(4000.0)] == [e.time for e in heals]
        assert injector.link_partitions == 1

    def test_stochastic_partition_is_deterministic(self):
        plan = "partition:0|1:mttf=4000:mttr=800"

        def events(seed):
            _, _, _, log = _region_run(
                "2PC", "dcs:2x2:rtt_ms=5", plan, num_sites=4, seed=seed,
                log_kinds=(EventKind.LINK_PARTITION, EventKind.LINK_HEAL,
                           EventKind.MSG_DROP))
            return [event_to_dict(e) for e in log.events]

        first, second = events(11), events(11)
        assert first == second
        assert first, "stochastic plan never fired; tighten mttf"
        assert events(11) != events(12)


# ----------------------------------------------------------------------
# Drop accounting (the double-bookkeeping fix)
# ----------------------------------------------------------------------
class TestDropAccounting:
    def test_drops_by_reason_partitions_the_network_total(self):
        _, injector, system, _ = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5", COMBINED_PLAN + ",loss:0.02",
            num_sites=4)
        network = system.network
        assert network.messages_dropped == \
            sum(network.drops_by_reason.values())
        assert network.drops_by_reason.get("partition", 0) >= 1
        assert network.drops_by_reason.get("site_down", 0) >= 1

    def test_injector_count_excludes_topology_wire_loss(self):
        _, injector, system, _ = _region_run(
            "2PC", "dcs:2x2:rtt_ms=5:loss=0.05",
            "partition:0|1:at=1000:for=1000", num_sites=4)
        network = system.network
        split = network.drops_by_reason
        assert split.get("topology_loss", 0) >= 1, \
            "5% wire loss dropped nothing; weaken the assertion's setup"
        injected = sum(count for reason, count in split.items()
                       if reason != "topology_loss")
        assert injector.messages_dropped == injected
        assert network.messages_dropped == sum(split.values())


# ----------------------------------------------------------------------
# Liveness: every protocol survives both outage shapes on both grids
# ----------------------------------------------------------------------
class TestRegionSurvival:
    GRIDS = [("dcs:2x2:rtt_ms=5", 4), ("dcs:3x2:rtt_ms=5", 6)]

    @pytest.mark.parametrize("protocol", repro.PROTOCOL_NAMES)
    @pytest.mark.parametrize("topology,num_sites", GRIDS)
    def test_protocol_survives_combined_outages(self, protocol, topology,
                                                num_sites):
        if repro.protocol_requires_centralized_topology(protocol):
            # CENT processes everything at one site by construction;
            # ModelParams rejects pairing it with a multi-DC topology,
            # so there is no distributed commit to partition.
            pytest.skip(f"{protocol} runs at a single site; no "
                        f"multi-DC deployment exists to fail")
        result, injector, _, _ = _region_run(
            protocol, topology, COMBINED_PLAN, num_sites=num_sites)
        # run() returns only once every measured transaction committed:
        # returning at all is the no-hang proof.
        assert result.committed == 40
        assert injector.dc_crashes == 1
        assert injector.link_partitions == 1


# ----------------------------------------------------------------------
# The blocking result the sweep exists to show
# ----------------------------------------------------------------------
class TestBlockedLockComparison:
    PLAN = "dc_crash:0:at=1000:for=4000"

    @pytest.mark.parametrize("topology,num_sites,seed", [
        ("dcs:2x2:rtt_ms=5", 4, 7),
        ("dcs:3x2:rtt_ms=5", 6, 7),
        ("dcs:3x2:rtt_ms=5", 6, 11),
    ])
    def test_2pc_blocks_strictly_longer_than_3pc(self, topology,
                                                 num_sites, seed):
        def blocked(protocol):
            _, injector, _, _ = _region_run(
                protocol, topology, self.PLAN, num_sites=num_sites,
                seed=seed)
            return injector.blocked_lock_ms

        two_pc, three_pc = blocked("2PC"), blocked("3PC")
        assert two_pc > three_pc, (
            f"2PC blocked {two_pc:.0f}ms vs 3PC {three_pc:.0f}ms; "
            f"non-blocking termination should win under DC loss")

    def test_blocked_time_is_attributed_to_resolutions(self):
        _, injector, _, _ = _region_run(
            "2PC", "dcs:3x2:rtt_ms=5", self.PLAN, num_sites=6)
        assert injector.blocked_lock_ms > 0
        assert injector.in_doubt_resolved >= 1


# ----------------------------------------------------------------------
# Armed but inert: a never-firing plan changes nothing
# ----------------------------------------------------------------------
class TestInertPlanIsFree:
    def test_far_future_plan_matches_armed_baseline(self):
        def run(plan):
            config = FaultConfig(region=RegionPlan.parse(plan))
            return dataclasses.asdict(repro.simulate(
                "2PC", mpl=2, num_sites=4,
                network_topology=repro.NetworkTopology.parse(
                    "dcs:2x2:rtt_ms=5"),
                measured_transactions=40, warmup_transactions=0, seed=7,
                faults=config))

        baseline = run("site_crash:0:at=1e9:for=1")
        inert = run("site_crash:0:at=1e9:for=1,partition:0|1:at=1e9:for=1")
        assert baseline == inert, (
            "a region plan that never fires must not perturb the "
            "trajectory")


class TestRegionOutageSweepApi:
    def test_sweep_rejects_non_dcs_topology(self):
        from repro.experiments import run_preset
        with pytest.raises(ValueError, match="dcs"):
            run_preset("region-outage", protocols=["2PC"], topology="uniform")

    def test_sweep_point_metrics(self):
        from repro.experiments import run_preset
        results = run_preset(
            "region-outage", protocols=["2PC"], outages=("dc_crash",),
            durations=(1500.0,), topology="dcs:2x2:rtt_ms=5",
            transactions=30)
        point = results.point(protocol="2PC", outage="dc_crash",
                              duration_ms=1500.0)
        assert point["dc_crashes"] == 1
        assert point["commits_during"] + point["commits_after"] >= 1
        assert point["drops_by_reason"]
        assert "region-outage" in results.summary()

    def test_availability_pool_matches_serial(self):
        from repro.experiments import run_preset

        def run(jobs):
            results = run_preset(
                "availability", protocols=("2PC", "PA"),
                mttfs=(0.0, 60_000.0), transactions=40, seed=5, jobs=jobs)
            return {key: (dataclasses.asdict(point.result), point.readings)
                    for key, point in results.points.items()}

        assert run(1) == run(2)
