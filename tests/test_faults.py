"""Fault-injection subsystem tests (ISSUE PR 4 tentpole).

Three contracts are pinned here:

1. **Determinism** -- the fault plan draws from named RNG streams, so the
   same seed reproduces the same crashes, drops, timeouts, and results,
   event for event.
2. **Free when inactive** -- an inactive :class:`FaultConfig` wires
   nothing: the simulated trajectory stays byte-identical to the golden
   fixture (``tests/data/golden_sweep.json``).
3. **Liveness + correctness under faults** -- every registered protocol
   completes a crash-rate sweep with no hung simulation, and in-doubt
   cohorts resolve according to each protocol's presumption rule.
"""

import dataclasses
import json
import pathlib

import pytest

import repro
from repro.config import ModelParams
from repro.db.messages import MessageKind
from repro.db.transaction import CohortState
from repro.db.wal import LogRecordKind
from repro.experiments import run_preset
from repro.experiments.runner import point_seed
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultPlan,
    FaultTimeouts,
    RegionDirective,
    RegionPlan,
)
from repro.obs import EventLog
from repro.obs.events import EventKind, event_to_dict
from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.faults

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_sweep.json"

#: a moderately harsh environment every protocol must survive.
HARSH = "site_crash:*:mttf=25000:mttr=2000,loss:0.02"
#: one crash far beyond any test horizon: arms the fault plane (and its
#: timeouts) without firing.
INERT = "site_crash:0:at=1e9:for=1"


def _faulty_run(protocol, seed=42, transactions=80, log_kinds=None,
                plan=HARSH):
    """One fault-injected run; returns (result, injector, event log)."""
    captured = []
    log = EventLog(kinds=log_kinds)
    result = repro.simulate(
        protocol, mpl=3, measured_transactions=transactions,
        warmup_transactions=0, seed=seed,
        on_system=lambda s: (captured.append(s), log.attach(s.bus)),
        faults=FaultConfig(region=RegionPlan.parse(plan)))
    return result, captured[0].faults, log


def _plan(*directives):
    """FaultConfig settings holding an unvalidated plan."""
    return dict(region=RegionPlan(directives))


# ----------------------------------------------------------------------
# Config and plan plumbing
# ----------------------------------------------------------------------
class TestFaultConfig:
    def test_default_config_is_inactive(self):
        assert not FaultConfig().is_active

    def test_active_configs(self):
        assert FaultConfig(mttf_ms=1.0).is_active
        for plan in ("loss:0.1", "delay:10", "site_crash:0:at=10:for=5"):
            assert FaultConfig(region=RegionPlan.parse(plan)).is_active

    @pytest.mark.parametrize("bad", [
        dict(mttf_ms=-1.0),
        dict(mttr_ms=0.0),
        _plan(RegionDirective(kind="loss", prob=-0.1)),
        _plan(RegionDirective(kind="loss", prob=1.0)),
        _plan(RegionDirective(kind="delay", mean_ms=-5.0)),
        _plan(RegionDirective(kind="loss", prob=0.1),
              RegionDirective(kind="loss", prob=0.2)),
        _plan(RegionDirective(kind="site_crash", site=0, at_ms=-5.0,
                              for_ms=10.0)),
        _plan(RegionDirective(kind="site_crash", site=0, at_ms=5.0,
                              for_ms=0.0)),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultConfig(**bad).validate()

    def test_timeouts_must_be_positive(self):
        with pytest.raises(ValueError, match="work_timeout_ms"):
            FaultTimeouts(work_timeout_ms=0.0).validate()

    def test_inactive_config_wires_nothing(self):
        system = repro.build_system("2PC", faults=FaultConfig())
        assert system.faults is None
        assert system.fault_timeouts is None
        assert system.network.faults is None

    def test_active_config_wires_injector(self):
        system = repro.build_system("2PC", faults=FaultConfig(mttf_ms=1e6))
        assert isinstance(system.faults, FaultInjector)
        assert system.network.faults is system.faults
        assert system.fault_timeouts is not None


def _fault_plan(text, num_sites=4, seed=1, **config):
    return FaultPlan(FaultConfig(region=RegionPlan.parse(text), **config),
                     RandomStreams(seed), num_sites=num_sites)


class TestFaultPlan:
    def test_same_seed_same_draws(self):
        def draws(seed):
            plan = _fault_plan("site_crash:*:mttf=10000:mttr=2000,loss:0.1",
                               seed=seed)
            cycle = plan.cycle(plan.directives[2])
            return ([next(cycle) for _ in range(5)],
                    [plan.lose_message() for _ in range(50)])

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_site_streams_are_independent(self):
        plan_a = _fault_plan("site_crash:*:mttf=10000:mttr=2000", seed=7)
        plan_b = _fault_plan("site_crash:*:mttf=10000:mttr=2000", seed=7)
        # Draining site 0's cycle must not perturb site 1's draws.
        cycle = plan_a.cycle(plan_a.directives[0])
        for _ in range(100):
            next(cycle)
        assert next(plan_a.cycle(plan_a.directives[1])) == \
            next(plan_b.cycle(plan_b.directives[1]))
        assert [d.stream_name for d in plan_a.directives] == \
            [f"faults-site-{site}" for site in range(4)]

    def test_schedule_and_eligibility(self):
        # One directive per clause, in plan order (each runs its own
        # driver process); a named site crashes alone.
        plan = _fault_plan("site_crash:1:at=50:for=10,"
                           "site_crash:1:at=20:for=10,"
                           "site_crash:0:at=30:for=10")
        assert [(d.site, d.at_ms) for d in plan.directives] == \
            [(1, 50.0), (1, 20.0), (0, 30.0)]
        limited = _fault_plan("site_crash:0:mttf=1:mttr=1,"
                              "site_crash:2:mttf=1:mttr=1")
        assert [d.site for d in limited.directives] == [0, 2]
        with pytest.raises(ValueError, match="references site 99 but the "
                                             "system only has 4"):
            _fault_plan("site_crash:99:mttf=1:mttr=1")

    def test_star_expands_per_site_after_the_shorthand(self):
        # The mttf_ms/mttr_ms shorthand is a leading site_crash:* ...
        plan = _fault_plan("site_crash:*:at=5:for=1", num_sites=3,
                           mttf_ms=1_000.0, mttr_ms=50.0)
        spelled = _fault_plan("site_crash:*:mttf=1000:mttr=50,"
                              "site_crash:*:at=5:for=1", num_sites=3)
        assert plan.directives == spelled.directives
        # ... and * is one directive per site, in site order.
        assert [(d.site, d.is_scheduled) for d in plan.directives] == [
            (0, False), (1, False), (2, False),
            (0, True), (1, True), (2, True)]
        assert {d.mttf_ms for d in plan.directives[:3]} == {1_000.0}

    def test_a_stochastic_target_takes_one_stream(self):
        # Written twice, one site's two cycles would share one stream.
        repeat = "site_crash:0:mttf=1000:mttr=100"
        with pytest.raises(ValueError, match=r"one stream \(faults-site-0\)"):
            _fault_plan(f"{repeat},{repeat}")
        with pytest.raises(ValueError, match=r"\(faults-dc-1\)"):
            _fault_plan("dc_crash:1:mttf=1000:mttr=100,"
                        "dc_crash:1:mttf=500:mttr=50")
        # Scheduled repeats stay allowed (the overlap rule covers them).
        plan = _fault_plan(f"{repeat},site_crash:0:at=5:for=1,"
                           "site_crash:0:at=9:for=1")
        assert len(plan.directives) == 3

    def test_loss_and_delay_draw_from_their_own_streams(self):
        plan = _fault_plan("loss:0.3,delay:30", seed=5)
        loss = RandomStreams(5).stream("faults-msgloss")
        delay = RandomStreams(5).stream("faults-msgdelay")
        assert [plan.lose_message() for _ in range(20)] == \
            [loss.random() < 0.3 for _ in range(20)]
        assert [plan.message_delay() for _ in range(20)] == \
            [delay.expovariate(1 / 30) for _ in range(20)]
        quiet = _fault_plan("site_crash:0:at=1:for=1")
        assert not quiet.lose_message() and quiet.message_delay() == 0.0


# ----------------------------------------------------------------------
# Determinism under faults
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_identical_results_and_event_streams(self):
        first_result, _, first_log = _faulty_run("OPT-3PC")
        second_result, _, second_log = _faulty_run("OPT-3PC")
        assert dataclasses.asdict(first_result) == \
            dataclasses.asdict(second_result)
        first = [event_to_dict(e) for e in first_log.events]
        second = [event_to_dict(e) for e in second_log.events]
        assert first == second

    def test_different_seed_diverges(self):
        first, _, _ = _faulty_run("2PC", seed=1)
        second, _, _ = _faulty_run("2PC", seed=2)
        assert dataclasses.asdict(first) != dataclasses.asdict(second)

    def test_availability_sweep_reproducible(self):
        def run():
            results = run_preset("availability", protocols=("2PC",),
                                 mttfs=(40_000.0,), mttr_ms=2_000.0,
                                 transactions=50, seed=5)
            point = results.point(protocol="2PC", mttf_ms=40_000.0)
            return (dataclasses.asdict(point.result), point["crashes"],
                    point["messages_dropped"], point["in_doubt_resolved"])

        assert run() == run()

    def test_availability_points_run_without_warmup(self):
        from repro.experiments.grid import plan
        _, grid = plan("availability", protocols=("2PC", "3PC"))
        assert {spec.warmup_transactions for _, spec in grid} == {0}
        with pytest.raises(TypeError, match="warmup_transactions"):
            plan("availability", warmup_transactions=10)


# ----------------------------------------------------------------------
# Free when inactive: golden byte-identity
# ----------------------------------------------------------------------
class TestInactiveIsFree:
    def test_zero_fault_config_matches_golden_tier1(self):
        grid = json.loads(GOLDEN.read_text())["tier1"]
        mismatched = []
        for protocol in grid["protocols"]:
            for mpl in grid["mpls"]:
                result = repro.simulate(
                    protocol, params=ModelParams(mpl=mpl),
                    measured_transactions=grid["transactions"],
                    seed=point_seed(20250705, 0),
                    faults=FaultConfig())  # inactive: must change nothing
                got = json.loads(json.dumps(dataclasses.asdict(result)))
                if got != grid["points"][f"{protocol}@{mpl}"]:
                    mismatched.append(f"{protocol}@{mpl}")
        assert not mismatched, (
            f"an inactive FaultConfig perturbed {mismatched}; the "
            f"injector must be free when nothing is injected")


# ----------------------------------------------------------------------
# Liveness: every protocol survives every fault mix
# ----------------------------------------------------------------------
class TestSurvival:
    @pytest.mark.parametrize("protocol", repro.PROTOCOL_NAMES)
    def test_protocol_survives_crash_sweep(self, protocol):
        result, injector, _ = _faulty_run(protocol, transactions=60)
        # run() returns only once `measured_transactions` commits have
        # happened: returning at all is the no-hang proof.
        assert result.committed == 60
        assert injector.crashes >= 1, "environment too mild to test"
        assert injector.recoveries <= injector.crashes

    def test_scheduled_crash_fires_and_recovers(self):
        result, injector, log = _faulty_run(
            "2PC", transactions=40, plan="site_crash:1:at=500:for=800",
            log_kinds=(EventKind.SITE_CRASH, EventKind.SITE_RECOVER))
        assert result.committed == 40
        assert injector.crashes == 1 and injector.recoveries == 1
        crash, recover = log.events
        assert (crash.kind, crash.site_id) == (EventKind.SITE_CRASH, 1)
        assert (recover.kind, recover.site_id) == (EventKind.SITE_RECOVER, 1)
        assert crash.time == 500.0
        assert recover.time == pytest.approx(1300.0)

    def test_overlapping_schedule_entries_for_one_site(self):
        """Two scheduled crashes of site 0 that overlap in time: the
        second onset finds the site down and is skipped (the one overlap
        rule), so the first crash's recovery is the only one."""
        log = EventLog(kinds=(EventKind.SITE_CRASH, EventKind.SITE_RECOVER))
        result = repro.simulate(
            "2PC", mpl=2, measured_transactions=40, warmup_transactions=0,
            seed=7, on_system=lambda system: log.attach(system.bus),
            faults=FaultConfig(region=RegionPlan.parse(
                "site_crash:0:at=500:for=1000,"
                "site_crash:0:at=1000:for=1000")))
        assert result.committed >= 40
        assert [(e.kind, e.site_id, e.time) for e in log.events] == [
            (EventKind.SITE_CRASH, 0, 500.0),
            (EventKind.SITE_RECOVER, 0, 1500.0)]

    def test_message_loss_only_still_completes(self):
        result, injector, log = _faulty_run(
            "3PC", transactions=60, plan="loss:0.05",
            log_kinds=(EventKind.MSG_DROP,))
        assert result.committed == 60
        assert injector.messages_dropped >= 1
        assert {e.reason for e in log.events} == {"loss"}

    def test_message_delay_only_still_completes(self):
        plain, _, _ = _faulty_run("2PC", transactions=60, plan="loss:0.01")
        slow, _, _ = _faulty_run("2PC", transactions=60,
                                 plan="loss:0.01,delay:30")
        assert slow.committed == 60
        # Injected latency reshuffles the whole trajectory (contention,
        # aborts), so no per-seed monotonicity claim -- just that the
        # delays actually happened and nothing hung.
        assert slow.elapsed_ms != plain.elapsed_ms
        plan = _fault_plan("delay:30")
        draws = [plan.message_delay() for _ in range(200)]
        assert all(d > 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(30.0, rel=0.3)

    def test_timeout_aborts_are_attributed(self):
        result, _, _ = _faulty_run("2PC", transactions=60, plan="loss:0.08")
        assert result.aborts_by_reason.get("timeout", 0) >= 1


# ----------------------------------------------------------------------
# Presumption rules: what recovery reads from the WAL
# ----------------------------------------------------------------------
class TestPresumptionRules:
    """Unit-level classification: presumed_outcome maps stable log
    records to decisions exactly as each protocol's rule dictates."""

    def outcome(self, protocol, kinds):
        return repro.create_protocol(protocol).presumed_outcome(
            None, frozenset(kinds))

    def test_2pc_presumes_abort_without_a_decision_record(self):
        assert self.outcome("2PC", {LogRecordKind.PREPARE}) == \
            ("abort", "no-decision-record")

    def test_pa_presumes_abort(self):
        assert self.outcome("PA", set()) == ("abort", "presumed-abort")

    def test_pc_collecting_record_means_commit(self):
        assert self.outcome("PC", {LogRecordKind.COLLECTING}) == \
            ("commit", "presumed-commit")
        assert self.outcome("PC", set()) == ("abort", "no-collecting-record")

    def test_ep_reads_like_pc(self):
        assert self.outcome("EP", {LogRecordKind.COLLECTING}) == \
            ("commit", "presumed-commit")
        assert self.outcome("EP", set()) == ("abort", "no-collecting-record")

    def test_3pc_precommit_record_means_commit(self):
        assert self.outcome("3PC", {LogRecordKind.PRECOMMIT,
                                    LogRecordKind.PREPARE}) == \
            ("commit", "precommit-record")
        assert self.outcome("3PC", {LogRecordKind.PREPARE}) == \
            ("abort", "no-decision-record")

    RULES = {
        "2PC": {"decision-record", "no-decision-record"},
        "PA": {"decision-record", "presumed-abort"},
        "PC": {"decision-record", "presumed-commit",
               "no-collecting-record"},
        "3PC": {"decision-record", "termination-protocol",
                "precommit-record", "no-decision-record"},
        "LIN-2PC": {"decision-record", "no-decision-record"},
    }

    @pytest.mark.parametrize("protocol", sorted(RULES))
    def test_runtime_resolutions_use_the_protocol_rules(self, protocol):
        _, injector, log = _faulty_run(
            protocol, transactions=100, seed=9,
            log_kinds=(EventKind.TXN_RESOLVED_IN_DOUBT,))
        assert injector.in_doubt_resolved == len(log.events)
        assert log.events, "environment too mild: nothing went in doubt"
        for event in log.events:
            assert event.rule in self.RULES[protocol], event
            assert event.outcome in ("commit", "abort")
            if event.rule in ("presumed-commit", "precommit-record",
                              "termination-protocol"):
                assert event.outcome == "commit"
            if event.rule in ("presumed-abort", "no-decision-record",
                              "no-collecting-record"):
                assert event.outcome == "abort"

    def test_recovery_replay_publishes_site_events(self):
        _, injector, log = _faulty_run(
            "PA", transactions=100, seed=9,
            log_kinds=(EventKind.SITE_RECOVERY_REPLAY,))
        assert injector.replays == len(log.events)
        assert injector.replays == injector.recoveries


# ----------------------------------------------------------------------
# The master-stall blocking scenario rides on the same machinery
# ----------------------------------------------------------------------
class TestCrashScenarioIntegration:
    def test_3pc_termination_round_is_network_traffic(self):
        log = EventLog(kinds=(EventKind.MSG_SEND,))
        repro.simulate(
            "3PC", mpl=4, measured_transactions=150, warmup_transactions=0,
            seed=11, on_system=lambda system: log.attach(system.bus),
            faults=FaultConfig(
                region=RegionPlan.parse("master_stall:40:for=5000"),
                timeouts=FaultTimeouts(decision_timeout_ms=500.0)))
        inquiries = [e for e in log.events
                     if e.message.kind is MessageKind.STATUS_INQ]
        assert inquiries, (
            "the termination protocol must route its state-exchange "
            "round through the network, not burn anonymous CPU")

    def test_compare_blocking_accepts_shared_seed(self):
        settings = dict(protocols=("2PC", "3PC"), outages=(5_000.0,),
                        transactions=150, seed=11)
        first = run_preset("blocking", **settings)
        again = run_preset("blocking", **settings)
        pooled = run_preset("blocking", jobs=2, **settings)
        for key, point in first.points.items():
            assert point.readings == again.points[key].readings
            assert point.readings == pooled.points[key].readings
            assert point.result == pooled.points[key].result


# ----------------------------------------------------------------------
# Outcome accounting under site crashes
# ----------------------------------------------------------------------
def _crash_run(protocol, log_kinds):
    """Seed 1, mpl 4, MTTF 20 s / MTTR 3 s, 600 txns, no warm-up."""
    log = EventLog(kinds=log_kinds)
    result = repro.simulate(
        protocol, mpl=4, measured_transactions=600, warmup_transactions=0,
        seed=1, on_system=lambda system: log.attach(system.bus),
        faults=FaultConfig(mttf_ms=20_000.0, mttr_ms=3_000.0))
    return result, log


class TestCrashOutcomeAccounting:
    @pytest.mark.parametrize("protocol", ["3PC", "OPT-3PC"])
    def test_no_incarnation_both_aborted_and_committed(self, protocol):
        """Regression: a 3PC master whose site crashed during its
        PRECOMMIT force was counted aborted (and restarted) while
        recovery read the already-appended precommit record and
        committed its cohorts."""
        _, log = _crash_run(protocol, (EventKind.TXN_ABORT,
                                       EventKind.TXN_RESOLVED_IN_DOUBT))
        aborted = {(e.txn.txn_id, e.txn.incarnation)
                   for e in log.of_kind(EventKind.TXN_ABORT)}
        committed = {(e.cohort.txn.txn_id, e.cohort.txn.incarnation)
                     for e in log.of_kind(EventKind.TXN_RESOLVED_IN_DOUBT)
                     if e.outcome == "commit"}
        assert committed, "environment too mild: nothing resolved in doubt"
        assert not aborted & committed

    def test_master_lost_to_a_site_crash_is_labelled_site_crash(self):
        result, _ = _crash_run("2PC", ())
        assert "surprise_vote" not in result.aborts_by_reason
        assert result.aborts_by_reason.get("site_crash", 0) > 0

    @pytest.mark.parametrize("protocol, seed", [("3PC", 1), ("OPT-PA", 3)])
    def test_finished_cohort_is_never_relabelled(self, protocol, seed):
        """Regression: a site crash that hit a COMMITTED cohort while it
        sent its ACK released its locks a second time, as aborted (3PC
        seed 1: T124.0 at site 0; OPT-PA seed 3: T71.1 at site 4)."""
        _, _, log = _faulty_run(protocol, seed=seed, transactions=150,
                                log_kinds=(EventKind.LOCK_RELEASE,))
        releases = {}
        for event in log.events:
            cohort = event.cohort
            releases.setdefault((cohort.txn.txn_id, cohort.txn.incarnation,
                                 cohort.site.site_id), []).append(
                                     event.committed)
        assert releases, "no lock was released"
        # Each cohort releases its locks once, under one label.
        assert {key: labels for key, labels in releases.items()
                if len(labels) > 1} == {}

    @pytest.mark.parametrize("protocol, seed", [
        ("LIN-2PC", 2), ("LIN-2PC", 3), ("LIN-2PC", 4),
        ("OPT-LIN", 1), ("OPT-LIN", 4)])
    def test_crashed_chain_master_reads_the_tails_commit(self, protocol,
                                                         seed):
        """Regression: a LIN-2PC master whose site crashed after the
        chain tail forced COMMIT counted its incarnation aborted (and
        the slot restarted it) although every cohort committed (LIN-2PC
        seed 2: T45.1, T56.1 and T58.1)."""
        _, _, log = _faulty_run(protocol, seed=seed, transactions=150,
                                log_kinds=(EventKind.TXN_ABORT,))
        assert log.events, "environment too mild: nothing aborted"
        assert [event.txn.name for event in log.events
                if all(cohort.state is CohortState.COMMITTED
                       for cohort in event.txn.cohorts)] == []


# ----------------------------------------------------------------------
# Master work-phase timeout: strays must not postpone the deadline
# ----------------------------------------------------------------------
class TestMasterWorkTimeoutDeadline:
    """Regression: the master's work-phase wait used to restart its
    ``work_timeout_ms`` window on *every* inbox message, so a trickle of
    stray traffic (duplicate ACKs from a recovering site, late reports
    from a dead incarnation) arriving faster than the timeout postponed
    the abort forever.  The wait is now deadline-based: strays consume
    the remaining budget, and only an accepted work report grants a
    fresh window."""

    TIMEOUT_MS = 500.0

    def _wedged_master(self, protocol="2PC"):
        """A launched transaction whose cohorts will never report, with
        a pest dripping stray ACKs into the master's inbox."""
        from repro.db.messages import Message
        from repro.db.transaction import AbortReason

        faults = FaultConfig(
            region=RegionPlan.parse(INERT),
            timeouts=FaultTimeouts(work_timeout_ms=self.TIMEOUT_MS))
        system = repro.build_system(protocol, faults=faults)
        env = system.env
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, env.now)

        def sabotage():
            # Kill every cohort before any WORKDONE can be produced...
            yield env.timeout(1.0)
            for cohort in txn.cohorts:
                cohort.process.interrupt(AbortReason.TIMEOUT)
            # ... then keep the master's inbox busy with stray traffic,
            # five messages per timeout window.
            sender = txn.cohorts[0]
            while txn.master.process.is_alive:
                txn.master.inbox.put(Message(
                    kind=MessageKind.ACK, sender=sender,
                    receiver=txn.master, txn_id=txn.txn_id,
                    incarnation=txn.incarnation))
                yield env.timeout(self.TIMEOUT_MS / 5)

        env.process(sabotage(), name="sabotage")
        return system, txn

    def test_stray_messages_do_not_postpone_work_timeout(self):
        from repro.db.transaction import AbortReason, TransactionOutcome

        system, txn = self._wedged_master()
        env = system.env
        death_time = []

        def waiter():
            yield txn.master.process
            death_time.append(env.now)

        env.process(waiter(), name="waiter")
        # A watchdog horizon, NOT run-until-master: with the old
        # restart-per-message behaviour the master never dies and
        # running until its process would hang the test.
        env.run(until=env.timeout(20 * self.TIMEOUT_MS))
        assert death_time, "master still waiting: strays reset its timeout"
        # One un-reported phase => at most one full window per cohort,
        # plus STARTWORK message-CPU costs; 4x covers dist_degree=3.
        assert death_time[0] <= 4 * self.TIMEOUT_MS
        assert txn.outcome is TransactionOutcome.ABORTED
        assert txn.abort_reason is AbortReason.TIMEOUT

    def test_sequential_master_is_also_bounded(self):
        from repro.db.transaction import TransactionOutcome

        params = ModelParams(
            trans_type=repro.TransactionType.SEQUENTIAL)
        faults = FaultConfig(
            region=RegionPlan.parse(INERT),
            timeouts=FaultTimeouts(work_timeout_ms=self.TIMEOUT_MS))
        system = repro.build_system("2PC", params=params, faults=faults)
        env = system.env
        spec = system.workload.generate(0)
        txn = system._launch(spec, 0, env.now)
        from repro.db.messages import Message
        from repro.db.transaction import AbortReason

        def sabotage():
            yield env.timeout(1.0)
            for cohort in txn.cohorts:
                cohort.process.interrupt(AbortReason.TIMEOUT)
            sender = txn.cohorts[0]
            while txn.master.process.is_alive:
                txn.master.inbox.put(Message(
                    kind=MessageKind.ACK, sender=sender,
                    receiver=txn.master, txn_id=txn.txn_id,
                    incarnation=txn.incarnation))
                yield env.timeout(self.TIMEOUT_MS / 5)

        env.process(sabotage(), name="sabotage")
        death_time = []

        def waiter():
            yield txn.master.process
            death_time.append(env.now)

        env.process(waiter(), name="waiter")
        env.run(until=env.timeout(20 * self.TIMEOUT_MS))
        assert death_time, "master still waiting: strays reset its timeout"
        assert death_time[0] <= 4 * self.TIMEOUT_MS
        assert txn.outcome is TransactionOutcome.ABORTED


class TestWaitsEndWithinTheirTimeout:
    """The one wait rule, on the waits that used to restart their window
    on every stray: a wait under faults ends ``timeout_ms`` after it
    starts, however much stray traffic arrives meanwhile (each accepted
    message gives the next wait a fresh window).  The same stray trickle
    as :class:`TestMasterWorkTimeoutDeadline`, aimed at a cohort's
    decision wait and at the master's ACK wait."""

    TIMEOUT_MS = 500.0

    def _drip(self, env, agent, kind, sender):
        """Five stray ``kind`` messages per timeout window into
        ``agent``'s inbox, for as long as ``agent`` runs."""
        from repro.db.messages import Message

        while agent.process.is_alive:
            agent.inbox.put(Message(
                kind=kind, sender=sender, receiver=agent,
                txn_id=agent.txn.txn_id, incarnation=agent.txn.incarnation))
            yield env.timeout(self.TIMEOUT_MS / 5)

    def _launch(self, faults, on_phase):
        """One transaction under ``faults``; ``on_phase(system, txn,
        event)`` sees each of its master's phase changes.  Returns
        (txn, TimeoutFired events) after a watchdog horizon."""
        system = repro.build_system("2PC", faults=faults)
        env = system.env
        txn = system._launch(system.workload.generate(0), 0, env.now)
        fired = []
        system.bus.subscribe(EventKind.TIMEOUT_FIRED, fired.append)
        system.bus.subscribe(
            EventKind.PHASE, lambda event: on_phase(system, txn, event))
        # A horizon, not run-until-done: a wait that strays keep
        # restarting never ends.
        env.run(until=env.timeout(20 * self.TIMEOUT_MS))
        return txn, fired

    def test_cohort_decision_wait_ends_within_its_timeout(self):
        from repro.obs.events import CommitPhase

        # The first transaction's master stalls for good just before its
        # COMMIT force, with every cohort in its decision wait.
        faults = FaultConfig(
            region=RegionPlan.parse("master_stall:1:for=1000000"),
            timeouts=FaultTimeouts(decision_timeout_ms=self.TIMEOUT_MS))
        started = []

        def on_phase(system, txn, event):
            if event.phase is CommitPhase.DECIDE:
                # Every vote is in, so every cohort is already waiting.
                cohort = txn.cohorts[-1]
                started.append((system.env.now, cohort))
                system.env.process(self._drip(system.env, cohort,
                                              MessageKind.PREPARE,
                                              txn.master))

        txn, fired = self._launch(faults, on_phase)
        assert started, "the master never collected its votes"
        decided_at, cohort = started[0]
        assert cohort.site is not txn.master.site
        ends = [event.time for event in fired
                if event.agent is cohort and event.wait == "decision"]
        assert ends, "strays kept restarting the decision wait"
        assert ends[0] <= decided_at + self.TIMEOUT_MS

    def test_master_ack_wait_ends_within_its_timeout(self):
        from repro.db.transaction import AbortReason
        from repro.obs.events import CommitPhase

        faults = FaultConfig(
            region=RegionPlan.parse(INERT),
            timeouts=FaultTimeouts(ack_timeout_ms=self.TIMEOUT_MS))
        acks = []  # the ACK phase's start, then each accepted ACK

        def on_deliver(event):
            if event.message.kind is MessageKind.ACK:
                acks.append(event.time)

        def on_phase(system, txn, event):
            if event.phase is not CommitPhase.ACK:
                return
            # One remote cohort never acknowledges...
            txn.cohorts[-1].process.interrupt(AbortReason.TIMEOUT)
            # ... and the master's inbox fills with late votes.
            system.env.process(self._drip(system.env, txn.master,
                                          MessageKind.VOTE_YES,
                                          txn.cohorts[0]))
            acks.append(system.env.now)
            system.bus.subscribe(EventKind.MSG_DELIVER, on_deliver)

        txn, fired = self._launch(faults, on_phase)
        assert acks, "the master never reached its ACK phase"
        ends = [event.time for event in fired
                if event.agent is txn.master and event.wait == "acks"]
        assert ends, "strays kept restarting the ACK wait"
        assert ends[0] <= max(acks) + self.TIMEOUT_MS
        assert not txn.master.process.is_alive


class TestFaultFreeStrayIsAProtocolBug:
    def test_stray_before_startwork_names_the_agent_and_the_wait(self):
        """With the fault plane off a wait takes exactly its expected
        kinds; anything else is a bug that must surface as an error
        naming who was waiting for what (and survive ``python -O``)."""
        import re

        from repro.db.messages import Message

        system = repro.build_system("2PC")
        env = system.env
        txn = system._launch(system.workload.generate(0), 0, env.now)
        cohort = txn.cohorts[1]
        cohort.inbox.put(Message(
            kind=MessageKind.ACK, sender=txn.master, receiver=cohort,
            txn_id=txn.txn_id, incarnation=txn.incarnation))
        with pytest.raises(RuntimeError,
                           match=re.escape(repr(cohort)) + ".*startwork"):
            env.run(until=env.timeout(1_000.0))
