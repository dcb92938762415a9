"""Paxos Commit + replication tests (ISSUE PR 10) and the fault-plane
edge-case fixes that ride along.

Pinned contracts:

1. **F = 0 degenerates to 2PC** -- Paxos Commit with no fault tolerance
   produces byte-identical results to plain 2PC (the Gray & Lamport
   equivalence), healthy and faulty alike.
2. **R = 1 keeps the historical fast path** -- enabling the replication
   layer at factor 1 perturbs nothing: every protocol still matches the
   golden fixture bit-for-bit.
3. **Fault-plane bookkeeping** -- per-reason drop counters always sum to
   the total (and to the MSG_DROP event stream), the partition-heal
   wake-up resets the resolver backoff, and every RNG substream ever
   created survives a checkpoint round-trip byte-identically.
"""

import dataclasses
import json
import pathlib
import pickle

import pytest

import repro
from repro.config import ModelParams
from repro.db.pages import ReplicaDirectory, ReplicationSpec
from repro.experiments.runner import point_seed
from repro.faults import FaultConfig, RegionPlan
from repro.obs import EventLog
from repro.obs.events import EventKind
from repro.sim.rng import RandomStreams

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_sweep.json"

#: the harsh environment used by the fault-suite survival tests.
HARSH = dict(region=RegionPlan.parse(
    "site_crash:*:mttf=25000:mttr=2000,loss:0.02"))

DCS = "dcs:2x2:rtt_ms=5"


def _round_trip(result):
    """Normalize a SimulationResult the way the golden fixture was."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def _run(protocol, *, seed=42, transactions=80, log_kinds=None,
         topology=None, faults=None, **overrides):
    """One run; returns (result, system, event log)."""
    captured = []
    log = EventLog(kinds=log_kinds)
    if topology is not None:
        overrides["network_topology"] = repro.NetworkTopology.parse(topology)
    result = repro.simulate(
        protocol, measured_transactions=transactions,
        warmup_transactions=0, seed=seed,
        on_system=lambda s: (captured.append(s), log.attach(s.bus)),
        faults=faults, **overrides)
    return result, captured[0], log


# ----------------------------------------------------------------------
# Registry: the parameterized PAXOS[:f=<F>] spelling
# ----------------------------------------------------------------------
class TestPaxosRegistry:
    def test_default_is_f1_and_non_blocking(self):
        protocol = repro.create_protocol("PAXOS")
        assert protocol.name == "PAXOS"
        assert protocol.f == 1
        assert protocol.non_blocking

    def test_parameterized_spelling(self):
        assert repro.create_protocol("PAXOS:f=2").f == 2
        assert repro.create_protocol("paxos:f=0").f == 0

    def test_f0_is_blocking(self):
        assert not repro.create_protocol("PAXOS:f=0").non_blocking

    @pytest.mark.parametrize("bad", ["PAXOS:f=x", "PAXOS:g=1", "PAXOS:f=-1",
                                     "PAXOS:", "PAXOS:f="])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError, match="paxos"):
            repro.create_protocol(bad)

    def test_registered_in_protocol_names(self):
        assert "PAXOS" in repro.PROTOCOL_NAMES


# ----------------------------------------------------------------------
# F = 0 degenerates to 2PC (the Gray & Lamport equivalence)
# ----------------------------------------------------------------------
class TestF0Matches2PC:
    def test_healthy_run_byte_identical(self):
        results = [repro.simulate(name, mpl=3, measured_transactions=120,
                                  seed=11)
                   for name in ("2PC", "PAXOS:f=0")]
        expected = [_round_trip(r) for r in results]
        # The protocol label is the one permitted difference.
        for normalized, name in zip(expected, ("2PC", "2PC")):
            normalized["protocol"] = name
        assert expected[0] == expected[1]

    @pytest.mark.faults
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_faulty_run_byte_identical(self, seed):
        results = [repro.simulate(name, mpl=3, measured_transactions=60,
                                  warmup_transactions=0, seed=seed,
                                  faults=FaultConfig(**HARSH))
                   for name in ("2PC", "PAXOS:f=0")]
        expected = [_round_trip(r) for r in results]
        for normalized in expected:
            normalized["protocol"] = "2PC"
        assert expected[0] == expected[1]


# ----------------------------------------------------------------------
# Overheads: PAXOS message/forced-write counts vs 2PC (paper Table 3
# style accounting, extended to the Gray & Lamport protocol)
# ----------------------------------------------------------------------
class TestPaxosOverheads:
    """With D = 3 sites per transaction (master + 2 remote cohorts) and a
    conflict-free run, per-commit costs are exact constants:

    - 2PC: 8 messages (2 x 4 per remote cohort), 7 forced writes.
    - PAXOS (F = 1): the 2 remote cohorts each additionally send their
      vote to 2 remote acceptors (+4), acceptors send 2B acks to the
      master (+2), totalling 14; each acceptor adds one batched forced
      ACCEPT record (+2), totalling 9.
    """

    def _overheads(self, protocol):
        result, system, _ = _run(protocol, transactions=60, seed=5,
                                 num_sites=4, db_size=2000, mpl=1,
                                 dist_degree=3, cohort_size=4)
        assert result.aborted == 0, "setup must be conflict-free"
        return result.overheads

    def test_2pc_baseline(self):
        overheads = self._overheads("2PC")
        assert overheads.commit_messages == pytest.approx(8.0)
        assert overheads.forced_writes == pytest.approx(7.0)

    def test_paxos_f1(self):
        overheads = self._overheads("PAXOS")
        assert overheads.commit_messages == pytest.approx(14.0)
        assert overheads.forced_writes == pytest.approx(9.0)

    def test_f0_matches_2pc_exactly(self):
        assert self._overheads("PAXOS:f=0") == self._overheads("2PC")

    def test_f_clamped_to_cohort_sites(self):
        # D = 3 offers only 2F+1 = 3 acceptor sites, so F = 2 clamps to
        # F = 1 and must cost exactly the same.
        assert self._overheads("PAXOS:f=2") == self._overheads("PAXOS")


# ----------------------------------------------------------------------
# Satellite 4: R = 1 keeps the historical fast path (golden fixture)
# ----------------------------------------------------------------------
class TestReplicationDisabledIsFree:
    def test_r1_matches_golden_for_every_protocol(self):
        """`--replication 1` must not perturb a single field of any
        protocol's trajectory: factor 1 routes through the replica
        directory but ships nothing and draws nothing."""
        grid = json.loads(GOLDEN.read_text())["tier2"]
        mpl = 2
        assert mpl in grid["mpls"]
        mismatched = []
        for protocol in grid["protocols"]:
            result = repro.simulate(
                protocol,
                params=ModelParams(mpl=mpl, replication=ReplicationSpec(1)),
                measured_transactions=grid["transactions"],
                seed=point_seed(20250705, 0))
            if _round_trip(result) != grid["points"][f"{protocol}@{mpl}"]:
                mismatched.append(protocol)
        assert not mismatched, (
            f"replication factor 1 perturbed {mismatched}; R=1 must keep "
            f"the historical partitioned layout byte-identical")


# ----------------------------------------------------------------------
# Replication spec parsing and deterministic placement
# ----------------------------------------------------------------------
class TestReplicationSpec:
    def test_parse_factor_only(self):
        spec = ReplicationSpec.parse("2")
        assert (spec.factor, spec.strategy) == (2, "chain")

    def test_parse_with_strategy(self):
        spec = ReplicationSpec.parse("3:spread")
        assert (spec.factor, spec.strategy) == (3, "spread")

    @pytest.mark.parametrize("bad", ["", "x", "2:bogus", "2:chain:extra",
                                     "0", "-1"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            spec = ReplicationSpec.parse(bad)
            spec.validate(num_sites=8)

    def test_factor_cannot_exceed_sites(self):
        with pytest.raises(ValueError, match="exceeds"):
            ReplicationSpec(4).validate(num_sites=3)


class TestReplicaDirectory:
    def _directory(self, spec, num_sites=8):
        return ReplicaDirectory(db_size=800, num_sites=num_sites,
                                num_data_disks=2, spec=spec)

    def test_primary_first_and_distinct(self):
        directory = self._directory(ReplicationSpec(3))
        for primary in range(8):
            replicas = directory.replica_sites(primary)
            assert replicas[0] == primary
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_chain_uses_ring_neighbours(self):
        directory = self._directory(ReplicationSpec(2, "chain"))
        assert directory.replica_sites(0) == (0, 1)
        assert directory.replica_sites(7) == (7, 0)

    def test_spread_spaces_copies(self):
        directory = self._directory(ReplicationSpec(2, "spread"))
        assert directory.replica_sites(0) == (0, 4)
        assert directory.replica_sites(3) == (3, 7)

    def test_every_page_resolves_to_its_primary_set(self):
        directory = self._directory(ReplicationSpec(2))
        for page in range(0, 800, 97):
            replicas = directory.replicas_of(page)
            assert replicas == directory.replica_sites(
                directory.site_of(page))


# ----------------------------------------------------------------------
# Replication at runtime: propagation, available copies, liveness
# ----------------------------------------------------------------------
class TestReplicationRuns:
    def test_r2_ships_updates(self):
        result, system, log = _run(
            "2PC", transactions=60, seed=3, mpl=2, num_sites=4, topology=DCS,
            replication=ReplicationSpec(2),
            log_kinds=(EventKind.REPLICA_PROPAGATE,))
        assert result.committed == 60
        assert system.replica_updates_sent > 0
        assert system.replica_writes_skipped == 0
        shipped = [e for e in log.events if e.shipped]
        assert len(shipped) == system.replica_updates_sent

    @pytest.mark.faults
    def test_available_copies_skips_downed_replicas(self):
        faults = FaultConfig(
            mttr_ms=2_000.0,
            region=RegionPlan.parse("dc_crash:1:at=500:for=2500"))
        result, system, log = _run(
            "PAXOS", transactions=60, seed=3, mpl=2, num_sites=4, topology=DCS,
            replication=ReplicationSpec(2, "spread"), faults=faults,
            log_kinds=(EventKind.REPLICA_PROPAGATE,))
        assert result.committed == 60  # liveness through the outage
        assert system.replica_writes_skipped > 0
        skipped = [e for e in log.events if not e.shipped]
        assert len(skipped) == system.replica_writes_skipped

    def test_replication_rejected_for_centralized(self):
        with pytest.raises(ValueError):
            repro.build_system("CENT", replication=ReplicationSpec(2))


# ----------------------------------------------------------------------
# PAXOS under faults: liveness, quorum recovery, ballot takeover
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestPaxosUnderFaults:
    @pytest.mark.parametrize("seed", [1, 42])
    def test_survives_harsh_sweep(self, seed):
        result, system, _ = _run("PAXOS", seed=seed, transactions=80,
                                 mpl=3, faults=FaultConfig(**HARSH))
        assert result.committed == 80
        assert system.faults.crashes >= 1, "environment too mild to test"

    def test_acceptors_log_and_ballots_close(self):
        """Across a few harsh seeds, acceptors must fire on the commit
        path and at least one blocked cohort must take over with a new
        ballot (the non-blocking property doing actual work)."""
        acceptor_events = 0
        ballots = 0
        for seed in (1, 7, 23, 42, 99):
            _, _, log = _run(
                "PAXOS", seed=seed, transactions=80, mpl=3,
                faults=FaultConfig(**HARSH),
                log_kinds=(EventKind.ACCEPTOR, EventKind.BALLOT))
            acceptor_events += sum(
                1 for e in log.events if e.kind is EventKind.ACCEPTOR)
            ballots += sum(
                1 for e in log.events if e.kind is EventKind.BALLOT)
        assert acceptor_events > 0
        assert ballots > 0, (
            "no run exercised the new-ballot takeover; the recovery "
            "path is dead code under this fault mix")

    @pytest.mark.parametrize("seed", [7, 42])
    def test_less_blocking_than_2pc_during_outage(self, seed):
        """The headline: a coordinator-DC outage blocks PAXOS cohorts
        for less lock-hold time than 2PC, because reachable quorums
        close the ballot instead of waiting out the coordinator."""
        plan = RegionPlan.parse(
            "dc_crash:0:at=800:for=1500,partition:0|1:at=4000:for=1500")
        blocked = {}
        for protocol in ("2PC", "PAXOS"):
            _, system, _ = _run(
                protocol, transactions=60, seed=seed, mpl=2, num_sites=4,
                topology=DCS,
                faults=FaultConfig(mttr_ms=2_000.0, region=plan))
            blocked[protocol] = system.faults.blocked_lock_ms
        assert blocked["PAXOS"] < blocked["2PC"]


    def test_replica_applier_waits_never_deadlock(self):
        """Spread replicas give each committed transaction appliers at
        several sites; two of them applying overlapping pages in opposite
        orders once closed a transaction-level wait-for cycle, and the
        detector picked an already-committed transaction as its victim
        (``on_victim callback failed to mark the victim aborting`` at
        simulated t~115.8 s on this seed)."""
        params = ModelParams(
            num_sites=6, mpl=2,
            network_topology=repro.NetworkTopology.parse("dcs:3x2:rtt_ms=10"),
            replication=ReplicationSpec.parse("3:spread"))
        faults = FaultConfig(
            mttf_ms=30_000.0, mttr_ms=2_000.0,
            region=RegionPlan.parse("dc_crash:0:mttf=60000:mttr=3000"))
        captured = []
        result = repro.simulate("PAXOS:f=1", params=params,
                                measured_transactions=500,
                                warmup_transactions=50, seed=1,
                                faults=faults, on_system=captured.append)
        assert result.committed == 500
        assert captured[0].env.now > 116_000.0, "run ended before the " \
            "instant the false deadlock used to fire"


# ----------------------------------------------------------------------
# Satellite 1: partition heal resets the re-inquiry backoff
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestHealBackoffReset:
    def test_heal_event_is_shared_and_rearmed(self):
        system = repro.build_system(
            "2PC", mpl=1, num_sites=4,
            network_topology=repro.NetworkTopology.parse(DCS),
            faults=FaultConfig(mttr_ms=2_000.0,
                               region=RegionPlan.parse(
                                   "partition:0|1:at=100:for=100")))
        injector = system.faults
        first = injector.heal_event()
        assert injector.heal_event() is first  # shared between waiters
        injector._sever(0, 1)
        injector._heal(0, 1)
        assert first.triggered  # heal wakes every waiter
        fresh = injector.heal_event()
        assert fresh is not first and not fresh.triggered  # re-armed

    def test_resolution_prompt_after_heal(self):
        """Regression (PR 9 follow-up): the capped 8x backoff used to
        keep ticking after LINK_HEAL, so the first post-heal inquiry
        could sleep out a stale multi-second interval.  Every cohort
        that was already in doubt when the partition healed must now
        resolve within a base retry interval of the heal -- not an 8x
        backed-off one.  (Cohorts whose decision timeouts fire *after*
        the heal are excluded: they were never blocked on the link.)"""
        plan = RegionPlan.parse("partition:0|1:at=500:for=6000")
        records = []
        captured = []

        def hook(system):
            captured.append(system)
            injector = system.faults
            original = injector.note_resolved

            def recording(cohort):
                # in_doubt_since is cleared by note_resolved, so read
                # it on the way in.
                records.append((system.env.now, cohort.in_doubt_since))
                original(cohort)

            injector.note_resolved = recording

        repro.simulate(
            "2PC", mpl=2, num_sites=4,
            network_topology=repro.NetworkTopology.parse(DCS),
            measured_transactions=60, warmup_transactions=0, seed=7,
            on_system=hook,
            faults=FaultConfig(mttr_ms=2_000.0, region=plan))
        heal = 500.0 + 6000.0
        lags = [time - heal for time, since in records
                if since is not None and since < heal and time >= heal]
        assert lags, "no cohort was blocked across the heal; scenario " \
            "too mild to pin the regression"
        base_retry = captured[0].fault_timeouts.resolve_retry_ms
        # Backed-off waiters sleep up to 8 x base_retry = 4000 ms; the
        # wake-up must bring the worst case under ~one base interval
        # (plus inquiry round-trip time).  Without the reset the lag
        # here measures 2510 ms.
        assert max(lags) < 2.0 * base_retry, (
            f"in-doubt cohort resolved {max(lags):.0f} ms after the "
            f"heal; backoff state was not reset by LINK_HEAL")

    def test_lin_master_resolution_prompt_after_heal(self):
        """LIN-2PC's master asks the chain tail through the same inquiry
        loop as an in-doubt cohort, so a master cut off from its tail by
        a partition wakes at LINK_HEAL and resolves with one inquiry
        round trip.  (Its private loop used to poll every
        resolve_retry_ms, so it first asked up to 500 ms after the
        heal.)"""
        from repro.db.messages import MessageKind
        from repro.db.transaction import MasterAgent

        heal = 500.0 + 8000.0
        plan = RegionPlan.parse("partition:0|1:at=500:for=8000")
        blocked, asked, answered, finished = [], {}, {}, {}

        def on_timeout(event):
            # The chain went silent before the heal: the master inquires.
            if isinstance(event.agent, MasterAgent) \
                    and event.wait == "chain-decision":
                blocked.append(event.agent)

        def on_send(event):
            if event.message.kind is MessageKind.STATUS_INQ \
                    and event.time >= heal:
                asked.setdefault(event.message.sender, event.time)

        def on_deliver(event):
            if event.message.kind is MessageKind.STATUS_ACK \
                    and event.time >= heal:
                answered.setdefault(event.message.sender, event.time)

        def on_done(event):
            finished[event.txn] = (event.time, event.kind)

        def hook(system):
            bus = system.bus
            bus.subscribe(EventKind.TIMEOUT_FIRED, on_timeout)
            bus.subscribe(EventKind.MSG_SEND, on_send)
            bus.subscribe(EventKind.MSG_DELIVER, on_deliver)
            bus.subscribe((EventKind.TXN_COMMIT, EventKind.TXN_ABORT),
                          on_done)

        repro.simulate(
            "LIN-2PC", mpl=2, num_sites=4,
            network_topology=repro.NetworkTopology.parse(DCS),
            measured_transactions=60, warmup_transactions=0, seed=1,
            on_system=hook,
            faults=FaultConfig(mttr_ms=2_000.0, region=plan))
        across = [master for master in blocked
                  if finished[master.txn][0] > heal]
        assert any(finished[master.txn][1] is EventKind.TXN_COMMIT
                   for master in across), \
            "no master was blocked across the heal from a decided tail"
        for master in across:
            assert asked[master] == heal, \
                f"{master!r} first asked {asked[master] - heal:.0f} ms " \
                f"after the heal"
            assert finished[master.txn][0] == answered[master]


# ----------------------------------------------------------------------
# Satellite 2: drop accounting never drifts
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestDropAccounting:
    def _check(self, system, log):
        network = system.network
        drops = [e for e in log.events if e.kind is EventKind.MSG_DROP]
        assert network.messages_dropped == len(drops)
        assert sum(network.drops_by_reason.values()) == \
            network.messages_dropped
        by_reason = {}
        for event in drops:
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        assert by_reason == network.drops_by_reason
        # The injector attributes every drop it caused; topology wire
        # loss is the healthy WAN's doing and stays out of its counter.
        injected = network.messages_dropped \
            - network.drops_by_reason.get("topology_loss", 0)
        assert system.faults.messages_dropped == injected
        return network.drops_by_reason

    def test_availability_style_run(self):
        _, system, log = _run("PA", seed=42, transactions=80, mpl=3,
                              faults=FaultConfig(**HARSH),
                              log_kinds=(EventKind.MSG_DROP,))
        reasons = self._check(system, log)
        assert reasons.get("loss", 0) > 0
        assert reasons.get("site_down", 0) > 0

    def test_region_outage_run(self):
        plan = RegionPlan.parse(
            "dc_crash:0:at=800:for=1500,partition:0|1:at=4000:for=1500")
        _, system, log = _run("3PC", seed=7, transactions=60, mpl=2,
                              num_sites=4, topology=DCS,
                              faults=FaultConfig(mttr_ms=2_000.0,
                                                 region=plan),
                              log_kinds=(EventKind.MSG_DROP,))
        reasons = self._check(system, log)
        assert reasons.get("partition", 0) > 0

    def test_topology_wire_loss_run(self):
        _, system, log = _run("PAXOS", seed=42, transactions=60, mpl=2, num_sites=4,
                              topology="dcs:2x2:rtt_ms=5:loss=0.05",
                              faults=FaultConfig(
                                  region=RegionPlan.parse("loss:0.01")),
                              log_kinds=(EventKind.MSG_DROP,))
        reasons = self._check(system, log)
        assert reasons.get("topology_loss", 0) > 0


# ----------------------------------------------------------------------
# Satellite 3: RNG substream checkpoint coverage
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestRngCheckpointCoverage:
    def _full_feature_system(self):
        """A run touching every substream family: workload, surprise
        aborts, per-site fault drivers, message loss/delay, topology
        jitter/loss, and the replication plane."""
        captured = []
        repro.simulate(
            "PAXOS", mpl=2, num_sites=4,
            network_topology=repro.NetworkTopology.parse(
                "dcs:2x2:rtt_ms=5:jitter_ms=1:loss=0.01"),
            replication=ReplicationSpec(2),
            measured_transactions=40, warmup_transactions=0, seed=7,
            on_system=lambda s: captured.append(s),
            faults=FaultConfig(region=RegionPlan.parse(
                "site_crash:*:mttf=60000:mttr=2000,loss:0.02,delay:1,"
                "dc_crash:0:at=800:for=1200")))
        return captured[0]

    def test_capture_covers_every_stream_ever_created(self):
        system = self._full_feature_system()
        streams = system.streams
        state = streams.capture_state()
        assert set(state) == set(streams._streams)
        # The families this run must have touched.
        names = set(state)
        assert "workload-pages" in names
        assert "faults-msgloss" in names
        assert any(name.startswith("faults-site-") for name in names)

    def test_round_trip_is_byte_identical(self):
        """Checkpoint semantics: pickling the captured state (what
        SoakCheckpoint does) and restoring it into a fresh family must
        reproduce the exact future of every stream."""
        system = self._full_feature_system()
        streams = system.streams
        blob = pickle.dumps(streams.capture_state())
        restored = RandomStreams(seed=streams.seed)
        restored.restore_state(pickle.loads(blob))
        for name, original in streams._streams.items():
            clone = restored.stream(name)
            assert [clone.random() for _ in range(16)] == \
                [original.random() for _ in range(16)], name
        # And the restored family re-captures to the same bytes the
        # streams now produce from the original.
        assert pickle.dumps(restored.capture_state()) == \
            pickle.dumps(streams.capture_state())

    def test_soak_checkpoint_embeds_rng_state(self):
        """The soak checkpoint path itself must carry the full stream
        family: capture at a drain barrier, restore into a fresh
        family, identical futures."""
        from repro.config import open_system
        params = open_system(arrival_rate_tps=10.0, num_sites=2, mpl=4,
                             db_size=600, dist_degree=2, cohort_size=4)
        system = repro.build_system(
            "PAXOS", params, seed=7,
            faults=FaultConfig(region=RegionPlan.parse(
                "site_crash:*:mttf=60000:mttr=2000,loss:0.01")))
        system.start()
        system.env.run(until=system.metrics.when_committed(30))
        system.stop_arrivals()
        system.env.run(until=system.when_drained())
        state = system.capture_soak_state()
        assert set(state["rng"]) == set(system.streams._streams)
        restored = RandomStreams(seed=system.streams.seed)
        restored.restore_state(pickle.loads(pickle.dumps(state["rng"])))
        for name, original in system.streams._streams.items():
            assert restored.stream(name).random() == original.random(), name
