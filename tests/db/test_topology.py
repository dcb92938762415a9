"""Tests for the network topology layer and the WAN wire."""

import dataclasses
import json

import pytest

import repro
from repro.config import ModelParams, Topology
from repro.core import create_protocol
from repro.db.messages import Message, MessageKind
from repro.db.system import DistributedSystem
from repro.db.topology import NetworkTopology, TopologyKind, WanTopology
from repro.obs.events import EventKind
from repro.obs.recorder import EventLog
from repro.sim.rng import RandomStreams

from tests.db.conftest import FakeTransaction
from tests.db.test_network import FakeAgent, _send


# ----------------------------------------------------------------------
# Spec parsing (mirrors the AccessSkew.parse boundary contract)
# ----------------------------------------------------------------------
class TestParse:
    def test_uniform(self):
        topology = NetworkTopology.parse("uniform")
        assert topology.is_uniform
        assert topology.placement(8) is None
        assert topology.describe() == "uniform"

    def test_dcs(self):
        topology = NetworkTopology.parse("dcs:2x2:rtt_ms=40")
        assert topology.kind is TopologyKind.DCS
        assert topology.num_dcs == 2
        assert topology.sites_per_dc == 2
        assert topology.rtt_ms == 40.0
        assert topology.placement(4) == (0, 0, 1, 1)

    def test_dcs_options(self):
        topology = NetworkTopology.parse(
            "dcs:2x4:rtt_ms=80:intra_ms=1:jitter_ms=5:loss=0.01")
        assert topology.intra_ms == 1.0
        assert topology.jitter_ms == 5.0
        assert topology.loss_prob == 0.01

    def test_matrix(self):
        topology = NetworkTopology.parse("matrix:0,20;20,0")
        assert topology.kind is TopologyKind.MATRIX
        assert topology.latency_matrix(2) == ((0.0, 20.0), (20.0, 0.0))
        # Matrix placement: every site is its own datacenter.
        assert topology.placement(2) == (0, 1)

    def test_case_and_whitespace_insensitive(self):
        assert NetworkTopology.parse("  UNIFORM ").is_uniform
        assert NetworkTopology.parse("DCS:2x2:RTT_MS=40").rtt_ms == 40.0

    @pytest.mark.parametrize("bad", [
        "",
        "nonsense",
        "uniform:extra",
        "dcs",
        "dcs:2x2",                      # missing rtt_ms
        "dcs:2:rtt_ms=40",              # not DxS
        "dcs:2x2x2:rtt_ms=40",
        "dcs:ax2:rtt_ms=40",
        "dcs:2x2:rtt_ms=abc",
        "dcs:2x2:rtt_ms=-40",
        "dcs:0x2:rtt_ms=40",
        "dcs:2x2:rtt_ms=40:bogus=1",    # unknown option
        "dcs:2x2:rtt_ms=40:loss=1.5",   # loss out of range
        "matrix:",
        "matrix:0,20;20",               # ragged row
        "matrix:0,20;20,5",             # nonzero diagonal
        "matrix:0,-1;1,0",              # negative latency
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError, match="topology"):
            NetworkTopology.parse(bad)

    def test_error_lists_accepted_forms(self):
        with pytest.raises(ValueError) as err:
            NetworkTopology.parse("bogus")
        message = str(err.value)
        assert "uniform" in message
        assert "dcs:" in message
        assert "matrix:" in message


class TestSpecResolution:
    def test_check_num_sites_mismatch(self):
        topology = NetworkTopology.parse("dcs:2x2:rtt_ms=40")
        with pytest.raises(ValueError, match="num_sites=8"):
            topology.check_num_sites(8)

    def test_matrix_size_mismatch(self):
        topology = NetworkTopology.parse("matrix:0,20;20,0")
        with pytest.raises(ValueError, match="covers 2 sites"):
            topology.placement(3)

    def test_dcs_latency_matrix(self):
        topology = NetworkTopology.parse("dcs:2x2:rtt_ms=40:intra_ms=1")
        matrix = topology.latency_matrix(4)
        assert matrix[0][0] == 0.0      # self
        assert matrix[0][1] == 1.0      # intra-DC
        assert matrix[0][2] == 20.0     # cross-DC one-way = rtt / 2
        assert matrix[2][1] == 20.0

    def test_describe_round_trip(self):
        topology = NetworkTopology.parse("dcs:3x2:rtt_ms=100:loss=0.05")
        described = topology.describe()
        assert "3 DCs x 2 sites" in described
        assert "loss=0.05" in described


# ----------------------------------------------------------------------
# The WAN wire
# ----------------------------------------------------------------------
class TestCostModels:
    def test_lan_switch_is_free(self):
        # ``uniform`` is the paper's free switch: no wire is built, and a
        # remote message pays only the MsgCPU at each end.
        system = _wan_system("uniform")
        assert system.cost_model is None
        assert system.network.cost is None
        txn = FakeTransaction()
        sender = FakeAgent(system, 0, txn)
        receiver = FakeAgent(system, 1, txn)
        done = _send(system, Message(MessageKind.PREPARE, sender, receiver,
                                     txn.txn_id, 0))
        arrived = []

        def consumer(env):
            yield receiver.inbox.get()
            arrived.append(env.now)

        system.env.process(consumer(system.env))
        system.env.run()
        assert done == [5.0]
        assert arrived == [10.0]
        assert system.network.intra_dc_messages == 0
        assert system.network.cross_dc_messages == 0

    def test_build_cost_model_dispatch(self):
        # The system builds a wire only for a spec that places sites in
        # datacenters; no topology and ``uniform`` both build none.
        params = ModelParams(num_sites=8)
        assert DistributedSystem(
            params, create_protocol("2PC")).cost_model is None
        for spec, wire in (("uniform", type(None)),
                           ("dcs:2x4:rtt_ms=40", WanTopology),
                           ("matrix:0,20;20,0", WanTopology)):
            num_sites = 2 if spec.startswith("matrix") else 8
            system = _wan_system(spec, num_sites=num_sites)
            assert type(system.cost_model) is wire, spec
            assert system.network.cost is system.cost_model, spec

    def test_wan_delay_and_classification(self):
        wan = WanTopology(NetworkTopology.parse("dcs:2x2:rtt_ms=40"),
                          4, RandomStreams(1))
        assert wan.placement == (0, 0, 1, 1)
        assert wan.wire_delay(0, 1) == 0.0    # intra-DC default
        assert wan.wire_delay(0, 2) == 20.0   # one-way = rtt / 2
        assert not wan.is_cross_dc(0, 1)
        assert wan.is_cross_dc(1, 2)

    def test_jitter_only_on_cross_dc_links(self):
        spec = NetworkTopology.parse("dcs:2x2:rtt_ms=40:jitter_ms=5")
        wan = WanTopology(spec, 4, RandomStreams(1))
        assert wan.wire_delay(0, 1) == 0.0
        cross = [wan.wire_delay(0, 2) for _ in range(20)]
        assert all(delay > 20.0 for delay in cross)
        assert len(set(cross)) > 1  # jitter varies draw to draw

    def test_jitter_streams_are_per_link_and_seeded(self):
        spec = NetworkTopology.parse("dcs:2x2:rtt_ms=40:jitter_ms=5")
        one = WanTopology(spec, 4, RandomStreams(7))
        two = WanTopology(spec, 4, RandomStreams(7))
        # Same seed, same link -> same draws; draws on one link do not
        # shift another link's stream.
        first = [one.wire_delay(0, 2) for _ in range(5)]
        two.wire_delay(1, 3)  # extra draw on a *different* link
        assert [two.wire_delay(0, 2) for _ in range(5)] == first

    def test_loss_only_on_cross_dc_links(self):
        spec = NetworkTopology.parse("dcs:2x2:rtt_ms=40:loss=0.5")
        wan = WanTopology(spec, 4, RandomStreams(1))
        assert not any(wan.lose(0, 1) for _ in range(50))
        assert any(wan.lose(0, 2) for _ in range(50))


# ----------------------------------------------------------------------
# Network integration: remote sends pay the wire
# ----------------------------------------------------------------------
def _wan_system(spec="matrix:0,20;20,0", num_sites=2, **overrides):
    params = ModelParams(num_sites=num_sites, dist_degree=1, mpl=1,
                         db_size=200 * max(1, num_sites // 2),
                         cohort_size=2,
                         network_topology=NetworkTopology.parse(spec),
                         **overrides)
    return DistributedSystem(params, create_protocol("2PC"))


class TestNetworkWithTopology:
    def test_remote_message_pays_wire_latency(self):
        system = _wan_system()
        txn = FakeTransaction()
        sender = FakeAgent(system, 0, txn)
        receiver = FakeAgent(system, 1, txn)
        done = _send(system, Message(MessageKind.PREPARE, sender, receiver,
                                     txn.txn_id, 0))
        arrived = []

        def consumer(env):
            yield receiver.inbox.get()
            arrived.append(env.now)

        system.env.process(consumer(system.env))
        system.env.run()
        # 5ms send CPU; 20ms on the wire; 5ms receive CPU.  The sender
        # is free after its own CPU work -- wire time is not its problem.
        assert done == [5.0]
        assert arrived == [30.0]

    def test_cross_dc_counters_and_events(self):
        system = _wan_system("dcs:2x2:rtt_ms=40", num_sites=4)
        assert isinstance(system.cost_model, WanTopology)
        assert system.network.cost is system.cost_model
        txn = FakeTransaction()
        sender = FakeAgent(system, 0, txn)
        local_peer = FakeAgent(system, 1, txn)     # same DC
        remote_peer = FakeAgent(system, 2, txn)    # other DC
        log = EventLog(kinds=(EventKind.MSG_SEND,
                              EventKind.MSG_DELIVER)).attach(system.bus)
        _send(system, Message(MessageKind.PREPARE, sender, local_peer,
                              txn.txn_id, 0))
        _send(system, Message(MessageKind.PREPARE, sender, remote_peer,
                              txn.txn_id, 0))
        system.env.run()
        assert system.network.intra_dc_messages == 1
        assert system.network.cross_dc_messages == 1
        assert txn.messages_cross_dc == 1
        sends = log.of_kind(EventKind.MSG_SEND)
        by_link = {e.link: e for e in sends}
        assert by_link[(0, 1)].cross_dc is False
        assert by_link[(0, 1)].delay_ms == 0.0
        assert by_link[(0, 2)].cross_dc is True
        assert by_link[(0, 2)].delay_ms == 20.0
        delivers = log.of_kind(EventKind.MSG_DELIVER)
        assert {e.link for e in delivers} == {(0, 1), (0, 2)}

    def test_topology_loss_drops_after_send_cpu(self):
        system = _wan_system("dcs:1x2:rtt_ms=0", num_sites=2)
        # Force certain loss on the link by patching the model.
        system.cost_model._loss_prob = 1.0
        system.cost_model.placement = (0, 1)  # make the link cross-DC
        system.cost_model._latency = ((0.0, 0.0), (0.0, 0.0))
        txn = FakeTransaction()
        sender = FakeAgent(system, 0, txn)
        receiver = FakeAgent(system, 1, txn)
        log = EventLog(kinds=(EventKind.MSG_DROP,)).attach(system.bus)
        _send(system, Message(MessageKind.PREPARE, sender, receiver,
                              txn.txn_id, 0))
        system.env.run()
        assert len(receiver.inbox) == 0
        assert system.network.messages_dropped == 1
        assert [e.reason for e in log.events] == ["topology_loss"]


# ----------------------------------------------------------------------
# inquiry_round_trip: local events (satellite) and wire latency
# ----------------------------------------------------------------------
class TestInquiryRoundTrip:
    def _run_inquiry(self, system, agent, remote_site):
        done = []

        def driver(env):
            yield from system.network.inquiry_round_trip(agent, remote_site)
            done.append(env.now)

        system.env.process(driver(system.env))
        system.env.run()
        return done

    def test_local_inquiry_publishes_events(self):
        """Regression: the local path used to bump ``local_messages``
        without publishing MSG_SEND/MSG_DELIVER, undercounting recovery
        traffic in traces."""
        params = ModelParams(num_sites=2, dist_degree=1, mpl=1,
                             db_size=200, cohort_size=2)
        system = DistributedSystem(params, create_protocol("2PC"))
        txn = FakeTransaction()
        agent = FakeAgent(system, 0, txn)
        log = EventLog(kinds=(EventKind.MSG_SEND,
                              EventKind.MSG_DELIVER)).attach(system.bus)
        self._run_inquiry(system, agent, system.sites[0])
        assert system.network.local_messages == 2
        sends = log.of_kind(EventKind.MSG_SEND)
        assert [e.message.kind for e in sends] == [MessageKind.STATUS_INQ,
                                                   MessageKind.STATUS_ACK]
        assert all(e.local for e in sends)
        assert all(e.link == (0, 0) for e in sends)
        assert len(log.of_kind(EventKind.MSG_DELIVER)) == 2

    def test_remote_inquiry_timing_without_topology(self):
        """The historical cost: four MsgCPU services, no wire."""
        params = ModelParams(num_sites=2, dist_degree=1, mpl=1,
                             db_size=200, cohort_size=2)
        system = DistributedSystem(params, create_protocol("2PC"))
        txn = FakeTransaction()
        agent = FakeAgent(system, 0, txn)
        done = self._run_inquiry(system, agent, system.sites[1])
        assert done == [20.0]
        assert txn.messages_commit == 2

    @pytest.mark.parametrize("rtt_ms", [0.0, 40.0, 100.0])
    def test_remote_inquiry_pays_rtt(self, rtt_ms):
        """Recovery time scales with the link RTT under a WAN model."""
        one_way = rtt_ms / 2
        system = _wan_system(f"matrix:0,{one_way};{one_way},0",
                             num_sites=2)
        txn = FakeTransaction()
        agent = FakeAgent(system, 0, txn)
        done = self._run_inquiry(system, agent, system.sites[1])
        # Four MsgCPU services plus one full round trip on the wire.
        assert done == [20.0 + rtt_ms]
        assert txn.messages_cross_dc == 2
        assert system.network.cross_dc_messages == 2

    def test_remote_inquiry_events_carry_link_and_delay(self):
        system = _wan_system("matrix:0,20;20,0", num_sites=2)
        txn = FakeTransaction()
        agent = FakeAgent(system, 0, txn)
        log = EventLog(kinds=(EventKind.MSG_SEND,)).attach(system.bus)
        self._run_inquiry(system, agent, system.sites[1])
        links = [e.link for e in log.events]
        assert links == [(0, 1), (1, 0)]  # INQ out, ACK back
        assert all(e.delay_ms == 20.0 for e in log.events)
        assert all(e.cross_dc for e in log.events)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_dcs_site_count_must_match(self):
        with pytest.raises(ValueError, match="num_sites=8"):
            ModelParams(network_topology=NetworkTopology.parse(
                "dcs:2x2:rtt_ms=40"))

    def test_centralized_rejects_multi_dc(self):
        with pytest.raises(ValueError, match="CENT"):
            ModelParams(topology=Topology.CENTRALIZED,
                        network_topology=NetworkTopology.parse(
                            "dcs:2x4:rtt_ms=40"))

    def test_centralized_allows_uniform(self):
        params = ModelParams(topology=Topology.CENTRALIZED,
                             network_topology=NetworkTopology.parse(
                                 "uniform"))
        assert params.network_topology.is_uniform

    def test_prefer_local_needs_multi_dc_topology(self):
        with pytest.raises(ValueError, match="prefer_local_cohorts"):
            ModelParams(prefer_local_cohorts=True)
        with pytest.raises(ValueError, match="prefer_local_cohorts"):
            ModelParams(prefer_local_cohorts=True,
                        network_topology=NetworkTopology.parse("uniform"))

    def test_prefer_local_with_dcs_is_valid(self):
        params = ModelParams(
            prefer_local_cohorts=True,
            network_topology=NetworkTopology.parse("dcs:2x4:rtt_ms=40"))
        assert params.prefer_local_cohorts


# ----------------------------------------------------------------------
# Placement-aware workload
# ----------------------------------------------------------------------
class TestPreferLocalCohorts:
    def test_cohorts_stay_in_the_masters_dc(self):
        params = ModelParams(
            dist_degree=3,
            network_topology=NetworkTopology.parse("dcs:2x4:rtt_ms=40"),
            prefer_local_cohorts=True)
        system = DistributedSystem(params, create_protocol("2PC"))
        placement = params.network_topology.placement(params.num_sites)
        for origin in range(params.num_sites):
            spec = system.workload.generate(origin)
            dcs = {placement[a.site_id] for a in spec.accesses}
            # dist_degree=3 fits inside one 4-site DC entirely.
            assert dcs == {placement[origin]}

    def test_spills_to_remote_dcs_when_local_exhausted(self):
        params = ModelParams(
            dist_degree=6, cohort_size=3,
            network_topology=NetworkTopology.parse("dcs:2x4:rtt_ms=40"),
            prefer_local_cohorts=True)
        system = DistributedSystem(params, create_protocol("2PC"))
        placement = params.network_topology.placement(params.num_sites)
        spec = system.workload.generate(0)
        home = placement[0]
        local = [a for a in spec.accesses if placement[a.site_id] == home]
        remote = [a for a in spec.accesses if placement[a.site_id] != home]
        # All 4 same-DC sites used before any remote one.
        assert len(local) == 4
        assert len(remote) == 2
        sites = [a.site_id for a in spec.accesses]
        assert len(set(sites)) == len(sites)


# ----------------------------------------------------------------------
# End-to-end: byte-identity, metrics, soak streams
# ----------------------------------------------------------------------
def _as_plain(result):
    return json.loads(json.dumps(dataclasses.asdict(result)))


class TestEndToEnd:
    def test_uniform_topology_is_byte_identical(self):
        """``uniform`` is the paper's switch: it must not perturb
        trajectories."""
        baseline = repro.simulate("2PC", mpl=2, measured_transactions=80)
        uniform = repro.simulate(
            "2PC", mpl=2, measured_transactions=80,
            network_topology=NetworkTopology.parse("uniform"))
        assert _as_plain(baseline) == _as_plain(uniform)

    def test_wan_slows_commits_and_reports_round_trips(self):
        captured = []
        lan = repro.simulate("2PC", mpl=2, measured_transactions=80)
        wan = repro.simulate(
            "2PC", mpl=2, measured_transactions=80,
            network_topology=NetworkTopology.parse("dcs:2x4:rtt_ms=40"),
            on_system=captured.append)
        assert wan.response_time_ms > lan.response_time_ms
        system = captured[0]
        assert system.network.cross_dc_messages > 0
        assert system.metrics.cross_dc_round_trips_per_commit() > 0
        # Remote split covers every remote message.
        assert (system.network.cross_dc_messages
                + system.network.intra_dc_messages
                == system.network.messages_sent)

    def test_wan_trajectories_are_reproducible(self):
        kwargs = dict(mpl=2, measured_transactions=60,
                      network_topology=NetworkTopology.parse(
                          "dcs:2x4:rtt_ms=40:jitter_ms=3"))
        one = repro.simulate("2PC", **kwargs)
        two = repro.simulate("2PC", **kwargs)
        assert _as_plain(one) == _as_plain(two)

    def test_metrics_checkpoint_covers_cross_dc(self):
        from repro.metrics import MetricsCollector
        assert "cross_dc_messages" in MetricsCollector._CHECKPOINT_ATTRS

    def test_topology_streams_visible_to_soak_checkpoints(self):
        """Per-link RNG streams live in system.streams, so the soak
        capture/restore path covers them with no extra plumbing."""
        captured = []
        repro.simulate(
            "2PC", mpl=2, measured_transactions=40,
            network_topology=NetworkTopology.parse(
                "dcs:2x4:rtt_ms=40:jitter_ms=3"),
            on_system=captured.append)
        state = captured[0].streams.capture_state()
        link_streams = [name for name in state
                        if name.startswith("topology-link-")]
        assert link_streams, "jitter draws must use dedicated substreams"
