"""Fault injector x network topology composition.

The cost model prices the *healthy* wire (per-link latency, stochastic
wire loss); the fault injector models the *unhealthy* one (injected
delay/loss, site crashes).  These tests pin the contract that
the two stack rather than replace each other.
"""

import pytest

from repro.config import ModelParams
from repro.core import create_protocol
from repro.db.messages import Message, MessageKind
from repro.db.system import DistributedSystem
from repro.db.topology import NetworkTopology
from repro.faults import FaultConfig, FaultPlan, RegionPlan
from repro.obs.events import EventKind
from repro.obs.recorder import EventLog
from repro.sim.rng import RandomStreams

from tests.db.conftest import FakeTransaction
from tests.db.test_network import FakeAgent, _send

SEED = 1234


def _system(topology, faults, num_sites=2, seed=SEED):
    params = ModelParams(num_sites=num_sites, dist_degree=1, mpl=1,
                         db_size=100 * num_sites, cohort_size=2,
                         network_topology=NetworkTopology.parse(topology))
    return DistributedSystem(params, create_protocol("2PC"), seed=seed,
                             faults=faults)


def test_injected_delay_stacks_on_topology_latency():
    """Total delivery delay = wire latency + injected delay, not either
    alone."""
    config = FaultConfig(region=RegionPlan.parse("delay:8"))
    system = _system("matrix:0,20;20,0", config)
    txn = FakeTransaction()
    sender = FakeAgent(system, 0, txn)
    receiver = FakeAgent(system, 1, txn)
    _send(system, Message(MessageKind.PREPARE, sender, receiver,
                          txn.txn_id, 0))
    arrived = []

    def consumer(env):
        yield receiver.inbox.get()
        arrived.append(env.now)

    system.env.process(consumer(system.env))
    system.env.run()
    # Reproduce the injector's own draw: same seed, same named stream.
    expected_injected = FaultPlan(config, RandomStreams(SEED),
                                  num_sites=2).message_delay()
    assert expected_injected > 0.0
    # 5ms send CPU + 20ms wire + injected delay + 5ms receive CPU.
    assert arrived == [pytest.approx(30.0 + expected_injected)]


def test_injected_delay_alone_skips_the_wire():
    """Same fault config without a WAN topology: only the injected part."""
    config = FaultConfig(region=RegionPlan.parse("delay:8"))
    params = ModelParams(num_sites=2, dist_degree=1, mpl=1, db_size=200,
                         cohort_size=2)
    system = DistributedSystem(params, create_protocol("2PC"), seed=SEED,
                               faults=config)
    txn = FakeTransaction()
    sender = FakeAgent(system, 0, txn)
    receiver = FakeAgent(system, 1, txn)
    _send(system, Message(MessageKind.PREPARE, sender, receiver,
                          txn.txn_id, 0))
    arrived = []

    def consumer(env):
        yield receiver.inbox.get()
        arrived.append(env.now)

    system.env.process(consumer(system.env))
    system.env.run()
    expected_injected = FaultPlan(config, RandomStreams(SEED),
                                  num_sites=2).message_delay()
    assert arrived == [pytest.approx(10.0 + expected_injected)]


def test_topology_and_injected_loss_both_drop():
    """With both loss planes armed, drops carry *both* reasons over a
    long enough stream of messages -- either plane can eat a message."""
    config = FaultConfig(region=RegionPlan.parse("loss:0.3"))
    system = _system("matrix:0,0;0,0:loss=0.3", config)
    log = EventLog(kinds=(EventKind.MSG_DROP,)).attach(system.bus)
    txn = FakeTransaction()
    sender = FakeAgent(system, 0, txn)
    receiver = FakeAgent(system, 1, txn)
    for _ in range(60):
        _send(system, Message(MessageKind.PREPARE, sender, receiver,
                              txn.txn_id, 0))
    system.env.run()
    reasons = {e.reason for e in log.events}
    assert reasons == {"topology_loss", "loss"}
    delivered = len(receiver.inbox)
    assert delivered + system.network.messages_dropped == 60
    # Stacked loss must drop more than either plane alone would on
    # average; with p=0.3 each, ~51% survive.  Deterministic per seed.
    assert 0 < delivered < 60


def test_inquiries_are_exempt_from_stochastic_loss():
    """Recovery inquiries are a reliable retried exchange: they pay wire
    delay but never stochastic loss (topology or injected)."""
    config = FaultConfig(region=RegionPlan.parse("loss:0.5"))
    system = _system("matrix:0,20;20,0:loss=0.5", config)
    txn = FakeTransaction()
    agent = FakeAgent(system, 0, txn)
    done = []

    def driver(env):
        for _ in range(10):
            yield from system.network.inquiry_round_trip(
                agent, system.sites[1])
        done.append(env.now)

    system.env.process(driver(system.env))
    system.env.run()
    assert system.network.messages_dropped == 0
    # Ten round trips, each 4 x 5ms MsgCPU + 40ms on the wire.
    assert done == [600.0]


def test_crashed_site_drops_in_flight_cross_dc_message():
    """A site that crashes while a cross-DC message is on the wire still
    eats it -- the drop happens *after* the link delay elapses."""
    config = FaultConfig(
        region=RegionPlan.parse("site_crash:1:at=7:for=10000"))
    system = _system("matrix:0,20;20,0", config)
    system.faults.start()
    log = EventLog(kinds=(EventKind.MSG_DROP,)).attach(system.bus)
    txn = FakeTransaction()
    sender = FakeAgent(system, 0, txn)
    receiver = FakeAgent(system, 1, txn)
    done = _send(system, Message(MessageKind.PREPARE, sender, receiver,
                                 txn.txn_id, 0))
    system.env.run(until=100.0)
    # Sender finished its CPU at 5ms, the receiver crashed at 7ms, and
    # the message was still dropped only once the 20ms wire delay had
    # elapsed -- at t=25, not at crash time.
    assert done == [5.0]
    assert len(receiver.inbox) == 0
    drops = log.of_kind(EventKind.MSG_DROP)
    assert [e.reason for e in drops] == ["site_down"]
    assert drops[0].time == 25.0


def test_end_to_end_wan_run_with_faults_completes():
    """Smoke: a full simulation composing WAN topology + crash faults
    terminates and reports both planes' counters."""
    import repro
    from repro.faults import FaultConfig as FC

    captured = []
    result = repro.simulate(
        "PA", mpl=2, measured_transactions=60, warmup_transactions=0,
        seed=SEED,
        network_topology=NetworkTopology.parse(
            "dcs:2x4:rtt_ms=10:loss=0.01"),
        faults=FC(mttf_ms=200_000.0, mttr_ms=2_000.0),
        on_system=captured.append)
    system = captured[0]
    assert result.committed > 0
    assert system.network.cross_dc_messages > 0
    assert system.network.messages_dropped > 0  # wire loss at 1%
