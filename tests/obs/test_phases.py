"""Per-phase commit latency breakdown: unit tests against synthetic
event streams, plus an end-to-end check on real simulations."""

import pytest

import repro
from repro.obs import EventBus, PhaseLatencyObserver
from repro.obs.events import (
    CommitPhase,
    PhaseTransition,
    TxnAbort,
    TxnCommit,
)


class _Txn:
    def __init__(self, txn_id=1, incarnation=0):
        self.txn_id = txn_id
        self.incarnation = incarnation
        self.name = f"T{txn_id}.{incarnation}"


def _drive(bus, txn, marks, outcome_time, committed=True):
    for phase, time in marks:
        bus.publish(PhaseTransition(time, txn, phase, "2PC"))
    if committed:
        bus.publish(TxnCommit(outcome_time, txn))
    else:
        bus.publish(TxnAbort(outcome_time, txn, "deadlock"))


class TestPhaseLatencyObserver:
    def test_phase_durations_span_to_next_mark(self):
        bus = EventBus()
        obs = PhaseLatencyObserver().attach(bus)
        _drive(bus, _Txn(), [(CommitPhase.EXECUTE, 0.0),
                             (CommitPhase.VOTE, 100.0),
                             (CommitPhase.DECIDE, 160.0),
                             (CommitPhase.ACK, 190.0)], 250.0)
        breakdown = obs.breakdown("2PC")
        assert breakdown == {"execute": 100.0, "vote": 60.0,
                             "decide": 30.0, "ack": 60.0}
        assert obs.committed == 1

    def test_missing_phase_contributes_no_sample(self):
        bus = EventBus()
        obs = PhaseLatencyObserver().attach(bus)
        # Presumed-commit shape: no ACK round on the commit path.
        _drive(bus, _Txn(), [(CommitPhase.EXECUTE, 0.0),
                             (CommitPhase.VOTE, 50.0),
                             (CommitPhase.DECIDE, 80.0)], 90.0)
        assert "ack" not in obs.breakdown("2PC")

    def test_aborted_incarnations_are_discarded(self):
        bus = EventBus()
        obs = PhaseLatencyObserver().attach(bus)
        txn = _Txn()
        _drive(bus, txn, [(CommitPhase.EXECUTE, 0.0)], 10.0,
               committed=False)
        assert obs.breakdown("2PC") == {}
        assert obs.committed == 0
        # The restarted incarnation commits and is measured cleanly.
        txn.incarnation = 1
        _drive(bus, txn, [(CommitPhase.EXECUTE, 20.0),
                          (CommitPhase.VOTE, 45.0)], 50.0)
        assert obs.breakdown("2PC") == {"execute": 25.0, "vote": 5.0}

    def test_means_aggregate_across_transactions(self):
        bus = EventBus()
        obs = PhaseLatencyObserver().attach(bus)
        _drive(bus, _Txn(1), [(CommitPhase.EXECUTE, 0.0)], 10.0)
        _drive(bus, _Txn(2), [(CommitPhase.EXECUTE, 0.0)], 30.0)
        assert obs.breakdown("2PC") == {"execute": 20.0}
        assert obs.stats["2PC"][CommitPhase.EXECUTE].count == 2

    def test_commit_without_marks_is_ignored(self):
        bus = EventBus()
        obs = PhaseLatencyObserver().attach(bus)
        bus.publish(TxnCommit(5.0, _Txn()))
        assert obs.committed == 0

    def test_detach_and_double_attach(self):
        bus = EventBus()
        obs = PhaseLatencyObserver().attach(bus)
        with pytest.raises(RuntimeError, match="already attached"):
            obs.attach(bus)
        obs.detach()
        _drive(bus, _Txn(), [(CommitPhase.EXECUTE, 0.0)], 10.0)
        assert obs.committed == 0

    def test_report_renders_all_phases(self):
        bus = EventBus()
        obs = PhaseLatencyObserver().attach(bus)
        _drive(bus, _Txn(), [(CommitPhase.EXECUTE, 0.0),
                             (CommitPhase.VOTE, 50.0)], 60.0)
        text = obs.report()
        assert "2PC" in text
        assert "execute" in text and "ack" in text
        assert "-" in text  # unsampled phases render as dashes


class TestOnRealSimulations:
    def test_2pc_has_all_four_phases(self):
        obs = PhaseLatencyObserver()
        result = repro.simulate(
            "2PC", measured_transactions=40, mpl=2,
            on_system=lambda system: obs.attach(system.bus))
        assert result.committed > 0
        breakdown = obs.breakdown("2PC")
        assert set(breakdown) == {"execute", "vote", "decide", "ack"}
        assert all(v > 0 for v in breakdown.values())
        # Execution dominates commit processing in the baseline model.
        assert breakdown["execute"] > breakdown["vote"]

    def test_presumed_commit_skips_the_ack_phase(self):
        obs = PhaseLatencyObserver()
        repro.simulate("PC", measured_transactions=40, mpl=2,
                       on_system=lambda system: obs.attach(system.bus))
        breakdown = obs.breakdown("PC")
        assert set(breakdown) == {"execute", "vote", "decide"}

    @pytest.mark.parametrize("protocol, phases", [
        ("UV", {"execute", "vote", "decide", "ack"}),
        ("EP", {"execute", "vote", "decide"})])
    def test_unsolicited_votes_book_the_decision_round(self, protocol,
                                                       phases):
        """UV and EP vote on their completion reports, yet their decision
        and ACK rounds are booked as such, not as voting (EP presumes
        commit, so it has no ACK round)."""
        obs = PhaseLatencyObserver()
        repro.simulate(protocol, measured_transactions=40, mpl=2,
                       on_system=lambda system: obs.attach(system.bus))
        assert set(obs.breakdown(protocol)) == phases

    def test_phase_sum_bounds_response_time(self):
        obs = PhaseLatencyObserver()
        result = repro.simulate(
            "2PC", measured_transactions=40, mpl=1,
            on_system=lambda system: obs.attach(system.bus))
        total = sum(obs.breakdown("2PC").values())
        # Response time includes restarts and queueing before launch,
        # so the per-incarnation phase sum cannot exceed it (at MPL 1
        # with no contention they are close).
        assert 0 < total <= result.response_time_ms + 1e-9
