"""Tests for the Unsolicited Vote protocol (paper Section 2.5)."""

import pytest

import repro
from repro.core.unsolicited_vote import UnsolicitedVote

from tests.core.conftest import run_small


class TestOverheads:
    def test_prepare_round_eliminated(self):
        """UV at DistDegree 3: 2 execution messages (votes replace the
        WORKDONEs), 6 commit messages, 7 forced writes -- two messages
        fewer than 2PC in total."""
        result = repro.simulate("UV", mpl=1, db_size=48000,
                                measured_transactions=60,
                                warmup_transactions=10)
        assert result.aborted == 0
        assert result.overheads.rounded() == (2, 7, 6)

    def test_total_messages_below_2pc(self):
        uv = repro.simulate("UV", mpl=1, db_size=48000,
                            measured_transactions=60)
        two_pc = repro.simulate("2PC", mpl=1, db_size=48000,
                                measured_transactions=60)

        def total(result):
            o = result.overheads
            return o.execution_messages + o.commit_messages

        # Two PREPARE messages eliminated, two votes merged into the
        # completion reports: four fewer messages on the wire.
        assert total(uv) == total(two_pc) - 4


class TestBehaviour:
    def test_commits_under_contention(self):
        result = run_small("UV", mpl=6, db_size=400, measured=300,
                           warmup=50)
        assert result.committed >= 300
        assert result.borrow_ratio == 0  # no lending, ever

    def test_surprise_aborts_handled(self):
        result = run_small("UV", surprise_abort_prob=0.10, measured=300,
                           warmup=50)
        assert result.aborts_by_reason.get("surprise_vote", 0) > 0

    def test_sequential_execution(self):
        result = run_small("UV", measured=60, warmup=10,
                           trans_type=repro.TransactionType.SEQUENTIAL)
        assert result.committed >= 60

    def test_early_prepared_state_lengthens_lock_holding(self):
        """UV cohorts hold update locks in the prepared state from the
        moment they finish work -- in a parallel transaction whose
        siblings are still executing, that is *longer* than 2PC's
        prepared window, so UV blocks at least as much as 2PC."""
        contended = dict(mpl=6, db_size=400, measured=300, warmup=50)
        uv = run_small("UV", **contended)
        two_pc = run_small("2PC", **contended)
        assert uv.block_ratio >= 0.9 * two_pc.block_ratio

    @pytest.mark.parametrize("protocol, mpl, surprise, seed", [
        ("EP", 3, 0.05, 3), ("UV", 6, 0.05, 3),
        ("EP", 6, 0.2, 1), ("UV", 3, 0.2, 4)])
    def test_surprise_aborts_leave_deadlocks_detectable(
            self, protocol, mpl, surprise, seed):
        """Regression: a cohort that votes NO aborts while its siblings
        still execute; its lock release used to drop the siblings'
        wait-for edges too, so a deadlock through one of them was never
        detected and the run ran out of events."""
        result = repro.simulate(protocol, mpl=mpl, seed=seed,
                                measured_transactions=150,
                                surprise_abort_prob=surprise)
        assert result.committed >= 150


class TestOptIncompatibility:
    def test_lending_subclass_rejected(self):
        """Paper Section 3.2: OPT must not combine with UV."""

        class OptimisticUV(UnsolicitedVote):
            lending = True

        with pytest.raises(TypeError, match="bounded abort chain"):
            OptimisticUV()

    def test_uv_itself_never_lends(self):
        protocol = repro.create_protocol("UV")
        assert not protocol.lending
