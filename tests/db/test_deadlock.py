"""Unit tests for the wait-for graph and deadlock resolution."""

from repro.db.deadlock import WaitForGraph
from repro.db.locks import LockManager, LockMode

from tests.db.conftest import FakeCohort, FakeTransaction, acquire_async, acquire_now


class _Key:
    """Stand-in for a LockRequest (the WFG only uses it as a dict key)."""


class TestEdgeMaintenance:
    def test_set_and_clear_edges(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a, b = FakeTransaction(), FakeTransaction()
        key = _Key()
        wfg.set_edges(key, a, {b})
        assert wfg.blockers_of(a) == {b}
        wfg.clear_edges(key)
        assert wfg.blockers_of(a) == set()

    def test_self_edges_ignored(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a, b = FakeTransaction(), FakeTransaction()
        key = _Key()
        wfg.set_edges(key, a, {a, b})
        assert wfg.blockers_of(a) == {b}

    def test_set_edges_replaces_previous(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a, b, c = FakeTransaction(), FakeTransaction(), FakeTransaction()
        key = _Key()
        wfg.set_edges(key, a, {b})
        wfg.set_edges(key, a, {c})
        assert wfg.blockers_of(a) == {c}

    def test_multiple_requests_same_edge_counted(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a, b = FakeTransaction(), FakeTransaction()
        key1, key2 = _Key(), _Key()
        wfg.set_edges(key1, a, {b})
        wfg.set_edges(key2, a, {b})
        wfg.clear_edges(key1)
        assert wfg.blockers_of(a) == {b}  # second request still waits
        wfg.clear_edges(key2)
        assert wfg.blockers_of(a) == set()

    def test_empty_blockers_create_no_edges(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a = FakeTransaction()
        wfg.set_edges(_Key(), a, set())
        assert wfg.num_waiting == 0


class TestCycleDetection:
    def test_two_cycle_detected_youngest_aborted(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        old = FakeTransaction(submit_time=1.0)
        young = FakeTransaction(submit_time=2.0)
        wfg.set_edges(_Key(), old, {young})
        wfg.set_edges(_Key(), young, {old})
        victims = wfg.check_for_deadlock(young)
        assert victims == [young]
        assert recorder.victims == [young]
        assert wfg.deadlocks_found == 1

    def test_no_cycle_no_victim(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a, b, c = (FakeTransaction(submit_time=t) for t in (1.0, 2.0, 3.0))
        wfg.set_edges(_Key(), a, {b})
        wfg.set_edges(_Key(), b, {c})
        assert wfg.check_for_deadlock(a) == []
        assert recorder.victims == []

    def test_three_cycle_detected(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a = FakeTransaction(submit_time=1.0)
        b = FakeTransaction(submit_time=2.0)
        c = FakeTransaction(submit_time=3.0)
        wfg.set_edges(_Key(), a, {b})
        wfg.set_edges(_Key(), b, {c})
        wfg.set_edges(_Key(), c, {a})
        victims = wfg.check_for_deadlock(c)
        assert victims == [c]  # youngest

    def test_victim_tie_broken_by_txn_id(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a = FakeTransaction(submit_time=5.0)
        b = FakeTransaction(submit_time=5.0)
        wfg.set_edges(_Key(), a, {b})
        wfg.set_edges(_Key(), b, {a})
        victims = wfg.check_for_deadlock(a)
        # b was created later, so has the larger txn_id: the "youngest".
        assert victims == [b]

    def test_aborting_transactions_invisible(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a = FakeTransaction(submit_time=1.0)
        b = FakeTransaction(submit_time=2.0)
        b.aborting = True
        wfg.set_edges(_Key(), a, {b})
        wfg.set_edges(_Key(), b, {a})
        assert wfg.check_for_deadlock(a) == []

    def test_cycle_not_through_start_not_reported(self, recorder):
        """Immediate detection only needs cycles through the new waiter."""
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        a = FakeTransaction(submit_time=1.0)
        b = FakeTransaction(submit_time=2.0)
        c = FakeTransaction(submit_time=3.0)
        wfg.set_edges(_Key(), b, {c})
        wfg.set_edges(_Key(), c, {b})
        wfg.set_edges(_Key(), a, {b})
        assert wfg.check_for_deadlock(a) == []

    def test_multiple_cycles_through_start_all_resolved(self, recorder):
        wfg = WaitForGraph(on_victim=recorder.on_victim)
        hub = FakeTransaction(submit_time=1.0)
        spoke1 = FakeTransaction(submit_time=2.0)
        spoke2 = FakeTransaction(submit_time=3.0)
        wfg.set_edges(_Key(), hub, {spoke1, spoke2})
        wfg.set_edges(_Key(), spoke1, {hub})
        wfg.set_edges(_Key(), spoke2, {hub})
        victims = wfg.check_for_deadlock(hub)
        # Both spokes are younger than the hub; each cycle kills a spoke.
        assert set(victims) == {spoke1, spoke2}
        assert wfg.deadlocks_found == 2


class TestIntegrationWithLockManager:
    """Deadlocks arising from real lock-manager traffic.

    A transaction may have several cohorts; each cohort has at most one
    outstanding request (as in the real system).
    """

    def test_lock_cycle_triggers_victim(self, env, lock_manager, recorder):
        a1 = FakeCohort(submit_time=1.0)
        a2 = FakeCohort(txn=a1.txn)
        b1 = FakeCohort(submit_time=2.0)
        b2 = FakeCohort(txn=b1.txn)
        acquire_now(env, lock_manager, a1, 1, LockMode.UPDATE)
        acquire_now(env, lock_manager, b1, 2, LockMode.UPDATE)
        acquire_async(env, lock_manager, a2, 2, LockMode.UPDATE)
        assert recorder.victims == []
        acquire_async(env, lock_manager, b2, 1, LockMode.UPDATE)
        assert recorder.victims == [b1.txn]  # youngest in the cycle

    def test_fcfs_queue_edge_detects_indirect_cycle(self, env, lock_manager,
                                                    recorder):
        """A waiter behind another waiter effectively waits for it
        (strict FCFS), so cycles through queue order must be caught."""
        a = FakeCohort(submit_time=1.0)
        b1 = FakeCohort(submit_time=2.0)
        b2 = FakeCohort(txn=b1.txn)
        c1 = FakeCohort(submit_time=3.0)
        c2 = FakeCohort(txn=c1.txn)
        acquire_now(env, lock_manager, a, 1, LockMode.UPDATE)
        acquire_now(env, lock_manager, c1, 2, LockMode.UPDATE)
        # b queues on page 1 behind holder a.
        acquire_async(env, lock_manager, b1, 1, LockMode.UPDATE)
        # c queues on page 1 behind b (FCFS edge c->b), plus c holds 2.
        acquire_async(env, lock_manager, c2, 1, LockMode.UPDATE)
        assert recorder.victims == []
        # b requests page 2 held by c: cycle b->c->b via the queue edge.
        acquire_async(env, lock_manager, b2, 2, LockMode.UPDATE)
        assert recorder.victims, "queue-order cycle must be detected"

    def test_victim_edges_cleaned_after_finalize(self, env, lock_manager,
                                                 recorder, wfg):
        a1 = FakeCohort(submit_time=1.0)
        a2 = FakeCohort(txn=a1.txn)
        b1 = FakeCohort(submit_time=2.0)
        b2 = FakeCohort(txn=b1.txn)
        acquire_now(env, lock_manager, a1, 1, LockMode.UPDATE)
        acquire_now(env, lock_manager, b1, 2, LockMode.UPDATE)
        acquire_async(env, lock_manager, a2, 2, LockMode.UPDATE)
        acquire_async(env, lock_manager, b2, 1, LockMode.UPDATE)
        victim = recorder.victims[0]
        # Simulate the system's cleanup of the victim.
        for cohort in (b1, b2):
            lock_manager.finalize(cohort, committed=False)
        env.run(until=env.now)
        assert wfg.blockers_of(victim) == set()
        # The survivor must have been granted page 2.
        assert lock_manager.holders_of(2) == {a2: LockMode.UPDATE}

    def test_sibling_finalize_keeps_a_waiting_cohorts_edges(
            self, env, wfg):
        """A cohort that finalizes at one site (a UV NO vote, say) while
        its sibling still waits at another must leave the sibling's
        edges in the graph: a cycle through the sibling would otherwise
        go undetected for good."""
        site0, site1 = (LockManager(env, site_id, wfg) for site_id in (0, 1))
        holder = FakeCohort(submit_time=1.0)
        waiter = FakeCohort(submit_time=2.0)
        sibling = FakeCohort(txn=waiter.txn)
        acquire_now(env, site0, holder, 1, LockMode.UPDATE)
        acquire_now(env, site1, sibling, 1, LockMode.UPDATE)
        acquire_async(env, site0, waiter, 1, LockMode.UPDATE)
        site1.finalize(sibling, committed=False)
        assert wfg.blockers_of(waiter.txn) == {holder.txn}

    def test_no_false_deadlock_from_released_waiter(self, env, lock_manager,
                                                    recorder):
        """Granting the head waiter must clear its stale edges so later
        detections do not see ghosts."""
        a = FakeCohort(submit_time=1.0)
        b = FakeCohort(submit_time=2.0)
        acquire_now(env, lock_manager, a, 1, LockMode.UPDATE)
        done, _ = acquire_async(env, lock_manager, b, 1, LockMode.UPDATE)
        lock_manager.finalize(a, committed=True)
        env.run(until=env.now)
        assert done
        # b now holds page 1; a fresh conflicting request from a new txn
        # must simply wait, not trigger anything.
        c = FakeCohort(submit_time=3.0)
        acquire_async(env, lock_manager, c, 1, LockMode.UPDATE)
        assert recorder.victims == []

    def test_applier_waits_never_close_a_cycle(self, env, lock_manager,
                                                recorder, wfg):
        """Replica appliers of two committed transactions hold one copy
        each and wait for the other's: a transaction-level cycle that no
        agent is stuck in.  Agents outside the wait-for graph add no
        edges but still queue and count as lock waits."""
        class FakeApplier(FakeCohort):
            in_wait_for_graph = False

        a1 = FakeApplier(submit_time=1.0)
        a2 = FakeApplier(txn=a1.txn)
        b1 = FakeApplier(submit_time=2.0)
        b2 = FakeApplier(txn=b1.txn)
        acquire_now(env, lock_manager, a1, 1, LockMode.UPDATE)
        acquire_now(env, lock_manager, b1, 2, LockMode.UPDATE)
        a_done, _ = acquire_async(env, lock_manager, a2, 2, LockMode.UPDATE)
        b_done, _ = acquire_async(env, lock_manager, b2, 1, LockMode.UPDATE)
        assert recorder.victims == []
        assert wfg.num_waiting == 0
        assert lock_manager.waits == 2
        # Each applier releases its copy after the write: both drain.
        lock_manager.finalize(a1, committed=True)
        lock_manager.finalize(b1, committed=True)
        env.run(until=env.now)
        assert a_done and b_done

    def test_applier_wait_still_blocks_later_waiters(self, env,
                                                     lock_manager, wfg):
        """A waiter queued behind an applier waits for it (FCFS)."""
        class FakeApplier(FakeCohort):
            in_wait_for_graph = False

        holder = FakeCohort(submit_time=1.0)
        applier = FakeApplier(submit_time=2.0)
        later = FakeCohort(submit_time=3.0)
        acquire_now(env, lock_manager, holder, 1, LockMode.UPDATE)
        acquire_async(env, lock_manager, applier, 1, LockMode.UPDATE)
        acquire_async(env, lock_manager, later, 1, LockMode.UPDATE)
        assert wfg.num_waiting == 1
        assert set(wfg.blockers_of(later.txn)) == {holder.txn, applier.txn}
