"""Tests for FCFS, priority, and infinite resources, and the Store."""

import pytest

from repro.sim import (
    Environment,
    InfiniteServer,
    Interrupt,
    PriorityResource,
    Resource,
    Store,
)
from repro.sim.resources import PRIORITY_DATA, PRIORITY_MESSAGE


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_single_server_serializes_requests():
    env = Environment()
    disk = Resource(env, capacity=1, name="disk")
    finish = []

    def job(env, tag):
        yield disk.claim(10.0)
        finish.append((tag, env.now))

    env.process(job(env, "a"))
    env.process(job(env, "b"))
    env.process(job(env, "c"))
    env.run()
    assert finish == [("a", 10.0), ("b", 20.0), ("c", 30.0)]


def test_multi_server_runs_in_parallel():
    env = Environment()
    cpu = Resource(env, capacity=2)
    finish = []

    def job(env, tag):
        yield cpu.claim(10.0)
        finish.append((tag, env.now))

    for tag in "abc":
        env.process(job(env, tag))
    env.run()
    assert finish == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_fcfs_order_preserved():
    env = Environment()
    disk = Resource(env, capacity=1)
    order = []

    def job(env, tag, arrival):
        yield env.timeout(arrival)
        yield disk.claim(5.0)
        order.append(tag)

    env.process(job(env, "late", 2.0))
    env.process(job(env, "early", 1.0))
    env.process(job(env, "first", 0.0))
    env.run()
    assert order == ["first", "early", "late"]


def test_priority_resource_serves_messages_first():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    order = []

    def data_job(env, tag, arrival):
        yield env.timeout(arrival)
        yield cpu.claim(10.0, priority=PRIORITY_DATA)
        order.append(tag)

    def message_job(env, tag, arrival):
        yield env.timeout(arrival)
        yield cpu.claim(1.0, priority=PRIORITY_MESSAGE)
        order.append(tag)

    # d1 occupies the CPU at t=0; d2 and m1 queue while d1 runs.
    env.process(data_job(env, "d1", 0.0))
    env.process(data_job(env, "d2", 1.0))
    env.process(message_job(env, "m1", 2.0))
    env.run()
    assert order == ["d1", "m1", "d2"]


def test_priority_resource_is_non_preemptive():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    log = []

    def data_job(env):
        yield cpu.claim(10.0, priority=PRIORITY_DATA)
        log.append(("data-done", env.now))

    def message_job(env):
        yield env.timeout(1.0)
        yield cpu.claim(1.0, priority=PRIORITY_MESSAGE)
        log.append(("msg-done", env.now))

    env.process(data_job(env))
    env.process(message_job(env))
    env.run()
    # Message arrives at t=1 but data job runs to completion at t=10.
    assert log == [("data-done", 10.0), ("msg-done", 11.0)]


def test_priority_fcfs_within_class():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    order = []

    def msg(env, tag, arrival):
        yield env.timeout(arrival)
        yield cpu.claim(1.0, priority=PRIORITY_MESSAGE)
        order.append(tag)

    def blocker(env):
        yield cpu.claim(5.0, priority=PRIORITY_DATA)

    env.process(blocker(env))
    env.process(msg(env, "m1", 1.0))
    env.process(msg(env, "m2", 2.0))
    env.process(msg(env, "m3", 3.0))
    env.run()
    assert order == ["m1", "m2", "m3"]


def test_release_of_waiting_request_withdraws_it():
    env = Environment()
    disk = Resource(env, capacity=1)
    log = []

    def holder(env):
        yield disk.claim(10.0)
        log.append(("holder-done", env.now))

    def canceller(env):
        yield env.timeout(1.0)
        req = disk.claim(5.0)
        yield env.timeout(1.0)
        disk.release(req)  # withdraw while still queued
        log.append(("cancelled", env.now))

    def other(env):
        yield env.timeout(2.0)
        yield disk.claim(5.0)
        log.append(("other-done", env.now))

    env.process(holder(env))
    env.process(canceller(env))
    env.process(other(env))
    env.run()
    # "other" must get the server at t=10 (canceller stepped aside).
    assert ("other-done", 15.0) in log


def test_interrupt_while_queued_releases_claim():
    env = Environment()
    disk = Resource(env, capacity=1)
    log = []

    def holder(env):
        yield disk.claim(10.0)

    def victim(env):
        try:
            yield disk.claim(5.0)
        except Interrupt:
            log.append("victim-interrupted")

    def other(env):
        yield env.timeout(2.0)
        yield disk.claim(5.0)
        log.append(("other-done", env.now))

    env.process(holder(env))
    v = env.process(victim(env))

    def attacker(env):
        yield env.timeout(3.0)
        v.interrupt()

    env.process(attacker(env))
    env.process(other(env))
    env.run()
    assert "victim-interrupted" in log
    assert ("other-done", 15.0) in log


def test_interrupt_while_in_service_frees_server():
    env = Environment()
    disk = Resource(env, capacity=1)
    log = []

    def victim(env):
        try:
            yield disk.claim(100.0)
        except Interrupt:
            log.append(("victim-out", env.now))

    def other(env):
        yield env.timeout(1.0)
        yield disk.claim(5.0)
        log.append(("other-done", env.now))

    v = env.process(victim(env))

    def attacker(env):
        yield env.timeout(2.0)
        v.interrupt()

    env.process(attacker(env))
    env.process(other(env))
    env.run()
    assert log == [("victim-out", 2.0), ("other-done", 7.0)]


def test_utilization_accounting():
    env = Environment()
    disk = Resource(env, capacity=1)

    def job(env):
        yield disk.claim(5.0)

    env.process(job(env))
    env.run(until=10.0)
    assert disk.utilization(10.0) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# One heap entry per claim.  ``env._eid`` counts every schedule, so the
# counts below are exact.
# ----------------------------------------------------------------------
def test_uncontended_serve_pushes_exactly_one_entry():
    env = Environment()
    disk = Resource(env)
    before = env._eid
    request = disk.claim(5.0)
    assert env._eid - before == 1
    # The one entry is the end of service, not a grant at "now".
    assert [when for when, _, _ in env._queue] == [5.0]
    assert request.triggered and disk.in_service == 1


def test_queued_serve_pushes_one_entry_at_its_grant():
    env = Environment()
    disk = Resource(env)
    log = []

    def job(tag, duration):
        yield disk.claim(duration)
        log.append((tag, env.now))

    env.process(job("a", 10.0))
    env.process(job("b", 5.0))
    env.run(until=0.0)
    # Two bootstraps and a's claim; b waits without a heap entry.
    assert env._eid == 3
    assert disk.queue_length == 1
    env.run(until=10.0)
    # a's release grants b at once: one entry, for b's end of service
    # at 10 + 5.  Neither finished process scheduled a completion.
    assert env._eid == 4
    assert [when for when, _, _ in env._queue] == [15.0]
    assert (disk.in_service, disk.queue_length) == (1, 0)
    env.run()
    assert log == [("a", 10.0), ("b", 15.0)]
    assert env._eid == 4


def _interrupt_the_victim(jobs):
    """Claim one disk for each (tag, duration) of ``jobs``, in order at
    t=0, and interrupt the claim tagged "victim" at t=4."""
    env = Environment()
    disk = Resource(env)
    log = []

    def job(tag, duration):
        try:
            yield disk.claim(duration)
            log.append((tag, "done", env.now))
        except Interrupt:
            log.append((tag, "interrupted", env.now))

    def attacker(victim):
        yield env.timeout(4.0)
        victim.interrupt()

    procs = {tag: env.process(job(tag, duration)) for tag, duration in jobs}
    env.process(attacker(procs["victim"]))
    env.run()
    return disk, log


def test_claim_interrupted_while_queued_withdraws():
    disk, log = _interrupt_the_victim(
        [("holder", 10.0), ("victim", 5.0), ("next", 3.0)])
    # "next" starts when the holder releases, not when the victim left.
    assert log == [("victim", "interrupted", 4.0),
                   ("holder", "done", 10.0), ("next", "done", 13.0)]
    assert (disk.in_service, disk.queue_length) == (0, 0)
    assert disk._served == 2  # the withdrawn claim was never served


def test_claim_interrupted_in_service_frees_the_server_at_once():
    disk, log = _interrupt_the_victim([("victim", 100.0), ("next", 3.0)])
    # The victim frees the disk at t=4 and "next" starts then.
    assert log == [("victim", "interrupted", 4.0), ("next", "done", 7.0)]
    assert (disk.in_service, disk.queue_length) == (0, 0)
    assert disk._served == 2


def test_interrupted_infinite_server_claim_counts_no_service():
    env = Environment()
    server = InfiniteServer(env)
    log = []

    def job(tag, duration):
        try:
            yield server.claim(duration)
            log.append((tag, "done", env.now))
        except Interrupt:
            log.append((tag, "interrupted", env.now))

    victim = env.process(job("victim", 10.0))
    env.process(job("other", 3.0))

    def attacker():
        yield env.timeout(4.0)
        victim.interrupt()

    env.process(attacker())
    env.run()
    assert log == [("other", "done", 3.0), ("victim", "interrupted", 4.0)]
    # Its end of service still pops at t=10, but counts nothing.
    assert env.now == 10.0
    assert (server._served, server.busy_snapshot()) == (1, 3.0)


def test_priority_claim_interrupted_while_queued_keeps_a_valid_heap():
    env = Environment()
    cpu = PriorityResource(env)
    log = []
    procs = {}
    claims = {}

    def job(tag, priority, arrival, duration):
        yield env.timeout(arrival)
        claims[tag] = cpu.claim(duration, priority)
        try:
            yield claims[tag]
            log.append((tag, env.now))
        except Interrupt:
            log.append((tag, "interrupted"))

    for tag, priority, arrival, duration in [
            ("blocker", PRIORITY_DATA, 0.0, 10.0),
            ("d1", PRIORITY_DATA, 1.0, 2.0),
            ("m1", PRIORITY_MESSAGE, 2.0, 2.0),
            ("d2", PRIORITY_DATA, 3.0, 2.0),
            ("m2", PRIORITY_MESSAGE, 4.0, 2.0),
            ("m3", PRIORITY_MESSAGE, 5.0, 2.0)]:
        procs[tag] = env.process(job(tag, priority, arrival, duration))

    def attacker():
        yield env.timeout(6.0)
        procs["m1"].interrupt()

    env.process(attacker())
    env.run(until=6.0)
    queue = cpu._queue
    tag_of = {claim: tag for tag, claim in claims.items()}
    assert sorted(tag_of[req] for _, _, req in queue) == [
        "d1", "d2", "m2", "m3"]
    assert all(queue[(i - 1) // 2] <= queue[i] for i in range(1, len(queue)))
    env.run()
    # The next message-class claim, m2, starts when the blocker ends.
    assert log == [("m1", "interrupted"), ("blocker", 10.0), ("m2", 12.0),
                   ("m3", 14.0), ("d1", 16.0), ("d2", 18.0)]
    assert cpu._served == 5


@pytest.mark.parametrize("kind", [Resource, PriorityResource])
def test_statistics_of_two_jobs(kind):
    """Job a holds the single server over [0, 4); job b arrives at t=1,
    queues until 4 and is served over [4, 6).  Over 10 ms the server is
    busy 6 ms and one claim waits 3 ms."""
    env = Environment()
    server = kind(env, capacity=1)

    def job(arrival, duration):
        yield env.timeout(arrival)
        yield server.claim(duration)

    env.process(job(0.0, 4.0))
    env.process(job(1.0, 2.0))
    env.run(until=10.0)
    assert server.utilization(10.0) == pytest.approx(0.6)
    assert server.mean_queue_length(10.0) == pytest.approx(0.3)
    assert server._served == 2


def test_serve_rejects_a_negative_duration():
    env = Environment()
    disk = Resource(env)
    with pytest.raises(ValueError):
        disk.claim(-1.0)
    assert (disk.in_service, env._eid) == (0, 0)


def test_infinite_server_never_queues():
    env = Environment()
    server = InfiniteServer(env)
    finish = []

    def job(env, tag):
        yield server.claim(10.0)
        finish.append((tag, env.now))

    for tag in "abcde":
        env.process(job(env, tag))
    env.run()
    assert all(t == 10.0 for _, t in finish)
    assert len(finish) == 5
    assert server.queue_length == 0
    assert server.utilization(10.0) == 0.0


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    store.put("x")
    store.put("y")
    store.put("z")
    env.process(consumer(env))
    env.run()
    assert got == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(4.0)
        store.put("late-item")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("late-item", 4.0)]


def test_store_len_counts_buffered_items():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))

    def producer(env):
        yield env.timeout(1.0)
        store.put("a")
        store.put("b")

    env.process(producer(env))
    env.run()
    assert got == [("first", "a"), ("second", "b")]
