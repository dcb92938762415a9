"""Remaining kernel edge cases: empty schedules, withdrawing a queued
claim, priority-ordering properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, PriorityResource, Resource
from repro.sim.engine import EmptySchedule
from repro.sim.resources import PRIORITY_DATA, PRIORITY_MESSAGE


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_resource_cancel_before_grant():
    env = Environment()
    disk = Resource(env, capacity=1)
    order = []

    def holder(env):
        yield disk.claim(10.0)
        order.append("holder")

    env.process(holder(env))
    env.run(until=env.now)  # let the holder claim the disk first
    req = disk.claim(1.0)
    assert not req.triggered
    disk.release(req)

    def other(env):
        yield disk.claim(1.0)
        order.append("other")

    env.process(other(env))
    env.run()
    # The cancelled request must not have consumed the grant.
    assert order == ["holder", "other"]


def test_priority_resource_cancel_from_heap():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    blocker = cpu.claim(1.0)
    assert blocker.triggered
    queued = cpu.claim(1.0, priority=PRIORITY_MESSAGE)
    assert not queued.triggered
    cpu.release(queued)
    assert cpu.queue_length == 0
    cpu.release(blocker)


@given(st.lists(st.tuples(st.sampled_from([PRIORITY_MESSAGE,
                                           PRIORITY_DATA]),
                          st.floats(min_value=0.5, max_value=5.0)),
                min_size=2, max_size=15))
@settings(max_examples=40, deadline=None)
def test_priority_classes_never_starve_messages(jobs):
    """Property: among jobs queued at the same instant behind a busy
    server, every message-class job is served before every data-class
    job (non-preemptive priority, FCFS within class)."""
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    completions = []

    def blocker(env):
        yield cpu.claim(1.0)

    def job(env, index, priority, duration):
        yield cpu.claim(duration, priority=priority)
        completions.append((index, priority))

    env.process(blocker(env))
    for index, (priority, duration) in enumerate(jobs):
        env.process(job(env, index, priority, duration))
    env.run()
    assert len(completions) == len(jobs)
    kinds = [priority for _, priority in completions]
    first_data = next((i for i, k in enumerate(kinds)
                       if k == PRIORITY_DATA), len(kinds))
    assert all(k == PRIORITY_DATA for k in kinds[first_data:])
    # FCFS within each class.
    msg_order = [i for i, p in completions if p == PRIORITY_MESSAGE]
    data_order = [i for i, p in completions if p == PRIORITY_DATA]
    assert msg_order == sorted(msg_order)
    assert data_order == sorted(data_order)


@given(st.integers(min_value=1, max_value=5),
       st.lists(st.floats(min_value=0.5, max_value=10.0),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_work_conservation(capacity, durations):
    """Property: a multi-server FCFS resource finishes all jobs no
    earlier than total_work/capacity and no later than serial time."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def job(env, duration):
        yield resource.claim(duration)

    for duration in durations:
        env.process(job(env, duration))
    env.run()
    total = sum(durations)
    assert env.now >= total / capacity - 1e-9
    assert env.now <= total + 1e-9
