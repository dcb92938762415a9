"""Tests for process lifecycle and interrupts."""

import gc

import pytest

from repro.sim import Environment, Interrupt


def test_process_is_alive_until_finished():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_name_defaults_to_generator_name():
    env = Environment()

    def my_proc(env):
        yield env.timeout(1.0)

    p = env.process(my_proc(env))
    assert p.name == "my_proc"
    env.run()


def test_process_name_can_be_overridden():
    env = Environment()

    def my_proc(env):
        yield env.timeout(1.0)

    p = env.process(my_proc(env), name="cohort-3")
    assert p.name == "cohort-3"
    env.run()


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_interrupt_delivered_at_yield_point():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def attacker(env, victim_proc):
        yield env.timeout(3.0)
        victim_proc.interrupt("deadlock")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [(3.0, "deadlock")]


def test_interrupt_cause_accessible():
    interrupt = Interrupt("reason")
    assert interrupt.cause == "reason"
    assert "reason" in str(interrupt)


def test_interrupt_without_cause():
    interrupt = Interrupt()
    assert interrupt.cause is None


def test_interrupted_process_detached_from_target():
    """After an interrupt, the original target firing must not resume
    the process a second time."""
    env = Environment()
    resumes = []

    def victim(env, event):
        try:
            yield event
            resumes.append("normal")
        except Interrupt:
            resumes.append("interrupted")
            yield env.timeout(50.0)
            resumes.append("post-sleep")

    event = env.event()
    v = env.process(victim(env, event))

    def driver(env):
        yield env.timeout(1.0)
        v.interrupt()
        yield env.timeout(1.0)
        event.succeed("late")  # must not wake the victim again

    env.process(driver(env))
    env.run()
    assert resumes == ["interrupted", "post-sleep"]


def test_interrupting_finished_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupt_then_finish_before_delivery_is_noop():
    """A process that finishes at the same instant the interrupt is
    scheduled should not blow up."""
    env = Environment()
    log = []

    def victim(env):
        yield env.timeout(1.0)
        log.append("finished")

    def attacker(env, victim_proc):
        yield env.timeout(1.0)
        # Victim's resume is already queued for t=1.0 ahead of this
        # interrupt; by delivery time the victim may be done.
        if victim_proc.is_alive:
            victim_proc.interrupt("late")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == ["finished"]


def test_uncaught_interrupt_propagates():
    env = Environment()

    def victim(env):
        yield env.timeout(100.0)

    def attacker(env, victim_proc):
        yield env.timeout(1.0)
        victim_proc.interrupt("kill")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    with pytest.raises(Interrupt):
        env.run()


def test_process_return_value_via_stop_iteration():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(worker(env))
    env.run()
    assert p.value == 99


def test_multiple_waiters_on_one_process():
    env = Environment()
    results = []

    def worker(env):
        yield env.timeout(2.0)
        return "w"

    def waiter(env, target, tag):
        value = yield target
        results.append((tag, value, env.now))

    w = env.process(worker(env))
    env.process(waiter(env, w, "a"))
    env.process(waiter(env, w, "b"))
    env.run()
    assert sorted(results) == [("a", "w", 2.0), ("b", "w", 2.0)]


def test_interrupt_during_nested_wait_reaches_outer_generator():
    env = Environment()
    log = []

    def inner(env):
        yield env.timeout(100.0)

    def outer(env):
        try:
            yield env.process(inner(env))
        except Interrupt:
            log.append("outer-interrupted")

    o = env.process(outer(env))

    def attacker(env):
        yield env.timeout(1.0)
        o.interrupt()

    env.process(attacker(env))
    # The inner process keeps running (it was not interrupted); defuse it
    # by letting the run finish at its natural horizon.
    env.run()
    assert log == ["outer-interrupted"]


def test_process_nobody_waits_on_leaves_no_completion_entry():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return 7

    p = env.process(worker(env))
    env.run()
    assert env._eid == 2  # its bootstrap and its timeout, nothing else
    assert p.processed and p.value == 7


def test_later_yield_of_a_finished_process_gets_its_value():
    env = Environment()
    got = []

    def worker(env):
        yield env.timeout(1.0)
        return "w"

    def late_waiter(env, target):
        yield env.timeout(5.0)
        value = yield target
        got.append((value, env.now))

    w = env.process(worker(env))
    env.process(late_waiter(env, w))
    env.run()
    assert got == [("w", 5.0)]


def test_failed_process_nobody_waits_on_still_surfaces_from_run():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(worker(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert env._eid == 3  # the failure is scheduled so run() sees it


def test_finished_processes_need_no_cycle_collector():
    """A process that has returned keeps no reference cycle (its cached
    resume callback is dropped), so dropping the environment frees
    every process by reference counting alone."""

    def worker(env, delay):
        yield env.timeout(delay)
        return delay

    def parent(env):
        total = yield env.process(worker(env, 2.0))
        total += yield env.process(worker(env, 1.0))
        return total

    gc.collect()
    gc.disable()
    try:
        env = Environment()
        for delay in (1.0, 3.0):
            env.process(worker(env, delay))
        env.process(parent(env))
        env.run()
        del env
        assert gc.collect() == 0
    finally:
        gc.enable()
