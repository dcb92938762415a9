"""Edge-case tests for events and condition events."""

import pytest

from repro.sim import AllOf, AnyOf, Environment
from repro.sim.events import Condition


def test_all_of_failure_propagates():
    env = Environment()
    seen = []

    def failer(env):
        yield env.timeout(1.0)
        raise ValueError("child exploded")

    def waiter(env):
        ok = env.timeout(5.0)
        bad = env.process(failer(env))
        try:
            yield env.all_of([ok, bad])
        except ValueError as error:
            seen.append(str(error))

    env.process(waiter(env))
    env.run()
    assert seen == ["child exploded"]


def test_any_of_with_already_processed_event():
    env = Environment()
    results = []

    def proc(env):
        early = env.event()
        early.succeed("early")
        yield env.timeout(1.0)  # let `early` be processed
        got = yield env.any_of([early, env.timeout(100.0)])
        results.append(list(got.values()))

    env.process(proc(env))
    env.run(until=5.0)
    assert results == [["early"]]


def test_condition_rejects_mixed_environments():
    env_a = Environment()
    env_b = Environment()
    with pytest.raises(ValueError, match="multiple environments"):
        AllOf(env_a, [env_a.event(), env_b.event()])


def test_all_of_values_keyed_by_event():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(2.0, value="b")
        values = yield env.all_of([t1, t2])
        results.append((values[t1], values[t2]))

    env.process(proc(env))
    env.run()
    assert results == [("a", "b")]


def test_condition_check_is_abstract():
    env = Environment()
    condition = Condition.__new__(Condition)
    with pytest.raises(NotImplementedError):
        condition._check()


def test_event_repr_states():
    env = Environment()
    event = env.event()
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    env.run()
    assert "processed" in repr(event)


def test_trigger_copies_state():
    env = Environment()
    source = env.event()
    target = env.event()
    source.succeed(42)
    target.trigger(source)
    env.run()
    assert target.ok
    assert target.value == 42


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_condition_late_child_failure_is_defused():
    """A child failing *after* the condition already failed must not
    re-trigger the condition, and its failure must not escape ``run``
    as an unhandled error (regression: double-fail hazard)."""
    env = Environment()
    seen = []

    def failer(env, delay, message):
        yield env.timeout(delay)
        raise ValueError(message)

    def waiter(env):
        first = env.process(failer(env, 1.0, "first"))
        second = env.process(failer(env, 2.0, "second"))
        try:
            yield env.all_of([first, second])
        except ValueError as error:
            seen.append(str(error))

    env.process(waiter(env))
    env.run()  # must not raise "second" (nor RuntimeError: already triggered)
    assert seen == ["first"]


def test_any_of_succeeded_then_child_failure_is_defused():
    """A child failing after the condition already *succeeded* is
    likewise consumed by the condition."""
    env = Environment()
    results = []

    def failer(env):
        yield env.timeout(5.0)
        raise ValueError("late loser")

    def waiter(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.process(failer(env))
        got = yield env.any_of([fast, slow])
        results.append(list(got.values()))

    env.process(waiter(env))
    env.run()
    assert results == [["fast"]]


def test_single_child_all_of_matches_multi_child_semantics():
    """The one-child fast path must produce the same {event: value}
    result shape and timing as the general path."""
    env = Environment()
    results = []

    def proc(env):
        t = env.timeout(2.0, value="only")
        got = yield env.all_of([t])
        results.append((env.now, got[t]))
        t2 = env.timeout(3.0, value="again")
        got2 = yield env.any_of([t2])
        results.append((env.now, got2[t2]))

    env.process(proc(env))
    env.run()
    assert results == [(2.0, "only"), (5.0, "again")]


def test_single_child_condition_failure_propagates():
    env = Environment()
    seen = []

    def failer(env):
        yield env.timeout(1.0)
        raise KeyError("solo")

    def waiter(env):
        try:
            yield env.all_of([env.process(failer(env))])
        except KeyError as error:
            seen.append(str(error))

    env.process(waiter(env))
    env.run()
    assert seen == ["'solo'"]


def test_single_child_condition_with_processed_child():
    env = Environment()
    results = []

    def proc(env):
        early = env.event()
        early.succeed("early")
        yield env.timeout(1.0)  # let `early` be processed
        got = yield env.any_of([early])
        results.append(got[early])

    env.process(proc(env))
    env.run()
    assert results == ["early"]


def test_triggered_any_of_holds_no_children():
    """Once an AnyOf fires it drops its children: the slower child,
    still pending, refers to the condition through its callback, and
    the condition must not refer back (no reference cycle)."""
    env = Environment()
    fast = env.timeout(1.0, value="fast")
    slow = env.timeout(10.0)
    condition = env.any_of([fast, slow])
    env.run(until=5.0)
    assert condition.processed and not slow.processed
    assert condition.events == []
    assert condition.value == {fast: "fast"}
    env.run()
    assert slow.processed
