"""Unit tests for the event bus: guard semantics, subscription
lifecycle, dispatch order, identity-hashed kinds, and the in-memory
EventLog."""

import cProfile
import pickle
import pstats

import pytest

from repro.db.wal import LogRecordKind

from repro.obs import EventBus, EventLog
from repro.obs.events import (
    EventKind,
    LogWrite,
    SiteCrash,
    SiteRecover,
    event_to_dict,
)


def _log_write(time=0.0, site_id=0, txn_id=1):
    return LogWrite(time, site_id=site_id, record_kind="test",
                    txn_id=txn_id)


class TestGuardSemantics:
    """has_subscribers is the emitters' zero-overhead-when-idle guard:
    it must be true exactly when a live subscriber exists for the kind."""

    def test_fresh_bus_has_no_subscribed_kinds(self):
        bus = EventBus()
        for kind in EventKind:
            assert not bus.has_subscribers(kind)
        assert bus.subscribed_kinds == frozenset()

    def test_subscribe_flips_guard_only_for_that_kind(self):
        bus = EventBus()
        bus.subscribe(EventKind.LOG_WRITE, lambda e: None)
        assert bus.has_subscribers(EventKind.LOG_WRITE)
        assert not bus.has_subscribers(EventKind.LOG_FORCE)

    def test_cancel_restores_idle_guard(self):
        bus = EventBus()
        sub = bus.subscribe(EventKind.LOG_WRITE, lambda e: None)
        sub.cancel()
        assert not bus.has_subscribers(EventKind.LOG_WRITE)
        assert bus.subscribed_kinds == frozenset()

    def test_guard_stays_true_while_any_subscriber_remains(self):
        bus = EventBus()
        first = bus.subscribe(EventKind.LOG_WRITE, lambda e: None)
        bus.subscribe(EventKind.LOG_WRITE, lambda e: None)
        first.cancel()
        assert bus.has_subscribers(EventKind.LOG_WRITE)

    def test_publish_without_subscribers_is_a_noop(self):
        EventBus().publish(_log_write())  # must not raise


class TestKindHashing:
    """EventKind and LogRecordKind hash by identity, so the emit guard
    and the WAL tallies never call the Python-level Enum.__hash__."""

    @pytest.mark.parametrize("kinds", [EventKind, LogRecordKind])
    def test_kinds_key_dicts_and_sets_and_survive_pickle(self, kinds):
        members = list(kinds)
        table = {kind: kind.value for kind in members}
        assert [table[kind] for kind in members] == [k.value for k in members]
        assert len(set(members)) == len(members)
        for kind in members:
            clone = pickle.loads(pickle.dumps(kind))
            assert clone is kind
            assert table[clone] == kind.value and clone in set(members)
        assert pickle.loads(pickle.dumps(table)) == table
        assert pickle.loads(pickle.dumps(frozenset(members))) == \
            frozenset(members)

    def test_guard_makes_no_python_level_hash_call(self):
        bus = EventBus()
        bus.subscribe(EventKind.LOG_WRITE, lambda e: None)
        profiler = cProfile.Profile()
        profiler.enable()
        for kind in EventKind:
            bus.has_subscribers(kind)
        profiler.disable()
        assert not [name for (_file, _line, name)
                    in pstats.Stats(profiler).stats  # type: ignore[attr-defined]
                    if name == "__hash__"]


class TestDispatch:
    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(EventKind.LOG_WRITE, lambda e: order.append("a"))
        bus.subscribe(EventKind.LOG_WRITE, lambda e: order.append("b"))
        bus.publish(_log_write())
        assert order == ["a", "b"]

    def test_only_matching_kind_is_delivered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EventKind.SITE_CRASH, seen.append)
        bus.publish(_log_write())
        bus.publish(SiteCrash(1.0, site_id=2, txn_id=7))
        assert [e.kind for e in seen] == [EventKind.SITE_CRASH]

    def test_multi_kind_subscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe((EventKind.SITE_CRASH, EventKind.SITE_RECOVER),
                      seen.append)
        bus.publish(SiteCrash(1.0, site_id=0, txn_id=1))
        bus.publish(SiteRecover(2.0, site_id=0, txn_id=1))
        assert [e.kind for e in seen] == [EventKind.SITE_CRASH,
                                          EventKind.SITE_RECOVER]

    def test_subscribe_map_routes_per_kind(self):
        bus = EventBus()
        crashes, writes = [], []
        sub = bus.subscribe_map({EventKind.SITE_CRASH: crashes.append,
                                 EventKind.LOG_WRITE: writes.append})
        bus.publish(SiteCrash(1.0, site_id=0, txn_id=1))
        bus.publish(_log_write())
        assert len(crashes) == 1 and len(writes) == 1
        sub.cancel()
        bus.publish(_log_write())
        assert len(writes) == 1


class TestSubscription:
    def test_cancel_is_idempotent(self):
        bus = EventBus()
        sub = bus.subscribe(EventKind.LOG_WRITE, lambda e: None)
        sub.cancel()
        sub.cancel()
        assert not sub.active

    def test_context_manager_cancels_on_exit(self):
        bus = EventBus()
        with bus.subscribe(EventKind.LOG_WRITE, lambda e: None) as sub:
            assert sub.active
            assert bus.has_subscribers(EventKind.LOG_WRITE)
        assert not sub.active
        assert not bus.has_subscribers(EventKind.LOG_WRITE)

    def test_cancel_removes_only_own_callback(self):
        bus = EventBus()
        seen = []
        keeper = bus.subscribe(EventKind.LOG_WRITE, seen.append)
        bus.subscribe(EventKind.LOG_WRITE, lambda e: None).cancel()
        bus.publish(_log_write())
        assert len(seen) == 1
        keeper.cancel()


class TestEventLog:
    def test_records_everything_by_default(self):
        bus = EventBus()
        log = EventLog().attach(bus)
        bus.publish(_log_write(1.0))
        bus.publish(SiteCrash(2.0, site_id=0, txn_id=1))
        assert len(log) == 2
        assert [e.kind for e in log] == [EventKind.LOG_WRITE,
                                         EventKind.SITE_CRASH]

    def test_kind_filter_and_of_kind(self):
        bus = EventBus()
        log = EventLog(kinds=(EventKind.SITE_CRASH,)).attach(bus)
        bus.publish(_log_write(1.0))
        bus.publish(SiteCrash(2.0, site_id=0, txn_id=1))
        assert len(log) == 1
        assert log.of_kind(EventKind.SITE_CRASH)[0].time == 2.0
        assert log.of_kind(EventKind.LOG_WRITE) == []

    def test_until_is_strictly_before(self):
        bus = EventBus()
        log = EventLog().attach(bus)
        for t in (1.0, 2.0, 3.0):
            bus.publish(_log_write(t))
        assert [e.time for e in log.until(2.0)] == [1.0]

    def test_as_dicts_flattens(self):
        bus = EventBus()
        log = EventLog().attach(bus)
        bus.publish(_log_write(1.5, site_id=3, txn_id=9))
        (row,) = log.as_dicts()
        assert row == {"kind": "log_write", "time": 1.5, "site_id": 3,
                       "record_kind": "test", "txn_id": 9}
        assert row == event_to_dict(log.events[0])

    def test_limit_stops_recording(self):
        bus = EventBus()
        log = EventLog(limit=2).attach(bus)
        for t in (1.0, 2.0, 3.0):
            bus.publish(_log_write(t))
        assert len(log) == 2

    def test_detach_stops_recording_and_double_attach_raises(self):
        bus = EventBus()
        log = EventLog().attach(bus)
        with pytest.raises(RuntimeError, match="already attached"):
            log.attach(bus)
        log.detach()
        bus.publish(_log_write())
        assert len(log) == 0
        log.attach(bus)  # re-attach after detach is fine
        bus.publish(_log_write())
        assert len(log) == 1

    def test_context_manager_detaches(self):
        bus = EventBus()
        with EventLog().attach(bus) as log:
            bus.publish(_log_write())
        bus.publish(_log_write())
        assert len(log) == 1
        assert not bus.has_subscribers(EventKind.LOG_WRITE)
