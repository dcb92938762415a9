"""Simulation events.

An :class:`Event` is the unit of coordination in the kernel.  Processes
yield events; the environment resumes a process when the event it yielded
is *triggered*.  Events may carry a value (delivered as the result of the
``yield``) or a failure (raised inside the yielding process).

The design follows SimPy's, trimmed to what the commit-protocol simulator
needs: plain events, timeouts, and ``AnyOf``/``AllOf`` condition events.

Performance notes: the classes here sit on the simulator's innermost
loop, so they use ``__slots__`` (an event allocation per message, lock
grant, and timeout adds up to millions per sweep) and the trigger paths
touch ``_value``/``_ok`` directly instead of going through the
``triggered``/``ok`` properties.
"""

from __future__ import annotations

import typing
from heapq import heappush as _heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

# Sentinel distinguishing "no value set" from "value is None".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *untriggered*.  Calling :meth:`succeed` (or
    :meth:`fail`) schedules it; once the environment pops it from the
    event queue it becomes *processed* and all registered callbacks run.
    Waiting processes register themselves as callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: typing.Any = _PENDING
        self._ok: bool | None = None
        # Set by Process when it waits on this event so that interrupts can
        # find and detach the waiting process.
        self.defused = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's value (or exception if it failed)."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: typing.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        _heappush(env._queue, (env._now, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure.

        The exception is raised inside every process waiting on the event
        (unless the event is *defused* first).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        _heappush(env._queue, (env._now, env._eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._eid += 1
        _heappush(env._queue, (env._now, env._eid, self))

    def abandon(self) -> None:
        """Called when the process waiting on this event is interrupted.

        A no-op except for a resource claim
        (:meth:`repro.sim.resources.Request.abandon`), which gives up its
        server or its place in the queue.
        """

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: typing.Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self.defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        env._eid += 1
        _heappush(env._queue, (env._now + delay, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Condition(Event):
    """Base for events that aggregate several child events.

    Subclasses define :meth:`_check`, called whenever a child triggers,
    to decide whether the condition as a whole has been met.

    A child that fails *after* the condition has already triggered is
    defused rather than re-failing the condition: the condition consumed
    the children, so a late failure must not escape ``Environment.run``
    as an unhandled error (nor re-trigger the condition).  Once triggered
    the condition drops its children, so one still pending (a get that
    lost to a timeout) does not hold it in a reference cycle.
    """

    __slots__ = ("events", "_triggered_count")

    def __init__(self, env: "Environment",
                 events: typing.Sequence[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._triggered_count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.env is not env:
                raise ValueError("events span multiple environments")
        if len(self.events) == 1:
            # Single child: AllOf and AnyOf degenerate to the same thing
            # (mirror the child), so skip the counting machinery.
            event = self.events[0]
            if event.callbacks is None:
                self._on_single(event)
            else:
                event.callbacks.append(self._on_single)
            return
        for event in self.events:
            if event.callbacks is None:
                self._on_child(event)
            elif event.callbacks is not None:
                event.callbacks.append(self._on_child)

    def _on_single(self, event: Event) -> None:
        """Fast path for one-child conditions: mirror the child."""
        if self._value is not _PENDING:
            if not event._ok:
                event.defused = True
            return
        if event._ok:
            self._ok = True
            self._value = {event: event._value}
        else:
            event.defused = True
            self._ok = False
            self._value = event._value
        env = self.env
        env._eid += 1
        _heappush(env._queue, (env._now, env._eid, self))

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            # Already triggered (succeeded or failed).  Defuse late child
            # failures so they do not surface as unhandled errors.
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(typing.cast(BaseException, event._value))
        else:
            self._triggered_count += 1
            self._check()
            if self._value is _PENDING:
                return
        self.events = []

    def _results(self) -> dict[Event, typing.Any]:
        return {event: event._value for event in self.events
                if event.callbacks is None and event._ok}

    def _check(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when *all* child events have triggered."""

    __slots__ = ()

    def _check(self) -> None:
        if self._triggered_count == len(self.events):
            self.succeed(self._results())


class AnyOf(Condition):
    """Triggers when *any* child event has triggered."""

    __slots__ = ()

    def _check(self) -> None:
        if self._triggered_count >= 1:
            self.succeed(self._results())
