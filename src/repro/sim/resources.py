"""Queueing resources for the closed queueing network model.

The paper's model needs three kinds of service centers:

- **FCFS resources** (data disks, log disks): single queue, one or more
  servers, first-come first-served.
- **Priority resources** (CPUs): a single common queue shared by all the
  site's processors, where *message processing is given higher priority
  than data processing* (Section 4 of the paper).  Priorities are
  non-preemptive.
- **Infinite servers**: Experiment 2 ("pure data contention") makes the
  physical resources infinite -- no queueing, only service time.

All three take a claim the same way: ``claim(duration, priority)``
returns a :class:`Request`, an event the claiming process yields
directly, so call sites do not care which kind they talk to.

Every claim costs one heap entry.  Granting a claim schedules its
:class:`Request` at the *end* of its service, so a process that claims
sleeps once, on that entry, and needs no separate grant event or
:class:`~repro.sim.events.Timeout`.  A free server grants at once; a busy
one queues the claim.  The request's first callback ends its service:
it frees the server and grants the next queued claim, before the
waiting process resumes.  A process interrupted while it waits on a
claim abandons it (:meth:`Request.abandon`) before the interrupt is
thrown in: a queued claim is withdrawn, and one in service frees its
server at the interrupt instant.
"""

from __future__ import annotations

import collections
import heapq
import typing
from heapq import heappush as _heappush

from repro.sim.events import _PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

#: Priority for message handling at CPUs (served before data processing).
PRIORITY_MESSAGE = 0
#: Priority for local data processing at CPUs.
PRIORITY_DATA = 1


class Request(Event):
    """A claim of one server of ``resource`` for ``duration``.

    Triggered when the resource grants the claim, and processed at the
    end of its service, ``duration`` later: ``triggered`` therefore
    means "holds a server".  Its first callback is the resource's end
    of service, which frees the server; :meth:`abandon` gives the claim
    up early.
    """

    __slots__ = ("resource", "priority", "duration")

    def __init__(self, resource: "Server", priority: int,
                 duration: float) -> None:
        # Event.__init__ inlined, as in Timeout: one of these per claim.
        self.env = resource.env
        self.callbacks = [resource._end_service]
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.resource = resource
        self.priority = priority
        self.duration = duration

    def abandon(self) -> None:
        """Give the claim up: its waiting process was interrupted."""
        self.resource.release(self)


class Resource:
    """A multi-server FCFS resource.

    Statistics: tracks busy time per server-slot so utilization can be
    reported, and the time-integral of queue length.
    """

    def __init__(self, env: "Environment", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_service = 0
        #: waiting claims; PriorityResource keeps a heap here instead.
        self._queue: typing.Any = collections.deque()
        # Statistics.
        self._busy_integral = 0.0
        self._queue_integral = 0.0
        self._last_change = env.now
        self._served = 0
        # Every claim's first callback, bound once (binding a method per
        # claim is measurable).
        self._end_service = self._finish

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def claim(self, duration: float,
              priority: int = PRIORITY_DATA) -> Request:
        """Claim a server for ``duration``; the returned request is
        processed when the service ends."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        req = Request(self, priority, duration)
        env = self.env
        now = env._now
        in_service = self._in_service
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * in_service
            self._queue_integral += dt * len(self._queue)
            self._last_change = now
        if in_service < self.capacity:
            self._in_service = in_service + 1
            req._ok = True
            req._value = None
            env._eid += 1
            _heappush(env._queue, (now + duration, env._eid, req))
        else:
            self._enqueue(req)
        return req

    def _finish(self, request: Request) -> None:
        """End ``request``'s service: free its server, or hand it to the
        next queued claim."""
        env = self.env
        now = env._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * self._in_service
            self._queue_integral += dt * len(self._queue)
            self._last_change = now
        self._served += 1
        if self._queue:
            req = self._pop_next()
            req._ok = True
            req._value = None
            env._eid += 1
            _heappush(env._queue, (now + req.duration, env._eid, req))
        else:
            self._in_service -= 1

    def release(self, request: Request) -> None:
        """Give a claim up before its service ends: withdraw it if it is
        queued, or free its server now.  A no-op once it has ended."""
        callbacks = request.callbacks
        if callbacks is None or self._end_service not in callbacks:
            return
        callbacks.remove(self._end_service)
        if request._value is _PENDING:
            self._account()
            self._dequeue(request)
        else:
            self._finish(request)

    # ------------------------------------------------------------------
    # Queue discipline (overridden by PriorityResource)
    # ------------------------------------------------------------------
    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)

    def _dequeue(self, req: Request) -> None:
        self._queue.remove(req)

    def _pop_next(self) -> Request:
        return self._queue.popleft()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _account(self) -> None:
        now = self.env._now
        dt = now - self._last_change
        if dt > 0:
            self._busy_integral += dt * self._in_service
            self._queue_integral += dt * len(self._queue)
            self._last_change = now

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._in_service

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of server capacity busy over ``elapsed`` time."""
        self._account()
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    def busy_snapshot(self) -> float:
        """Cumulative busy server-time so far (for windowed utilization:
        take a snapshot at window start and subtract)."""
        self._account()
        return self._busy_integral

    def mean_queue_length(self, elapsed: float) -> float:
        self._account()
        if elapsed <= 0:
            return 0.0
        return self._queue_integral / elapsed


class PriorityResource(Resource):
    """FCFS within priority class; lower priority value served first.

    Used for site CPUs: message processing (priority 0) overtakes queued
    data processing (priority 1), but service is non-preemptive.  The
    queue is a heap of ``(priority, arrival sequence, request)``.
    """

    def __init__(self, env: "Environment", capacity: int = 1,
                 name: str = "priority-resource") -> None:
        super().__init__(env, capacity, name)
        self._queue = []
        self._seq = 0

    def _enqueue(self, req: Request) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (req.priority, self._seq, req))

    def _dequeue(self, req: Request) -> None:
        queue = self._queue
        for i, (_, _, queued) in enumerate(queue):
            if queued is req:
                queue[i] = queue[-1]
                queue.pop()
                heapq.heapify(queue)
                return

    def _pop_next(self) -> Request:
        return heapq.heappop(self._queue)[2]


class InfiniteServer:
    """A service center with unlimited parallel servers (no queueing).

    Experiment 2 of the paper makes CPUs and disks "infinite": requests
    never queue but still take their full service time.  Claims the same
    way as :class:`Resource`.
    """

    def __init__(self, env: "Environment", name: str = "infinite") -> None:
        self.env = env
        self.name = name
        self.capacity = float("inf")
        self._served = 0
        self._busy_integral = 0.0
        self._end_service = self._finish

    def claim(self, duration: float,
              priority: int = PRIORITY_DATA) -> Request:
        """Claim a server for ``duration``: granted at once."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        req = Request(self, priority, duration)
        req._ok = True
        req._value = None
        env = self.env
        env._eid += 1
        _heappush(env._queue, (env._now + duration, env._eid, req))
        return req

    def _finish(self, request: Request) -> None:
        self._served += 1
        self._busy_integral += request.duration

    def release(self, request: Request) -> None:
        """Give a claim up before its service ends: it counts no
        service."""
        callbacks = request.callbacks
        if callbacks is not None and self._end_service in callbacks:
            callbacks.remove(self._end_service)

    @property
    def queue_length(self) -> int:
        return 0

    @property
    def in_service(self) -> int:
        return 0

    def utilization(self, elapsed: float) -> float:
        return 0.0

    def busy_snapshot(self) -> float:
        return self._busy_integral

    def mean_queue_length(self, elapsed: float) -> float:
        return 0.0


#: Anything a site can dispatch service requests to.
Server = typing.Union[Resource, PriorityResource, InfiniteServer]


class Store:
    """An unbounded FIFO message store (mailbox).

    ``put`` never blocks; ``get`` returns an event that triggers with the
    oldest item as soon as one is available.  Used for inter-process
    message delivery (master/cohort inboxes).

    Semantics note: if a process that was waiting on ``get`` is
    interrupted, a later ``put`` may still resolve its (now unread) get
    event, consuming the item.  The commit simulator is immune by
    construction -- inboxes belong to per-incarnation agents, and an
    interrupted agent's messages are dead letters anyway -- but library
    users with shared mailboxes should re-``get`` rather than reuse a
    possibly-interrupted get event.
    """

    def __init__(self, env: "Environment", name: str = "store") -> None:
        self.env = env
        self.name = name
        self._items: collections.deque[typing.Any] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def put(self, item: typing.Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next available item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def clear(self) -> None:
        """Discard all queued items and pending getters.

        Models the loss of volatile state: a crashed site's mailboxes are
        emptied and processes waiting on them are never woken (the fault
        injector interrupts those processes separately).
        """
        self._items.clear()
        self._getters.clear()

    def __len__(self) -> int:
        return len(self._items)
