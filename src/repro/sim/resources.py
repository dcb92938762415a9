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

All three expose the same ``serve`` coroutine so call sites do not care
which one they talk to.

Every claim costs one heap entry.  Granting a claim schedules its
:class:`Request` at the *end* of its service, so a process that serves
sleeps once, on that entry, and needs no separate grant event or
:class:`~repro.sim.events.Timeout`.  A free server grants at once; a busy
one queues the claim and :meth:`Resource.release` grants it when a server
frees up.
"""

from __future__ import annotations

import collections
import heapq
import typing
from heapq import heappush as _heappush

from repro.sim.events import _PENDING, Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

#: Priority for message handling at CPUs (served before data processing).
PRIORITY_MESSAGE = 0
#: Priority for local data processing at CPUs.
PRIORITY_DATA = 1


class Request(Event):
    """A claim on a resource.

    Triggered when the resource grants the claim, and processed
    ``duration`` later: at once for :meth:`Resource.request`, at the end
    of service for :meth:`Resource.serve`.  ``triggered`` therefore
    means "holds a server".  Must be released with
    :meth:`Resource.release` (directly or via ``serve``).
    """

    __slots__ = ("priority", "duration")

    def __init__(self, env: "Environment", priority: int = PRIORITY_DATA,
                 duration: float = 0.0) -> None:
        # Event.__init__ inlined, as in Timeout: one of these per claim.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.priority = priority
        self.duration = duration


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

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def request(self, priority: int = PRIORITY_DATA) -> Request:
        """Claim a server slot; the returned event triggers when granted."""
        return self._claim(Request(self.env, priority))

    def release(self, request: Request) -> None:
        """Release a claim: free its server, or withdraw it if queued."""
        self._account()
        if request._value is _PENDING:
            # Still waiting: withdraw from the queue (used when an
            # interrupted process abandons its claim).
            self._dequeue(request)
            return
        self._in_service -= 1
        self._served += 1
        if self._queue:
            self._grant(self._pop_next())

    def cancel(self, request: Request) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        self._account()
        if request._value is _PENDING:
            self._dequeue(request)

    def serve(self, duration: float, priority: int = PRIORITY_DATA,
              ) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine: wait for a server, hold it for ``duration``, release.

        The process wakes once, when service ends.  If it is interrupted
        while queued, the claim is withdrawn; if interrupted in service,
        the server is freed at the interrupt instant.  Either way this
        happens before the interrupt propagates.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        req = self._claim(Request(self.env, priority, duration))
        try:
            yield req
        finally:
            self.release(req)

    def _claim(self, req: Request) -> Request:
        self._account()
        if self._in_service < self.capacity:
            self._grant(req)
        else:
            self._enqueue(req)
        return req

    def _grant(self, req: Request) -> None:
        """Give ``req`` a server: schedule it ``req.duration`` from now."""
        self._in_service += 1
        req._ok = True
        req._value = None
        env = self.env
        env._eid += 1
        _heappush(env._queue, (env._now + req.duration, env._eid, req))

    # ------------------------------------------------------------------
    # Queue discipline (overridden by PriorityResource)
    # ------------------------------------------------------------------
    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)

    def _dequeue(self, req: Request) -> None:
        try:
            self._queue.remove(req)
        except ValueError:
            pass

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
    never queue but still take their full service time.  Exposes the same
    ``serve`` interface as :class:`Resource`.
    """

    def __init__(self, env: "Environment", name: str = "infinite") -> None:
        self.env = env
        self.name = name
        self.capacity = float("inf")
        self._served = 0
        self._busy_integral = 0.0

    def serve(self, duration: float, priority: int = PRIORITY_DATA,
              ) -> typing.Generator[Event, typing.Any, None]:
        yield Timeout(self.env, duration)
        self._served += 1
        self._busy_integral += duration

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
