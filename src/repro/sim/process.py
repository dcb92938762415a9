"""Generator-based simulation processes with interrupt support.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process sleeps
until that event triggers and then resumes with the event's value.

Interrupts are the mechanism the transaction manager uses to abort
transactions that are blocked (on a lock queue, a disk, or "on the
shelf"): :meth:`Process.interrupt` throws an :class:`Interrupt` exception
into the generator at its current yield point.
"""

from __future__ import annotations

import types
import typing
from heapq import heappush as _heappush

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    The ``cause`` is whatever the interrupter supplied -- the commit
    simulator passes an :class:`~repro.db.transaction.AbortReason`.
    """

    @property
    def cause(self) -> typing.Any:
        return self.args[0] if self.args else None

    def __str__(self) -> str:
        return f"Interrupt({self.cause!r})"


class _Resume:
    """A minimal schedulable carrying a resume callback.

    Quacks just enough like a triggered :class:`Event` for
    ``Environment.step`` (``callbacks``/``_ok``/``_value``/``defused``).
    Used for process bootstrap, interrupt delivery, and resuming a
    process that yielded an already-processed event -- paths that used to
    allocate a full relay :class:`Event` apiece.
    """

    __slots__ = ("callbacks", "_ok", "_value", "defused")

    def __init__(self, callback: typing.Callable[[typing.Any], None],
                 ok: bool, value: typing.Any, defused: bool = False) -> None:
        self.callbacks: list[typing.Callable[[typing.Any], None]] | None = \
            [callback]
        self._ok = ok
        self._value = value
        self.defused = defused

    def abandon(self) -> None:
        """Nothing to give up (see :meth:`Event.abandon`)."""


class Process(Event):
    """A running simulation process.

    A process *is* an event: it triggers when the generator finishes
    (successfully with its return value, or with the exception that
    escaped it).  Other processes can therefore ``yield`` a process to
    wait for its completion.  A process that returns while nothing waits
    on it is processed on the spot, with no completion entry on the
    heap; a failure is always scheduled, so ``run`` raises it.
    """

    __slots__ = ("_generator", "name", "_target", "_resume")

    def __init__(self, env: "Environment",
                 generator: typing.Generator[Event, typing.Any, typing.Any],
                 name: str | None = None) -> None:
        if not isinstance(generator, types.GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or generator.__name__
        # The bound resume callback is created once and reused for every
        # wait registration (binding a method per yield is measurable).
        self._resume = self._step
        # Bootstrap: resume the process at the current simulation time.
        init = _Resume(self._resume, True, None)
        env._eid += 1
        _heappush(env._queue, (env._now, env._eid, init))
        self._target: Event | None = typing.cast(Event, init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a finished process is an error; interrupting a
        process that is waiting detaches it from its target event first
        so the event's eventual trigger does not resume it twice.
        """
        if self.triggered:
            raise RuntimeError(f"{self.name} already terminated")
        # Deliver asynchronously via a failed event so that the interrupt
        # happens inside the event loop, in a deterministic order.
        self.env.schedule(_Resume(self._resume_interrupt, False,
                                  Interrupt(cause), defused=True))

    # ------------------------------------------------------------------
    # Internal resume machinery
    # ------------------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            # Process finished between scheduling and delivery; interrupt
            # is moot.
            return
        # Detach from the current target so a later trigger of that event
        # does not resume us a second time, and give it up before the
        # interrupt is thrown in: a resource claim is withdrawn if
        # queued, or frees its server now if in service.
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            if callbacks is not None and self._resume in callbacks:
                callbacks.remove(self._resume)
            target.abandon()
        self._step(event)

    def _step(self, event: Event) -> None:
        self._target = None
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                # The exception is being delivered into the process, so
                # it is handled from the event loop's perspective.
                event.defused = True
                result = self._generator.throw(
                    typing.cast(BaseException, event._value))
        except StopIteration as stop:
            # Drop the bound resume callback: it refers back to this
            # process, so keeping it would leave every finished process
            # in a reference cycle for the cyclic collector.
            self._resume = None
            self._ok = True
            self._value = stop.value
            if self.callbacks:
                self.env.schedule(self)
            else:
                # Nobody is waiting: mark the process processed now
                # instead of scheduling a completion no callback would
                # see.  A later ``yield`` of it resumes at once with
                # its return value.
                self.callbacks = None
            return
        except BaseException as error:  # noqa: BLE001 - deliberate resurface
            self._resume = None
            self._ok = False
            self._value = error
            self.env.schedule(self)
            return

        try:
            callbacks = result.callbacks
        except AttributeError:
            raise TypeError(
                f"process {self.name!r} yielded non-event {result!r}") \
                from None
        if callbacks is not None:
            # Pending event: wake up when it is processed.
            callbacks.append(self._resume)
            self._target = result
        else:
            # Already-processed event: resume on the next step without
            # allocating a relay Event.
            resume = _Resume(self._resume, result._ok, result._value,
                             defused=not result._ok)
            self.env.schedule(resume)
            self._target = typing.cast(Event, resume)

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
