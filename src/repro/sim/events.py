"""Event primitives for the discrete-event simulation kernel.

The design follows the classic generator-coroutine DES structure (as in
SimPy): an :class:`Event` is a one-shot occurrence with callbacks; a
:class:`Process` wraps a generator that *yields* events to wait on them.

This module holds the event state machines so the two files stay
import-acyclic (events never import the kernel).  The hot triggering
paths (``succeed``, timeout construction, process resumption) push
directly onto the environment's heap — the layout of the heap entry
``(time, priority, seq, event)`` is shared with
:meth:`repro.sim.kernel.Environment.run` and must stay in sync.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Iterable, Optional

from .errors import SimulationError

#: Sentinel for "event has no value yet".
PENDING = object()

#: Scheduling priorities (lower value pops first at equal times).
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it, which schedules it with the environment; when the kernel
    pops it, its callbacks run and it becomes *processed*.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Any"):
        self.env = env
        #: Callbacks ``cb(event)`` to run on processing; ``None`` once
        #: processed (used as the processed flag).
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiting processes will have the exception thrown into them.  If no
        process handles a failed event, the kernel re-raises at the end of
        its dispatch (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise."""
        self._defused = True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed ``delay``.

    Timeouts dominate the kernel's allocation profile (every simulated
    wait is one), so construction is fully inlined: slot writes plus a
    direct heap push, no ``super().__init__`` call.
    """

    __slots__ = ()

    def __init__(self, env: Any, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))


class Initialize(Event):
    """Immediately-scheduled event that starts a :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: Any, process: "Process"):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now, URGENT, seq, self))


class Sleep(Event):
    """The reusable event behind the bare-delay fast path.

    When a process yields a plain number (``yield 2.5`` instead of
    ``yield env.timeout(2.5)``), the kernel parks it on this per-process
    flyweight: the event object, its one-element callbacks list and the
    bound resume method are all allocated once and recycled for every
    subsequent bare-delay wait, so the hottest wait pattern costs zero
    allocations.  Never constructed by user code.
    """

    __slots__ = ()

    def __init__(self, env: Any):
        self.env = env
        self.callbacks = None  # armed per wait by Process._resume
        self._value = None
        self._ok = True
        self._defused = False


class Process(Event):
    """A simulated process wrapping a generator.

    The process *is* an event: it triggers when the generator returns
    (successfully, with the generator's return value) or raises (failed).

    Generators wait by yielding an :class:`Event` — or, as a fast path,
    a plain non-negative number, which sleeps that many time units
    (equivalent to ``yield env.timeout(delay)`` but allocation-free).
    """

    __slots__ = ("_generator", "name", "_resume_cb", "_sleep_ev",
                 "_sleep_cbs")

    def __init__(self, env: Any, generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The bound resume callback, created once — parking on an event
        #: would otherwise allocate a fresh bound method per wait.
        self._resume_cb = self._resume
        #: Lazily-created flyweight for bare-delay yields (see Sleep).
        self._sleep_ev: Optional[Sleep] = None
        self._sleep_cbs: Optional[list] = None
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The waited-on event failed: throw into the generator.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._seq = seq = env._seq + 1
                heappush(env._queue, (env._now, NORMAL, seq, self))
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._seq = seq = env._seq + 1
                heappush(env._queue, (env._now, NORMAL, seq, self))
                return

            # Bare-delay fast path: a yielded number sleeps that long,
            # recycling the per-process Sleep flyweight — no Timeout
            # object, list, or bound method is allocated.
            cls = next_event.__class__
            if cls is float or cls is int:
                if next_event < 0:
                    err = SimulationError(
                        f"process {self.name!r} yielded a negative "
                        f"delay: {next_event!r}"
                    )
                    self._ok = False
                    self._value = err
                    env._seq = seq = env._seq + 1
                    heappush(env._queue, (env._now, NORMAL, seq, self))
                    return
                ev = self._sleep_ev
                if ev is None:
                    ev = Sleep(env)
                    self._sleep_ev = ev
                    self._sleep_cbs = [self._resume_cb]
                ev.callbacks = self._sleep_cbs
                env._seq = seq = env._seq + 1
                heappush(env._queue,
                         (env._now + next_event, NORMAL, seq, ev))
                break

            # EAFP beats an isinstance() call here: every yielded event
            # needs its callbacks list anyway, and non-events (no
            # ``callbacks`` attribute) are a programming error.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                err = SimulationError(
                    f"process {self.name!r} yielded a non-event: "
                    f"{next_event!r}"
                )
                self._ok = False
                self._value = err
                env._seq = seq = env._seq + 1
                heappush(env._queue, (env._now, NORMAL, seq, self))
                return

            if callbacks is not None:
                # Not yet processed: park on it.
                callbacks.append(self._resume_cb)
                break
            # Already processed: consume its outcome immediately.
            event = next_event

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"


class Condition(Event):
    """Waits until ``need`` of ``events`` have succeeded, then succeeds
    with ``None``; fails with the first of them that fails."""

    __slots__ = ("_need",)

    def __init__(self, env: Any, events: Iterable[Event], need_all: bool):
        super().__init__(env)
        events = list(events)
        for event in events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        self._need = len(events) if need_all else min(1, len(events))
        if not self._need:
            self.succeed()
            return
        for event in events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # already triggered (e.g. by an earlier failure)
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._need -= 1
        if not self._need:
            self.succeed()


class AllOf(Condition):
    """Succeeds when *all* of ``events`` have succeeded."""

    def __init__(self, env: Any, events: Iterable[Event]):
        super().__init__(env, events, need_all=True)


class AnyOf(Condition):
    """Succeeds as soon as *any* of ``events`` has succeeded."""

    def __init__(self, env: Any, events: Iterable[Event]):
        super().__init__(env, events, need_all=False)
