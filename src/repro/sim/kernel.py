"""The discrete-event simulation kernel.

:class:`Environment` owns the simulation clock and the pending-event heap.
Simulated activities are generator functions started with
:meth:`Environment.process`; they yield :class:`~repro.sim.events.Event`
objects to wait on them.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
3.0
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional, Union

from .errors import SimulationError, StopSimulation
from .events import PENDING, URGENT, AllOf, AnyOf, Event, Process, Timeout


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in arbitrary units (this project uses seconds).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []  # heap of (time, priority, seq, event)
        self._seq = 0
        #: Optional per-dispatch observer ``hook(now, event)`` — used by
        #: :func:`repro.trace.attach_kernel`; one None-check per dispatch
        #: when absent.
        self.trace_hook: Optional[Any] = None
        # C-level constructors shadowing the factory methods below:
        # ``env.timeout(...)`` is the single hottest allocation site of
        # the simulation, and a partial skips one Python frame per call.
        self.timeout = partial(Timeout, self)
        self.event = partial(Event, self)

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event factories ------------------------------------------------
    # ``event`` and ``timeout`` are declared as methods for the API
    # surface (docs, ``dir()``), but every instance shadows them with
    # ``functools.partial`` bindings in ``__init__`` — same signature,
    # one less Python frame on the hot path.
    def event(self) -> Event:  # pragma: no cover - shadowed per instance
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:  # pragma: no cover - shadowed per instance
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run until the queue empties, time ``until``, or event ``until``.

        Returns the event's value when ``until`` is an event.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until {at} lies in the past (now={self._now})")
            # A plain event at `at` with URGENT priority stops the loop
            # before same-time NORMAL events run.
            until = Event(self)
            until._value = None
            self._seq = seq = self._seq + 1
            # Summed as a timeout of ``at - now`` would be.
            heappush(self._queue,
                     (self._now + (at - self._now), URGENT, seq, until))

        if isinstance(until, Event):
            if until.callbacks is None:  # already processed
                return until.value
            until.callbacks.append(_stop_simulation)

        # The dispatch loop keeps the queue in a local.  The trace hook
        # is re-read every iteration so attach/detach from inside a
        # callback still takes effect immediately.
        queue = self._queue
        try:
            while queue:
                self._now, _, _, event = heappop(queue)

                hook = self.trace_hook
                if hook is not None:
                    hook(self._now, event)

                callbacks = event.callbacks
                if callbacks is None:  # pragma: no cover - defensive
                    continue
                event.callbacks = None
                for callback in callbacks:
                    callback(event)

                # A failed event nothing waited on or defused.
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value

        if isinstance(until, Event) and until._value is PENDING:
            raise SimulationError(
                "event queue ran dry before the until-event triggered"
            )
        return None


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event._value)
