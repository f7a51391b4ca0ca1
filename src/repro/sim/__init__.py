"""Discrete-event simulation kernel.

The foundation of the reproduction: a generator-coroutine DES with
events, processes that wait by yielding them, ``AllOf``/``AnyOf``
conditions, one :class:`Store` (a put is immediate; a get is an event
and may filter) and a generalized processor-sharing server used to
model both CPUs and network links.  Nothing interrupts a process: it
waits until the event it yielded succeeds or fails.
"""

from .errors import SimulationError, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Initialize,
    Process,
    Timeout,
)
from .fairshare import FairShareServer, ShareJob
from .kernel import Environment
from .resources import Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "FairShareServer",
    "Initialize",
    "Process",
    "RngRegistry",
    "ShareJob",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
