"""Discrete-event simulation kernel.

The foundation of the reproduction: a generator-coroutine DES with
events, processes, interrupts, stores and a
generalized processor-sharing server used to model both CPUs and
network links.
"""

from .errors import Interrupt, SimulationError, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Initialize,
    Process,
    Timeout,
)
from .fairshare import FairShareServer, ShareJob
from .kernel import Environment, Infinity
from .resources import FilterStore, Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "FairShareServer",
    "FilterStore",
    "Infinity",
    "Initialize",
    "Interrupt",
    "Process",
    "RngRegistry",
    "ShareJob",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
