"""Exception types for the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class StopSimulation(Exception):
    """Internal signal used to end :meth:`Environment.run` at an event."""

    def __init__(self, value: object = None):
        super().__init__(value)

    @property
    def value(self) -> object:
        return self.args[0]
