"""The context object handed to application steps.

Rebinds automatically after a migration: ``ctx.host`` and ``ctx.comm``
always reflect the process's *current* placement, so application code
is location-transparent (the whole point of the middleware).
"""

from __future__ import annotations

from typing import Any


class AppContext:
    """Per-step application context (stable across migrations)."""

    def __init__(self, runtime: Any):
        self._rt = runtime

    # -- placement ------------------------------------------------------
    @property
    def env(self):
        return self._rt.env

    @property
    def now(self) -> float:
        return self._rt.env.now

    @property
    def host(self):
        """The host the process currently runs on."""
        return self._rt.host

    @property
    def process(self):
        return self._rt.process

    @property
    def rng(self):
        return self._rt.rng

    # -- compute ----------------------------------------------------------
    def compute(self, cpu_seconds: float, label: str = ""):
        """CPU work on the current host; yields until complete.

        ``cpu_seconds`` is work on a reference speed-1.0 machine; faster
        hosts finish sooner, contention stretches wall time.
        """
        return self._rt.host.cpu.execute(
            cpu_seconds, label=label or self._rt.app.name
        )

    def sleep(self, seconds: float):
        """Idle wait (no CPU use)."""
        return self._rt.env.timeout(seconds)

    # -- MPI ------------------------------------------------------------
    @property
    def comm(self):
        """The application's world communicator handle (rank-aware)."""
        return self._rt.comm

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        """World size (1 for a single-process application)."""
        return self.comm.size
