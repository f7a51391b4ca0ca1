"""Generalized processor-sharing server.

A :class:`FairShareServer` serves any number of concurrent *jobs*, each
with a fixed total service demand, dividing its service rate among them
in proportion to their weights.  It is this project's model of a CPU
(:class:`repro.cluster.cpu.Cpu` is one, re-splitting its rate with the
NIC's protocol load): the rate is "work units per second", the sharing
is time slicing between the application and background tasks.  The
network is not one — a flow holds two NIC directions at once, so
:mod:`repro.cluster.network` shares them max-min fairly by progressive
filling.

The server also keeps the accounting the paper's monitors need:
cumulative busy time (→ CPU utilization), the current number of active
jobs (→ run-queue length → load average), and total work served.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from .events import PENDING, Event

_EPS = 1e-9


class ShareJob(Event):
    """One job on a :class:`FairShareServer`.

    The job is an event: it succeeds when its demand has been fully
    served.  ``cancel()`` removes it early.  Its ``Event`` slots are set
    inline, as :class:`~repro.sim.events.Timeout` sets them.
    """

    __slots__ = ("server", "demand", "remaining", "weight", "started_at",
                 "finished_at", "label", "_cancelled")

    def __init__(
        self,
        server: "FairShareServer",
        demand: float,
        weight: float = 1.0,
        label: str = "",
    ):
        if demand < 0:
            raise ValueError(f"negative demand {demand}")
        if weight <= 0:
            raise ValueError(f"non-positive weight {weight}")
        self.env = env = server.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.server = server
        self.demand = float(demand)
        self.remaining = float(demand)
        self.weight = float(weight)
        self.label = label
        self.started_at = env._now
        self.finished_at: Optional[float] = None
        self._cancelled = False

    @property
    def progress(self) -> float:
        """Fraction of the demand served so far, in [0, 1]."""
        if self.demand <= 0:
            return 1.0
        return 1.0 - self.remaining / self.demand

    def cancel(self) -> None:
        """Remove the job from the server without completing it."""
        if self.triggered or self._cancelled:
            return
        self._cancelled = True
        self.server._remove(self)


class FairShareServer:
    """Serves concurrent jobs at ``rate``, shared by weight.

    Parameters
    ----------
    env:
        Simulation environment.
    rate:
        Total service rate (work units per simulated second).
    name:
        Optional label for diagnostics.
    """

    def __init__(self, env: Any, rate: float, name: str = ""):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._jobs: list[ShareJob] = []
        self._total_weight = 0.0   # of ``_jobs``, re-summed when they change
        self._last_update = env._now
        self._wakeup: Optional[Event] = None
        self._wakeup_time = math.inf
        # Accounting
        self._busy_time = 0.0      # integral of 1{jobs > 0} dt
        self._queue_time = 0.0     # integral of njobs dt (mean queue length)
        self._work_done = 0.0      # total demand served

    # -- public accounting -------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently being served (run-queue length)."""
        return len(self._jobs)

    @property
    def jobs(self) -> list:
        """Snapshot of the active jobs."""
        return list(self._jobs)

    def busy_time(self) -> float:
        """Cumulative time with at least one active job."""
        self._advance()
        return self._busy_time

    def queue_time(self) -> float:
        """Cumulative integral of the run-queue length over time."""
        self._advance()
        return self._queue_time

    def work_done(self) -> float:
        """Total demand served since creation."""
        self._advance()
        return self._work_done

    def utilization(self, since_busy: float, since_now: float) -> float:
        """Utilization over an interval given a previous busy-time sample."""
        dt = self.env._now - since_now
        if dt <= 0:
            return 0.0
        return (self.busy_time() - since_busy) / dt

    # -- job management ----------------------------------------------------
    def submit(
        self, demand: float, weight: float = 1.0, label: str = ""
    ) -> ShareJob:
        """Add a job with ``demand`` work units; returns its completion event.

        Zero-demand jobs complete immediately.
        """
        self._advance()
        job = ShareJob(self, demand, weight=weight, label=label)
        if job.remaining <= _EPS:
            job.finished_at = self.env._now
            job.succeed()
            return job
        self._jobs.append(job)
        self._jobs_changed()
        self._reschedule()
        return job

    def _remove(self, job: ShareJob) -> None:
        self._advance()
        if job in self._jobs:
            self._jobs.remove(job)
            self._jobs_changed()
        self._reschedule()

    def _jobs_changed(self) -> None:
        """The job set changed: re-sum the weights (a server whose rate
        depends on its jobs re-splits it here)."""
        self._total_weight = sum([j.weight for j in self._jobs])

    # -- internals -----------------------------------------------------
    def _advance(self) -> None:
        """Account for service performed since the last update."""
        now = self.env._now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        self._busy_time += dt
        self._queue_time += dt * len(jobs)
        total_w = self._total_weight
        step = dt * self.rate
        for job in jobs:
            served = step * (job.weight / total_w)
            if job.remaining < served:
                served = job.remaining
            job.remaining -= served
            self._work_done += served

    def _reschedule(self) -> None:
        """(Re)arm the wake-up for the earliest completion, if any."""
        jobs = self._jobs
        if not jobs:
            self._wakeup = None
            self._wakeup_time = math.inf
            return
        rate = self.rate
        total_w = self._total_weight
        delay = min([j.remaining / (rate * (j.weight / total_w))
                     for j in jobs])
        when = self.env._now + delay
        if self._wakeup is not None and self._wakeup.callbacks is not None:
            # An earlier wake-up that is still pending (not processed):
            # keep it only if it is not later than needed; stale
            # wake-ups are ignored on fire.
            if self._wakeup_time <= when + _EPS:
                return
        wakeup = self.env.timeout(max(delay, 0.0))
        wakeup.callbacks.append(self._on_wakeup)
        self._wakeup = wakeup
        self._wakeup_time = when

    def _finished(self, job: ShareJob) -> bool:
        """Done when under a nanosecond of full-rate service remains
        (absorbs float residue from ulp-sized clock errors at large
        simulation times)."""
        return job.remaining <= max(
            _EPS * max(1.0, job.demand), 1e-9 * self.rate
        )

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup:
            return  # stale timer
        self._advance()
        finished = [j for j in self._jobs if self._finished(j)]
        for job in finished:
            self._jobs.remove(job)
            job.remaining = 0.0
            job.finished_at = self.env._now
            job.succeed()
        if finished:
            self._jobs_changed()
        self._reschedule()

    def __repr__(self) -> str:
        return (
            f"<FairShareServer {self.name!r} rate={self.rate} "
            f"jobs={len(self._jobs)}>"
        )
