"""Processor model: fair-share scheduling plus network-processing load.

A :class:`Cpu` is a :class:`~repro.sim.fairshare.FairShareServer`
whose full rate is the host's compute speed in *work units per second*
(one work unit == one CPU-second on a reference 1.0-speed machine).

In 2004-era systems, moving bytes through the TCP stack consumed
significant CPU.  The network layer reports each host's aggregate flow
rate here via :meth:`set_comm_load` as an equivalent CPU demand ``f``
(CPU-seconds per second).  Protocol processing competes with compute
jobs under processor sharing with weight ``f``: with ``n`` compute jobs
running, the jobs collectively receive ``n / (n + f)`` of the CPU —
e.g. the paper's workstation 2, whose ~7 MB/s bidirectional stream
shows up as a 0.97 load average while idle, and roughly halves the
throughput of one compute job placed on it (Table 2).
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.fairshare import FairShareServer, ShareJob

#: Upper bound on the protocol-processing demand (sanity clamp).
MAX_COMM_LOAD = 8.0


class Cpu(FairShareServer):
    """One host's processor: one server owns the jobs, the rate and the
    comm term, so a change integrates, re-splits and re-arms once."""

    def __init__(self, env: Any, speed: float = 1.0, name: str = "cpu"):
        if speed <= 0:
            raise ValueError("speed must be positive")
        super().__init__(env, rate=speed, name=name)
        self.speed = float(speed)
        self._comm_load = 0.0
        self._comm_busy = 0.0   # ∫ busy-fraction-from-comm-alone dt
        self._comm_queue = 0.0  # ∫ comm demand dt (load contribution)
        self._comm_last = env._now
        self._comm_idle = True  # no job since ``_comm_last``

    # -- compute jobs -------------------------------------------------------
    def execute(
        self, work: float, weight: float = 1.0, label: str = ""
    ) -> ShareJob:
        """Submit ``work`` CPU-seconds of compute; returns completion event."""
        return self.submit(work, weight=weight, label=label)

    @property
    def run_queue(self) -> float:
        """Instantaneous load: compute jobs plus protocol-processing load."""
        return len(self._jobs) + self._comm_load

    # -- network-processing coupling -------------------------------------
    @property
    def comm_load(self) -> float:
        """Current protocol-processing demand (CPU-seconds per second)."""
        return self._comm_load

    def set_comm_load(self, load: float) -> None:
        """Set the protocol-processing demand; 0 clears it."""
        load = float(load)
        if not load > 0.0:
            if not self._comm_load:
                return  # idle stays idle: nothing to integrate
            load = 0.0
        elif load > MAX_COMM_LOAD:
            load = MAX_COMM_LOAD
        self._accumulate_comm()
        if load != self._comm_load:
            self._comm_load = load
            n = len(self._jobs)
            rate = self.speed * n / (n + load) if n else self.speed
            if rate != self.rate:
                self._advance()
                self.rate = rate
                self._reschedule()

    def _jobs_changed(self) -> None:
        """Re-sum, integrate comm, re-split: ``n`` jobs under comm demand
        ``f`` receive ``n / (n + f)`` of the CPU (with none, it is moot)."""
        jobs = self._jobs
        self._total_weight = sum([j.weight for j in jobs])
        self._accumulate_comm()
        n = len(jobs)
        self.rate = self.speed * n / (n + self._comm_load) if n else self.speed

    def _accumulate_comm(self) -> None:
        """Integrate the busy time contributed by comm processing.

        While compute jobs run, the CPU is fully busy and the server's
        own busy integral covers it; comm contributes extra busy time
        only while no compute job is active.  A job-set change calls
        this after the change, so the interval up to it is judged by
        the job set that held during it, not the one that starts now.
        """
        now = self.env._now
        load = self._comm_load
        if load:  # a zero load integrates to exactly nothing
            dt = now - self._comm_last
            if dt > 0:
                self._comm_queue += load * dt
                if self._comm_idle:
                    self._comm_busy += (load if load < 1.0 else 1.0) * dt
        self._comm_last = now
        self._comm_idle = not self._jobs

    # -- accounting ---------------------------------------------------------
    def busy_time(self) -> float:
        """Cumulative CPU-busy time (compute presence + comm-only time)."""
        self._accumulate_comm()
        self._advance()
        return self._busy_time + self._comm_busy

    #: Cumulative time with at least one compute job.
    compute_busy_time = FairShareServer.busy_time

    def load_time(self) -> float:
        """Cumulative ∫ run-queue dt — the exact quantity the Unix
        load average estimates by sampling.  Differencing two reads
        gives a noise-free mean load over an interval."""
        self._accumulate_comm()
        self._advance()
        return self._queue_time + self._comm_queue

    def utilization_sample(self, state: Optional[dict]) -> tuple:
        """Incremental utilization since the previous sample.

        Call with the ``state`` dict returned by the previous call (or
        ``None`` for the first); returns ``(utilization, new_state)``.
        """
        busy = self.busy_time()
        now = self.env._now
        if state is None:
            return 0.0, {"busy": busy, "now": now}
        dt = now - state["now"]
        util = 0.0 if dt <= 0 else (busy - state["busy"]) / dt
        return min(util, 1.0), {"busy": busy, "now": now}

    def __repr__(self) -> str:
        return (
            f"<Cpu {self.name!r} speed={self.speed} "
            f"jobs={self.active_jobs} comm={self._comm_load:.2f}>"
        )
