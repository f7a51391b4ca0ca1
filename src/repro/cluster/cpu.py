"""Processor model: fair-share scheduling plus network-processing load.

A :class:`Cpu` wraps a :class:`~repro.sim.fairshare.FairShareServer`
whose rate is the host's compute speed in *work units per second* (one
work unit == one CPU-second on a reference 1.0-speed machine).

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


class Cpu:
    """One host's processor."""

    def __init__(self, env: Any, speed: float = 1.0, name: str = "cpu"):
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.env = env
        self.speed = float(speed)
        self.name = name
        self._server = FairShareServer(env, rate=speed, name=name)
        self._server.on_jobs_changed = self._rebalance
        self._comm_load = 0.0
        self._comm_busy = 0.0   # ∫ busy-fraction-from-comm-alone dt
        self._comm_queue = 0.0  # ∫ comm demand dt (load contribution)
        self._comm_last = env.now

    # -- compute jobs -------------------------------------------------------
    def execute(
        self, work: float, weight: float = 1.0, label: str = ""
    ) -> ShareJob:
        """Submit ``work`` CPU-seconds of compute; returns completion event."""
        return self._server.submit(work, weight=weight, label=label)

    @property
    def run_queue(self) -> float:
        """Instantaneous load: compute jobs plus protocol-processing load."""
        return self._server.active_jobs + self._comm_load

    @property
    def active_jobs(self) -> int:
        return self._server.active_jobs

    @property
    def jobs(self) -> list:
        return self._server.jobs

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
            self._share()

    def _rebalance(self) -> None:
        """The job set changed: integrate up to now, then re-split."""
        self._accumulate_comm()
        self._share()

    def _share(self) -> None:
        """Re-split the CPU between comm processing and compute jobs.

        With ``n`` jobs and comm demand ``f``, jobs receive the fraction
        ``n / (n + f)`` of the CPU (equal-weight processor sharing with
        the protocol work).
        """
        n = self._server.active_jobs
        if n == 0:
            rate = self.speed  # no jobs to serve; rate is moot
        else:
            rate = self.speed * n / (n + self._comm_load)
        if rate != self._server.rate:
            self._server.set_rate(rate)

    def _accumulate_comm(self) -> None:
        """Integrate the busy time contributed by comm processing.

        While compute jobs run, the CPU is fully busy and the server's
        own busy integral covers it; comm contributes extra busy time
        only while no compute job is active.
        """
        now = self.env.now
        load = self._comm_load
        if load:  # a zero load integrates to exactly nothing
            dt = now - self._comm_last
            if dt > 0:
                self._comm_queue += load * dt
                if self._server.active_jobs == 0:
                    self._comm_busy += (load if load < 1.0 else 1.0) * dt
        self._comm_last = now

    # -- accounting ---------------------------------------------------------
    def busy_time(self) -> float:
        """Cumulative CPU-busy time (compute presence + comm-only time)."""
        self._accumulate_comm()
        return self._server.busy_time() + self._comm_busy

    def compute_busy_time(self) -> float:
        """Cumulative time with at least one compute job."""
        return self._server.busy_time()

    def work_done(self) -> float:
        """Total compute work served (reference CPU-seconds)."""
        return self._server.work_done()

    def load_time(self) -> float:
        """Cumulative ∫ run-queue dt — the exact quantity the Unix
        load average estimates by sampling.  Differencing two reads
        gives a noise-free mean load over an interval."""
        self._accumulate_comm()
        return self._server.queue_time() + self._comm_queue

    def utilization_sample(self, state: Optional[dict]) -> tuple:
        """Incremental utilization since the previous sample.

        Call with the ``state`` dict returned by the previous call (or
        ``None`` for the first); returns ``(utilization, new_state)``.
        """
        busy = self.busy_time()
        now = self.env.now
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
