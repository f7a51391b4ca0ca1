"""Background workload generators.

The paper's experiments inject load three ways:

* steady light activity (the idle cluster still shows a ~0.256 load
  average in Figure 5) — :class:`DutyCycleLoad`;
* "additional tasks" that overload the source workstation in §5.2/§5.3
  — :class:`CpuHog`;
* the workstation-2 ↔ workstation-5 bulk communication of Table 2
  (6.71–7.78 MB/s) — :class:`BulkTransferLoad`.

All generators register entries in the host process table so the
monitor's process-count sensor sees them.
"""

from __future__ import annotations

import math
from typing import Any, Optional


class DutyCycleLoad:
    """Periodic short CPU bursts producing a target mean load.

    A burst of ``busy`` CPU-seconds every ``period`` seconds yields a
    long-run load average of roughly ``busy / period`` (for load < 1).
    """

    def __init__(
        self,
        host: Any,
        mean_load: float,
        period: float = 2.0,
        name: str = "daemon",
        jitter: float = 0.0,
        rng: Optional[Any] = None,
    ):
        if not 0 <= mean_load < 1:
            raise ValueError("mean_load must lie in [0, 1)")
        if period <= 0:
            raise ValueError("period must be positive")
        if jitter and rng is None:
            raise ValueError("jitter requires an rng")
        self.host = host
        self.mean_load = float(mean_load)
        self.period = float(period)
        self.name = name
        self.jitter = float(jitter)
        self.rng = rng
        self.entry = host.procs.spawn(name, kind="system")
        self.proc = host.env.process(self._run(), name=f"duty:{name}")
        self._stopped = False

    def _run(self):
        env = self.host.env
        busy = self.mean_load * self.period * self.host.cpu.speed
        while not self._stopped:
            period = self.period
            if self.jitter:
                period *= 1.0 + self.jitter * (self.rng.random() * 2 - 1)
            if busy > 0:
                yield self.host.cpu.execute(busy, label=self.name)
            idle = max(period - busy / self.host.cpu.speed, 0.0)
            yield idle if idle > 0 else period  # bare-delay fast path

    def stop(self) -> None:
        self._stopped = True
        self.host.procs.exit(self.entry.pid)


class CpuHog:
    """A compute-bound background task (the paper's 'additional task').

    Runs ``duration`` CPU-seconds of work (wall time stretches under
    contention).  ``count`` parallel hogs model several injected tasks.
    """

    def __init__(
        self,
        host: Any,
        duration: float = math.inf,
        count: int = 1,
        name: str = "hog",
    ):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.host = host
        self.duration = duration
        self.name = name
        self.entries = [
            host.procs.spawn(f"{name}[{i}]", kind="background")
            for i in range(count)
        ]
        self.jobs = [
            host.cpu.execute(
                duration if math.isfinite(duration) else 1e18,
                label=f"{name}[{i}]",
            )
            for i in range(count)
        ]
        self.done = host.env.all_of(self.jobs)
        self.done.callbacks.append(lambda ev: self._cleanup())
        self._stopped = False

    def _cleanup(self) -> None:
        for entry in self.entries:
            self.host.procs.exit(entry.pid)

    def stop(self) -> None:
        """Kill the hogs early."""
        if self._stopped:
            return
        self._stopped = True
        for job in self.jobs:
            job.cancel()
        self._cleanup()


class BulkTransferLoad:
    """A long-lived bidirectional bulk flow between two hosts.

    Models Table 2's workstation 2 "busy in communication with the 5th
    machine" at 6.71–7.78 MB/s.  Both directions are opened so that both
    NIC halves (and both CPUs, via the protocol-processing coupling)
    are loaded.
    """

    def __init__(
        self,
        host_a: Any,
        host_b: Any,
        rate: float,
        bidirectional: bool = True,
        name: str = "bulk",
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.host_a = host_a
        self.host_b = host_b
        self.name = name
        network = host_a.network
        self.entry_a = host_a.procs.spawn(name, kind="background")
        self.entry_b = host_b.procs.spawn(name, kind="background")
        self.flows = [
            network.open_stream(
                host_a.name, host_b.name, rate_cap=rate, label=f"{name}:a->b"
            )
        ]
        if bidirectional:
            self.flows.append(
                network.open_stream(
                    host_b.name, host_a.name, rate_cap=rate,
                    label=f"{name}:b->a",
                )
            )
        self._stopped = False

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        network = self.host_a.network
        for flow in self.flows:
            network.close_stream(flow)
        self.host_a.procs.exit(self.entry_a.pid)
        self.host_b.procs.exit(self.entry_b.pid)


class ChatterLoad:
    """Light periodic request/reply traffic between two hosts.

    Provides the baseline ~5.8 KB/s send and ~6.0 KB/s receive rates
    (as seen from ``host_a``) the paper measures in Figure 6 even
    without the rescheduler.  Request and reply sizes may differ.
    """

    def __init__(
        self,
        host_a: Any,
        host_b: Any,
        bytes_out: int = 2000,
        bytes_back: int = 2060,
        interval: float = 0.335,
        name: str = "chatter",
    ):
        if bytes_out <= 0 or bytes_back <= 0 or interval <= 0:
            raise ValueError("message sizes and interval must be positive")
        self.host_a = host_a
        self.host_b = host_b
        self.bytes_out = int(bytes_out)
        self.bytes_back = int(bytes_back)
        self.interval = float(interval)
        self.name = name
        self._stopped = False
        self.proc = host_a.env.process(self._run(), name=f"chatter:{name}")

    def _run(self):
        env = self.host_a.env
        network = self.host_a.network
        a, b = self.host_a.name, self.host_b.name
        while not self._stopped:
            yield network.transfer(a, b, self.bytes_out, label=self.name)
            yield network.transfer(b, a, self.bytes_back, label=self.name)
            yield self.interval  # bare-delay fast path

    def stop(self) -> None:
        self._stopped = True
