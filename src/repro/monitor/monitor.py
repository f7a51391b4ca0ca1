"""The simulation driver for the per-host monitor entity (§3.1).

The judgement calls — classification through the rule evaluator
(optionally sharpened by a migration policy's trigger/guard
predicates), the *sustain* warm-up, per-state monitoring intervals —
live in the driver-agnostic :class:`~repro.monitor.core.MonitorCore`.
This module owns what is simulation-specific: the kernel process that
paces the cycles, the CPU cost each cycle charges (the Figure 5
overhead), the simulated script engine, and the endpoint that pushes
the resulting soft-state updates.  Live mode
(:mod:`repro.live.node`) drives the same core from a thread with
``/proc``-backed sensors.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..protocol.messages import Register, StatusQuery, Unregister
from ..protocol.transport import Endpoint, EndpointRegistry
from ..rules.model import RuleSet
from ..rules.states import SystemState
from .core import DEFAULT_INTERVAL, MonitorCore
from .selector import collect_process_info
from .sensors import SimScriptEngine

#: CPU-seconds one monitoring cycle costs (script executions); chosen
#: so the rescheduler's load-average overhead lands in the paper's
#: "usually less than 4%" band.
DEFAULT_CYCLE_COST = 0.06

__all__ = ["DEFAULT_CYCLE_COST", "DEFAULT_INTERVAL", "Monitor"]


class Monitor:
    """Monitoring entity living on one simulated host."""

    def __init__(
        self,
        host: Any,
        directory: EndpointRegistry,
        registry_address: str,
        ruleset: Optional[RuleSet] = None,
        policy: Any = None,
        interval: float = DEFAULT_INTERVAL,
        intervals_by_state: Optional[Dict[SystemState, float]] = None,
        sustain: int = 3,
        cycle_cost: float = DEFAULT_CYCLE_COST,
        rng: Any = None,
        mode: str = "push",
    ):
        if mode not in ("push", "pull"):
            raise ValueError(f"mode must be push or pull, got {mode!r}")
        self.host = host
        self.env = host.env
        self.endpoint = Endpoint(host, directory, name="monitor")
        self.engine = SimScriptEngine(host)
        self.core = MonitorCore(
            clock=self.env,
            host_name=host.name,
            registry_address=registry_address,
            script_engine=self.engine,
            ruleset=ruleset,
            policy=policy,
            interval=interval,
            intervals_by_state=intervals_by_state,
            sustain=sustain,
        )
        self.cycle_cost = float(cycle_cost)
        self.rng = rng
        self.mode = mode
        self._stopped = False
        # A random phase offset decorrelates the monitoring cycle from
        # the kernel's 5 s load-average sampler (and from the other
        # hosts' monitors), like a real daemon's arbitrary start time.
        self._phase = (
            float(rng.random()) * self.core.interval
            if rng is not None else 0.0
        )
        self.proc = self.env.process(self._run(), name=f"monitor:{host.name}")

    # -- the core's state, read by experiments and the ledger -----------
    @property
    def reported_state(self) -> SystemState:
        return self.core.reported_state

    @property
    def cycles(self) -> int:
        return self.core.cycles

    # -- lifecycle ------------------------------------------------------
    def stop(self) -> None:
        """Cleanly leave (sends Unregister on the next cycle)."""
        self._stopped = True

    def _run(self):
        # One-time registration of static information (paper §3.1).
        self.endpoint.send_and_forget(
            self.core.registry_address,
            Register(host=self.host.name,
                     static_info=self.host.static_info.as_dict()),
        )
        if self.mode == "pull":
            yield from self._serve_queries()
        else:
            yield from self._push_loop()
        self.endpoint.send_and_forget(
            self.core.registry_address, Unregister(host=self.host.name)
        )

    def _push_loop(self):
        """Periodic soft-state pushes (the paper's chosen model)."""
        if self._phase:
            yield self._phase  # bare-delay fast path
        while not self._stopped:
            interval = self.core.current_interval()
            if self.rng is not None:
                interval *= 1.0 + 0.04 * (float(self.rng.random()) - 0.5)
            yield interval  # bare-delay fast path
            if self._stopped:
                break
            yield from self._cycle()

    def _serve_queries(self):
        """Pull model: report only when the registry asks (§3.2)."""
        while not self._stopped:
            msg, sender, ts = yield self.endpoint.recv()
            if isinstance(msg, StatusQuery) and not self._stopped:
                yield from self._cycle(push_to=sender)

    # -- one monitoring cycle -------------------------------------------
    def _cycle(self, push_to: Optional[str] = None):
        span = self.core.begin_cycle()
        # Script executions cost CPU — the Figure 5 overhead.
        if self.cycle_cost > 0:
            yield self.host.cpu.execute(self.cycle_cost, label="monitor")
        snapshot = self.engine.refresh()
        update = self.core.finish_cycle(
            span,
            snapshot,
            [info.as_dict() for info in collect_process_info(self.host)],
            push_to=push_to,
        )
        self.endpoint.send_and_forget(
            push_to or self.core.registry_address, update
        )
