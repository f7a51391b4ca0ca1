"""The monitor's decision core (paper §3.1) — driver-agnostic.

Everything that makes a monitor a *monitor* — rule-engine
classification sharpened by policy trigger/guard predicates, the
*sustain* warm-up that avoids fault migrations on short spikes,
per-state monitoring intervals (§4), the monitoring database, and the
trace span around each cycle — lives here, with **zero
simulation-kernel imports**.  Time comes from a
:class:`~repro.entity.clock.Clock`; measurements come from whatever
script engine the driver plugs in (the simulated ``vmstat`` & co., or
:class:`~repro.monitor.scripts.SnapshotScriptEngine` over ``/proc``
readings in live mode).

A driver runs the environment-specific parts of the cycle — charging
CPU for the script executions, taking the snapshot, collecting the
process list, sending the update — and delegates every judgement to
this core::

    span = core.begin_cycle()
    ... charge cycle cost, refresh the sensors ...
    update = core.finish_cycle(span, snapshot, processes, push_to=...)
    ... put ``update`` on the wire ...
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..protocol.messages import StatusUpdate
from ..rules.evaluator import RuleEvaluator
from ..rules.expr import scalar
from ..rules.model import RuleSet
from ..rules.states import BUSY, OVERLOADED, SystemState
from ..trace import get_tracer
from ..trace.events import EV_MONITOR_REPORT, EV_MONITOR_SAMPLE
from .database import MonitoringDatabase

#: Paper §5.1: "performance data is gathered at an interval of 10 s".
DEFAULT_INTERVAL = 10.0


def sharpen(xp: Any, level: Any, policy: Any, metrics: Any) -> Any:
    """Policy trigger/guard sharpening of a rule-engine level, at
    either width (``xp``: :data:`repro.rules.expr.scalar` over one
    snapshot, ``numpy`` over a mapping of columns).

    Any trigger holding marks the host OVERLOADED; an OVERLOADED host
    whose source guards do not all hold is demoted to BUSY.
    """
    if policy is None or not getattr(policy, "enabled", True):
        return level
    triggers = getattr(policy, "triggers", ())
    if triggers:
        fired = False
        for trigger in triggers:
            fired = fired | trigger.holds(metrics)
        level = xp.where(fired, xp.maximum(level, OVERLOADED), level)
    guards = getattr(policy, "source_guards", ())
    if guards:
        held = True
        for guard in guards:
            held = held & guard.holds(metrics)
        level = xp.where(held, level, xp.minimum(level, BUSY))
    return level


def sustain(xp: Any, level: Any, streak: Any, need: int) -> Tuple[Any, Any]:
    """An overload must persist ``need`` samples to be reported:
    ``(reported level, new overload streak)``, at either width.

    Reproduces the paper's warm-up: "It takes 72 seconds ... for
    the monitor to find out that this is a long task and determine
    that the system is overloaded."
    """
    over = level == OVERLOADED
    streak = xp.where(over, streak + 1, 0)
    return xp.where(over & (streak < need), BUSY, level), streak


class MonitorCore:
    """Classification, sustain and reporting logic on one clock."""

    def __init__(
        self,
        clock: Any,
        host_name: str,
        registry_address: str,
        script_engine: Any,
        ruleset: Optional[RuleSet] = None,
        policy: Any = None,
        interval: float = DEFAULT_INTERVAL,
        intervals_by_state: Optional[Dict[SystemState, float]] = None,
        sustain: int = 3,
        root_rule: Optional[int] = None,
        n_levels: int = 3,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if sustain < 1:
            raise ValueError("sustain must be >= 1")
        if n_levels < 2:
            raise ValueError("need at least two state levels")
        self.clock = clock
        self.host_name = host_name
        self.registry_address = registry_address
        self.ruleset = RuleSet() if ruleset is None else ruleset
        # Fine-granularity support (§4): complex-rule evaluation rounds
        # onto an ``n_levels``-deep severity lattice; the named
        # three-state view is its presentation layer.
        self.evaluator = RuleEvaluator(self.ruleset, script_engine,
                                       n_levels=n_levels)
        self.database = MonitoringDatabase()
        self.policy = policy
        self.interval = float(interval)
        self.intervals_by_state = intervals_by_state or {}
        self.sustain = int(sustain)
        self.root_rule = root_rule
        self.state = SystemState.FREE
        self.reported_state = SystemState.FREE
        self.cycles = 0
        self._overload_streak = 0

    # -- cadence --------------------------------------------------------
    def current_interval(self) -> float:
        """Monitoring frequency is configurable per state (§4)."""
        return self.intervals_by_state.get(self.reported_state,
                                           self.interval)

    # -- one monitoring cycle -------------------------------------------
    def begin_cycle(self):
        """Open the cycle's trace span (before the scripts run)."""
        tracer = get_tracer()
        return tracer.begin(
            EV_MONITOR_SAMPLE, t=self.clock.now, host=self.host_name,
            cycle=self.cycles,
        ) if tracer.enabled else None

    def finish_cycle(
        self,
        span,
        snapshot: Dict[str, float],
        processes: List[dict],
        push_to: Optional[str] = None,
    ) -> StatusUpdate:
        """Record, classify, sustain; returns the update to push."""
        self.database.record(self.clock.now, snapshot)
        self.state = self.classify(snapshot)
        self.reported_state = self.apply_sustain(self.state)
        self.cycles += 1
        if span is not None:
            span.end(t=self.clock.now, state=self.state.name,
                     reported=self.reported_state.name)
            get_tracer().event(
                EV_MONITOR_REPORT, t=self.clock.now, host=self.host_name,
                state=self.reported_state.name,
                to=push_to or self.registry_address,
            )
        return StatusUpdate(
            host=self.host_name,
            state=self.reported_state,
            metrics=snapshot,
            processes=processes,
        )

    def classify(self, snapshot: Dict[str, float]) -> SystemState:
        """Rule evaluation plus policy trigger/guard sharpening."""
        state = self.evaluator.evaluate_host_state(self.root_rule)
        return SystemState(sharpen(scalar, state, self.policy, snapshot))

    def apply_sustain(self, state: SystemState) -> SystemState:
        """The reported state after the :func:`sustain` warm-up."""
        level, self._overload_streak = sustain(
            scalar, state, self._overload_streak, self.sustain)
        return SystemState(level)
