"""The monitor hub: one sim process monitoring thousands of hosts.

The per-host :class:`~repro.monitor.monitor.Monitor` is the right
shape for the paper's 64-node testbed — every host pays its own cycle,
pushes its own XML status message, and the registry folds them in one
by one.  At O(1000s) hosts that is O(hosts × sample-rate) Python
processes and wire messages, which is exactly what caps sweep sizes.

This hub drives the *analytic* rows of the batched host plane
(:mod:`repro.cluster.plane`) instead:

* one kernel process wakes on a fixed sub-interval cadence and
  collects every row whose (jittered, per-row) cycle is due;
* the due rows' sensor snapshot is a **column** read
  (``plane.analytic_sensor_columns``), not per-host sampling;
* classification is ``MonitorCore``'s judgement at column width — the
  rule set through :class:`~repro.rules.vector.VectorRuleEvaluator`,
  then the same :func:`~repro.monitor.core.sharpen` and
  :func:`~repro.monitor.core.sustain` the core calls, with numpy over
  the tick's columns;
* sustain warm-up, per-state cadence and the Figure 2 monitoring
  database are row-aligned **columns** of the hub (overload streak,
  classified and reported state, cycle count, ``next_due``) plus one
  ``(samples, rows, metrics)`` ring behind :meth:`MonitorHub.history`,
  so a tick runs no per-row Python; ``MonitorCore`` judges backed
  hosts and live nodes and is the hub's oracle — one core per row in
  ``tests/monitor/reference.py``, held equal to it tick for tick;
* FREE/BUSY results land in the registry's
  :meth:`~repro.registry.softstate.SoftStateTable.push_many` as one
  batch — sim-internal delivery, no per-host XML — while OVERLOADED
  rows, and only they, get a snapshot dict, a process list and a real
  :class:`~repro.protocol.messages.StatusUpdate` through the hub's
  endpoint, so decisions, traces and command cooldowns flow through
  ``RegistryCore.handle`` unchanged.

The monitoring cycle's CPU cost is modelled as a second duty family on
the plane's columns (``set_monitor_duty``) rather than real
``cpu.execute`` events — the Figure 5 overhead shows up in the load
averages without per-host event traffic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..protocol.messages import StatusUpdate
from ..protocol.transport import Endpoint, EndpointRegistry
from ..rules.model import RuleSet
from ..rules.states import FREE, OVERLOADED, SystemState
from ..rules.vector import VectorRuleEvaluator
from ..rules.vocabulary import script_metric
from .core import DEFAULT_INTERVAL, sharpen, sustain
from .monitor import DEFAULT_CYCLE_COST

#: Hub wake-ups per monitoring interval: due rows are batched onto this
#: sub-cadence instead of one wake-up per host per cycle.
TICKS_PER_INTERVAL = 8

#: Snapshots each hub row keeps for :meth:`MonitorHub.history`.  Not
#: the per-host database's ``MAX_SAMPLES``: at 4096 rows that depth
#: would hold 4096 × 1024 snapshots.
HISTORY_SAMPLES = 4


class MonitorHub:
    """Batched monitoring of the host plane's analytic rows."""

    def __init__(
        self,
        plane: Any,
        hosts: List[str],
        endpoint_host: Any,
        directory: EndpointRegistry,
        registry_address: str,
        table: Any,
        ruleset: Optional[RuleSet] = None,
        policy: Any = None,
        interval: float = DEFAULT_INTERVAL,
        intervals_by_state: Optional[Dict[SystemState, float]] = None,
        sustain: int = 3,
        cycle_cost: float = DEFAULT_CYCLE_COST,
        rng: Any = None,
        processes_for: Optional[Callable[[str], List[dict]]] = None,
    ):
        if not hosts:
            raise ValueError("hub needs at least one analytic host")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if sustain < 1:
            raise ValueError("sustain must be >= 1")
        self.plane = plane
        self.env = plane.env
        self.hosts = list(hosts)
        self.endpoint = Endpoint(endpoint_host, directory,
                                 name="monitorhub")
        self.table = table
        self.registry_address = registry_address
        self.ruleset = RuleSet() if ruleset is None else ruleset
        self.policy = policy
        self.interval = float(interval)
        self.intervals_by_state = intervals_by_state or {}
        self.rng = rng
        self.cycle_cost = float(cycle_cost)
        #: Host name → process report dicts.  Called only when a report
        #: that carries a process list is built: an OVERLOADED row's
        #: ``StatusUpdate``, which the registry's victim selection (and
        #: the malleable policy's grow/shrink planning) reads.  Analytic
        #: rows carry no simulated process table, so by default the hub
        #: reports none; a deployment that runs apps on plane-backed
        #: hosts supplies the lookup here.
        self.processes_for = processes_for or (lambda host: [])
        self.cycles = 0
        self._stopped = False

        n = len(self.hosts)
        #: Host name → hub row.
        self._index = {name: i for i, name in enumerate(self.hosts)}
        self._rows = plane.arrays.rows_of(self.hosts)
        bad = (self._rows < 0) | ~plane.arrays.analytic[self._rows]
        if bad.any():
            name = self.hosts[int(np.argmax(bad))]
            raise ValueError(f"{name!r} is not an analytic row")
        self._names = np.array(self.hosts, dtype=object)
        #: The hosts' registry rows, and the table layout they are for.
        self._registry_rows, self._registry_layout = None, -1
        # ``MonitorCore``'s per-host fields, one column each.
        self.sustain = int(sustain)
        self.streak = np.zeros(n, dtype=np.int64)
        self.state = np.full(n, np.int8(FREE))
        self.reported = np.full(n, np.int8(FREE))
        self.row_cycles = np.zeros(n, dtype=np.int64)
        #: ``MonitorCore.current_interval`` as a lookup by state code.
        self._interval_by_code = np.array([
            self.intervals_by_state.get(state, self.interval)
            for state in SystemState
        ], dtype=float)
        # The monitoring database (Figure 2): each row's latest
        # snapshots, cycle *c* in slot ``c % HISTORY_SAMPLES``.
        self._metrics = list(plane.analytic_sensor_columns(self._rows[:0]))
        self._ring = np.empty((HISTORY_SAMPLES, n, len(self._metrics)))
        self._ring_t = np.empty((HISTORY_SAMPLES, n))
        # Vectorized classification over the current tick's columns.
        self._cols: Dict[str, np.ndarray] = {}
        self._vec = VectorRuleEvaluator(self.ruleset, self._column_engine)
        # Per-row cycle phases: the same decorrelating random start a
        # per-host monitor draws, as one array draw.
        phases = (
            rng.random(n) * self.interval if rng is not None
            else np.zeros(n)
        )
        self._next_due = self.env.now + self.interval + phases
        # The cycle cost shows up in the analytic load averages as a
        # monitor duty cycle instead of per-host cpu.execute events.
        plane.set_monitor_duty(self._rows, busy=self.cycle_cost,
                               period=self.interval,
                               phases=self.env.now + phases)
        self.proc = self.env.process(self._run(), name="monitorhub")

    # -- vector plumbing ------------------------------------------------
    def _column_engine(self, script: str, param: str = "") -> np.ndarray:
        return self._cols[script_metric(script, param)]

    def _vector_classify(self, cols: Dict[str, np.ndarray],
                         n: int) -> np.ndarray:
        """``MonitorCore.classify`` over columns (int8 codes): a set
        with no top-level rule classifies FREE, like the per-host
        evaluator."""
        if self._vec._checked_rules():
            states = self._vec.evaluate_host_states()
        else:
            states = np.full(n, np.int8(FREE))
        return sharpen(np, states, self.policy, cols)

    @property
    def core_cycles(self) -> int:
        """Total monitoring cycles completed across all rows."""
        return int(self.row_cycles.sum())

    def history(self, host: str, metric: str) -> List[Tuple[float, float]]:
        """One row's retained ``(time, value)`` samples, oldest first
        (``MonitoringDatabase.series`` for a hub row)."""
        i = self._index[host]
        done = int(self.row_cycles[i])
        kept = min(done, self._ring.shape[0])
        slots = np.arange(done - kept, done) % self._ring.shape[0]
        m = self._metrics.index(metric)
        return list(zip(self._ring_t[slots, i].tolist(),
                        self._ring[slots, i, m].tolist()))

    # -- lifecycle ------------------------------------------------------
    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        tick = self.interval / TICKS_PER_INTERVAL
        while not self._stopped:
            yield tick  # bare-delay fast path
            if self._stopped:
                break
            self._tick()

    def _tick(self) -> None:
        now = self.env.now
        due = np.flatnonzero(self._next_due <= now)
        if due.size == 0:
            return
        n = due.size
        cols = self.plane.analytic_sensor_columns(self._rows[due])
        self._cols = cols
        states = self._vector_classify(cols, n)
        slot = self.row_cycles[due] % self._ring.shape[0]
        self._ring[slot, due] = np.stack(
            [cols[name] for name in self._metrics], axis=1)
        self._ring_t[slot, due] = now
        reported, self.streak[due] = sustain(
            np, states, self.streak[due], self.sustain)
        self.state[due] = states
        self.reported[due] = reported
        self.row_cycles[due] += 1
        interval = self._interval_by_code[reported]
        if self.rng is not None:
            interval = interval * (1.0 + 0.04 * (self.rng.random(n) - 0.5))
        self._next_due[due] = now + interval

        keep = reported != OVERLOADED
        if keep.all():
            self._push(due, reported, cols)
        elif keep.any():
            self._push(due[keep], reported[keep],
                       {name: col[keep] for name, col in cols.items()})
        # Overload reports travel the real wire so decisions, traces
        # and cooldowns flow through RegistryCore.handle unchanged.
        for j in np.flatnonzero(~keep).tolist():
            host = self.hosts[due[j]]
            self.endpoint.send_and_forget(self.registry_address, StatusUpdate(
                host=host,
                state=SystemState.OVERLOADED,
                metrics={name: float(col[j]) for name, col in cols.items()},
                processes=self.processes_for(host),
            ))
        self.cycles += 1

    def _push(self, rows: np.ndarray, states: np.ndarray,
              cols: Dict[str, np.ndarray]) -> None:
        """``push_many`` of hub ``rows``, hinted with their registry rows."""
        matrix = self.table.matrix
        if self._registry_layout != matrix.layout:
            self._registry_layout = matrix.layout
            try:
                self._registry_rows = matrix.rows_of(self.hosts)
            except KeyError:  # unregistered: push_many re-registers it
                self._registry_rows = None
        hint = (None if self._registry_rows is None
                else (matrix.layout, self._registry_rows[rows]))
        self.table.push_many(self._names[rows], states, cols, hint)
