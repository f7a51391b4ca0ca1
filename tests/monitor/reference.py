"""Reference implementation of the monitor hub's tick: one core per row.

The model the hub's columns replace — every hub row owns a pure
:class:`~repro.monitor.core.MonitorCore` with its own script engine and
:class:`~repro.monitor.database.MonitoringDatabase`, and a tick walks
the due rows one by one: a snapshot dict out of the column read, the
core's own ``classify``/``apply_sustain``/``current_interval``, a
``StatusUpdate`` with the row's process list per row per cycle.
``tests/monitor/test_hub.py`` runs it beside ``MonitorHub._tick`` and
requires the same states, streaks, cycle counts, ``next_due`` bits,
``push_many`` batches and wire reports at every tick.

This module shares no judgement code with ``repro.monitor.hub``: it
reads only the hub's configuration and the plane's columns.  When the
two disagree, this side is the specification.
"""

import copy

from repro.monitor.core import MonitorCore
from repro.monitor.scripts import SnapshotScriptEngine
from repro.rules.states import SystemState


class RowPump:
    """The hub's schedule and reports, pumped row by row."""

    def __init__(self, hub):
        self.hub = hub
        # The hub's own generator, cloned after the phase draw: both
        # sides see the same jitter stream from here on.
        self.rng = copy.deepcopy(hub.rng)
        self.next_due = hub._next_due.tolist()
        self.cores = []
        for name in hub.hosts:
            core = MonitorCore(
                clock=hub.env,
                host_name=name,
                registry_address=hub.registry_address,
                script_engine=SnapshotScriptEngine(sampler=dict),
                ruleset=hub.ruleset,
                policy=hub.policy,
                interval=hub.interval,
                intervals_by_state=hub.intervals_by_state,
                sustain=hub.sustain,
            )
            self.cores.append(core)

    def tick(self):
        """One hub wake-up.  Returns ``(batch, reports)``: the
        ``(hosts, states, columns)`` the hub must hand ``push_many``
        (``None`` when every due row is OVERLOADED or none is due) and
        the ``StatusUpdate`` messages it must put on the wire."""
        hub = self.hub
        now = hub.env.now
        due = [i for i, t in enumerate(self.next_due) if t <= now]
        if not due:
            return None, []
        cols = hub.plane.analytic_sensor_columns(hub._rows[due])
        jitter = (self.rng.random(len(due)) if self.rng is not None
                  else None)
        hosts, states, kept, reports = [], [], [], []
        for j, i in enumerate(due):
            core = self.cores[i]
            snapshot = {name: float(col[j]) for name, col in cols.items()}
            core.evaluator.script_engine.snapshot = snapshot
            update = core.finish_cycle(
                None, snapshot, hub.processes_for(core.host_name))
            if update.state is SystemState.OVERLOADED:
                reports.append(update)
            else:
                hosts.append(core.host_name)
                states.append(update.state)
                kept.append(j)
            interval = core.current_interval()
            if jitter is not None:
                interval *= 1.0 + 0.04 * (float(jitter[j]) - 0.5)
            self.next_due[i] = now + interval
        batch = None
        if hosts:
            batch = (hosts, states, {
                name: [float(col[j]) for j in kept]
                for name, col in cols.items()
            })
        return batch, reports
