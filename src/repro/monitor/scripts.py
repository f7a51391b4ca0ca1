"""The script engine: rule scripts → sensor readings.

The paper gathers dynamic information "through the use of scripts (such
as UNIX shell-scripts ...)" using ``vmstat``, ``prstat``, ``ps`` etc.
Rule files therefore name *scripts*; the engine resolves a script (and
its parameter) to a metric through
:func:`repro.rules.vocabulary.script_metric` and reads that metric from
one coherent snapshot.  Each monitoring cycle calls :meth:`refresh`
once so all rules of that cycle see the same snapshot (and windowed
counters difference over exactly one interval).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..rules.vocabulary import script_metric


class SnapshotScriptEngine:
    """Script-name → value resolver over a ``{metric: value}`` snapshot.

    ``sampler()`` returns one coherent reading — ``SensorSuite.sample``
    in the simulation, ``/proc`` via :mod:`repro.live.proc_sensors` in
    live mode — so the *same* rule sets drive classification in both
    runtimes.  A metric the sampler did not report raises ``KeyError``
    — exactly like an unknown script — so mis-wired sensors fail loudly
    instead of silently classifying FREE.
    """

    def __init__(self, sampler: Callable[[], Dict[str, float]],
                 snapshot: Optional[Dict[str, float]] = None):
        self.sampler = sampler
        self.snapshot: Dict[str, float] = dict(snapshot or {})
        self._handlers: Dict[str, Callable[[str], float]] = {}

    def refresh(self) -> Dict[str, float]:
        """Take a new coherent snapshot; returns it."""
        self.snapshot = dict(self.sampler())
        return self.snapshot

    def register(self, script: str, handler: Callable[[str], float]) -> None:
        """Plug in an extra script (the engine is configurable, §4)."""
        self._handlers[script] = handler

    def metric(self, name: str) -> float:
        """One metric of the current snapshot (taken lazily)."""
        if not self.snapshot:
            self.refresh()
        return self.snapshot[name]  # KeyError intended

    def __call__(self, script: str, param: str = "") -> float:
        """Fire one script; raises KeyError for unknown scripts."""
        handler = self._handlers.get(script)
        if handler is not None:
            return float(handler(param))
        return float(self.metric(script_metric(script, param)))

