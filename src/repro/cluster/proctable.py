"""Per-host process table.

The paper's monitor counts active processes (a Policy 2/3 trigger is
"the number of active processes is greater than 150") and the
registry/scheduler reads a process's start time "from the *pid* file
time-stamp" to estimate completion.  This table is the simulated
equivalent of ``ps``: every simulated activity registers an entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class ProcEntry:
    """One row of the process table."""

    pid: int
    name: str
    start_time: float
    #: "system", "background", "app" — apps are the migration-enabled ones.
    kind: str = "system"
    #: Set for migration-enabled applications: the HPCM runtime handle.
    hpcm_runtime: Optional[Any] = None
    #: Free-form extra attributes (e.g. estimated completion time).
    attrs: dict = field(default_factory=dict)

    @property
    def migration_enabled(self) -> bool:
        return self.hpcm_runtime is not None


class ProcessTable:
    """Process bookkeeping for one host."""

    def __init__(self, env: Any):
        self.env = env
        self._next_pid = 100  # low pids reserved, Unix-style
        self._procs: dict[int, ProcEntry] = {}

    def spawn(
        self,
        name: str,
        kind: str = "system",
        hpcm_runtime: Optional[Any] = None,
        **attrs: Any,
    ) -> ProcEntry:
        """Register a new process; returns its table entry."""
        pid = self._next_pid
        self._next_pid += 1
        entry = ProcEntry(
            pid=pid,
            name=name,
            start_time=self.env.now,
            kind=kind,
            hpcm_runtime=hpcm_runtime,
            attrs=dict(attrs),
        )
        self._procs[pid] = entry
        return entry

    def exit(self, pid: int) -> None:
        """Remove a process (no-op if already gone)."""
        self._procs.pop(pid, None)

    def get(self, pid: int) -> Optional[ProcEntry]:
        return self._procs.get(pid)

    def count(self, kind: Optional[str] = None) -> int:
        """Number of active processes, optionally filtered by kind."""
        if kind is None:
            return len(self._procs)
        return sum(1 for p in self._procs.values() if p.kind == kind)

    def migratable(self) -> list:
        """All migration-enabled application entries."""
        return [p for p in self._procs.values() if p.migration_enabled]
