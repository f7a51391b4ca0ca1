"""Simulated MPI process: identity, mailbox, host placement."""

from __future__ import annotations

from typing import Any

from ..sim.resources import Store


class MpiProcess:
    """One MPI process instance living on a host.

    A process owns a single mailbox shared by all communicators it
    belongs to (messages carry the communicator id).  During migration
    HPCM replaces a rank's :class:`MpiProcess` with a fresh instance on
    the destination host and moves the mailbox contents — that is the
    paper's "communication state transfer".
    """

    _next_uid = 0

    def __init__(self, runtime: Any, host: Any, name: str = "mpi"):
        self.runtime = runtime
        self.env = runtime.env
        self.host = host
        self.name = name
        self.mailbox = Store(self.env)
        self.alive = True
        #: Communicator groups this process belongs to.
        self.groups: list = []
        MpiProcess._next_uid += 1
        self.uid = MpiProcess._next_uid
        self.proc_entry = host.procs.spawn(name, kind="app")

    def exit(self) -> None:
        """Terminate: leave the process table, refuse new messages."""
        if not self.alive:
            return
        self.alive = False
        self.host.procs.exit(self.proc_entry.pid)

    def adopt_state_from(self, other: "MpiProcess") -> None:
        """Take over ``other``'s pending messages (communication state)."""
        for msg in other.mailbox.items:
            self.mailbox.put(msg)
        other.mailbox.items.clear()
