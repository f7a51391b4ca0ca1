"""The simulation driver for the per-host commander entity (§3, §3.3).

"After receiving the message, the source machine's local commander
issues a command to the migrating process to start the process
migration."  The paper's commander writes the destination's address
and port to a temporary file and raises a user-defined signal; here
the signal is :meth:`HpcmRuntime.request_migration`, and the order it
delivers carries the destination itself, so no file is written.

The logging/tracing/acknowledgement contract lives in the
driver-agnostic :class:`~repro.commander.core.CommanderCore`; this
module supplies the simulation's delivery mechanism.
"""

from __future__ import annotations

from typing import Any

from ..hpcm.record import MigrationOrder, ReconfigureOrder
from ..protocol.messages import ExpandCommand, MigrateCommand, ShrinkCommand
from ..protocol.transport import Endpoint, EndpointRegistry
from .core import CommandLog, CommanderCore

__all__ = ["CommandLog", "Commander"]

#: Seconds from a command's arrival to its signal: local delivery is
#: fast but not free.
SIGNAL_LATENCY = 0.001


class Commander:
    """Commander entity living on one simulated host."""

    def __init__(
        self,
        host: Any,
        directory: EndpointRegistry,
    ):
        self.host = host
        self.env = host.env
        self.endpoint = Endpoint(host, directory, name="commander")
        self.core = CommanderCore(
            clock=self.env, host_name=host.name, deliver=self._deliver
        )
        self._stopped = False
        self.proc = self.env.process(
            self._run(), name=f"commander:{host.name}"
        )

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        while not self._stopped:
            msg, sender, ts = yield self.endpoint.recv()
            if not isinstance(msg, (MigrateCommand, ExpandCommand, ShrinkCommand)):
                continue
            yield self.env.timeout(SIGNAL_LATENCY)
            self.endpoint.send_and_forget(sender, self.core.command(msg))

    def _deliver(self, msg: Any) -> tuple:
        """Signal the target process; returns (delivered, detail).

        An expand or a shrink goes to the process's world, a migration
        to the process itself."""
        entry = self.host.procs.get(msg.pid)
        if entry is None:
            return False, f"no such pid {msg.pid}"
        runtime = entry.hpcm_runtime
        if runtime is None:
            return False, f"pid {msg.pid} is not migration-enabled"
        if isinstance(msg, (ExpandCommand, ShrinkCommand)):
            if not runtime.schema.malleable:
                return False, f"pid {msg.pid} is not malleable"
            expand = isinstance(msg, ExpandCommand)
            order = ReconfigureOrder(
                kind=msg.TYPE,
                issued_at=self.env.now,
                hosts=tuple(msg.dests) if expand else (self.host.name,),
                reason=msg.reason,
                decision_seconds=msg.decision_seconds,
            )
            if expand:
                return runtime.world.request_expand(order)
            return runtime.world.request_shrink(runtime, order)
        runtime.request_migration(
            MigrationOrder(
                dest_host=msg.dest,
                issued_at=self.env.now,
                reason=msg.reason,
                decision_seconds=msg.decision_seconds,
            )
        )
        return True, ""
