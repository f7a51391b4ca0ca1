"""The simulation driver for the per-host commander entity (§3, §3.3).

"After receiving the message, the source machine's local commander
issues a command to the migrating process to start the process
migration."  The mechanism is faithful: "the address and the port of
the destination machine are written to a temporary file and are read by
the migrating process.  We defined this command as a user-defined
signal."

The logging/tracing/acknowledgement contract lives in the
driver-agnostic :class:`~repro.commander.core.CommanderCore`; this
module supplies the simulation's delivery mechanism — the 'signal' is
:meth:`HpcmRuntime.request_migration`, and the temp file is a *real*
file on disk when ``use_tempfile`` is on.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Optional

from ..hpcm.record import MigrationOrder, ReconfigureOrder
from ..protocol.messages import ExpandCommand, MigrateCommand, ShrinkCommand
from ..protocol.transport import Endpoint, EndpointRegistry
from .core import CommandLog, CommanderCore

__all__ = ["CommandLog", "Commander"]


class Commander:
    """Commander entity living on one simulated host."""

    def __init__(
        self,
        host: Any,
        directory: EndpointRegistry,
        use_tempfile: bool = False,
        signal_latency: float = 0.001,
    ):
        self.host = host
        self.env = host.env
        self.endpoint = Endpoint(host, directory, name="commander")
        self.use_tempfile = bool(use_tempfile)
        self.signal_latency = float(signal_latency)
        self.core = CommanderCore(
            clock=self.env, host_name=host.name, deliver=self._deliver
        )
        self._stopped = False
        self.proc = self.env.process(
            self._run(), name=f"commander:{host.name}"
        )

    @property
    def address(self) -> str:
        return self.endpoint.address

    @property
    def log(self):
        return self.core.log

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        while not self._stopped:
            msg, sender, ts = yield self.endpoint.recv()
            if not isinstance(msg, (MigrateCommand, ExpandCommand, ShrinkCommand)):
                continue
            # Local signal delivery is fast but not free.
            if self.signal_latency > 0:
                yield self.env.timeout(self.signal_latency)
            self.endpoint.send_and_forget(sender, self.core.command(msg))

    def _deliver(self, msg: Any) -> tuple:
        """Signal the target process; returns (delivered, detail)."""
        entry = self.host.procs.get(msg.pid)
        if entry is None:
            return False, f"no such pid {msg.pid}"
        runtime = entry.hpcm_runtime
        if runtime is None:
            return False, f"pid {msg.pid} is not migration-enabled"
        if isinstance(msg, (ExpandCommand, ShrinkCommand)):
            return self._deliver_reshape(msg, runtime)
        address_file: Optional[str] = None
        if self.use_tempfile:
            fd, address_file = tempfile.mkstemp(
                prefix="hpcm-dest-", suffix=".addr", text=True
            )
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(f"{msg.dest} 7777\n")
        runtime.request_migration(
            MigrationOrder(
                dest_host=msg.dest,
                issued_at=self.env.now,
                reason=msg.reason,
                decision_seconds=msg.decision_seconds,
                address_file=address_file,
            )
        )
        return True, ""

    def _deliver_reshape(self, msg: Any, runtime: Any) -> tuple:
        """Route an expand/shrink order to the process's world."""
        if not runtime.schema.malleable:
            return False, f"pid {msg.pid} is not malleable"
        world = runtime.world
        if isinstance(msg, ExpandCommand):
            order = ReconfigureOrder(
                kind="expand",
                issued_at=self.env.now,
                hosts=tuple(msg.dests),
                reason=msg.reason,
                decision_seconds=msg.decision_seconds,
            )
            return world.request_expand(order)
        order = ReconfigureOrder(
            kind="shrink",
            issued_at=self.env.now,
            hosts=(self.host.name,),
            reason=msg.reason,
            decision_seconds=msg.decision_seconds,
        )
        return world.request_shrink(runtime, order)
