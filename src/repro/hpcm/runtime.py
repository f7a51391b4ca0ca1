"""HPCM runtime: runs a migratable application and carries migrations.

The migration protocol follows paper §3/§5.2 exactly:

1. the commander delivers a migration order (the user-defined signal,
   carrying the destination);
2. the application continues to its **nearest poll-point** (a step
   boundary);
3. the migrating process creates the *initialized process* on the
   destination via MPI-2 dynamic process management (LAM-like spawn
   latency) and gains an intercommunicator to it;
4. execution state (step counter + application schema) and memory state
   (the pickled application state) stream over the channel in chunks;
5. the initialized process **resumes execution before the transfer
   completes** — after the execution state plus an initial fraction of
   the memory state arrive, the remaining chunks drain in parallel with
   the resumed computation;
6. rank bindings in every application communicator are re-pointed at
   the new process, pending mailbox messages move with it, and the old
   process exits.
"""

from __future__ import annotations

import math
import pickle
from typing import Any, List, Optional

from ..mpi.comm import Comm
from ..mpi.process import MpiProcess
from ..schema import ApplicationSchema
from ..trace import get_tracer
from ..trace.events import (
    EV_APP_FINISH,
    EV_APP_START,
    EV_HPCM_CAPTURE,
    EV_HPCM_DRAIN,
    EV_HPCM_MIGRATION,
    EV_HPCM_POLLPOINT,
    EV_HPCM_RESUME,
    EV_HPCM_SPAWN,
    EV_HPCM_TRANSFER,
)
from .app import MigratableApp
from .context import AppContext
from .errors import HpcmError
from .ladder import Attempt, Refusal, Rung, climb
from .record import MigrationOrder, MigrationRecord
from . import statexfer

#: Tags on the migration intercommunicator.
TAG_EXEC_STATE = 1
TAG_MEMORY_CHUNK = 2

#: Serialization throughput for state capture (bytes per CPU-second);
#: 2004-era data collection over in-memory buffers.
DEFAULT_SERIALIZE_RATE = 40e6

#: Number of chunks the memory state is cut into.
DEFAULT_CHUNKS = 8

#: Fraction of memory chunks that must arrive before execution resumes.
DEFAULT_RESUME_FRACTION = 0.25


class HpcmRuntime:
    """Runs one migration-enabled process: one rank of ``world``."""

    def __init__(
        self,
        world: Any,
        app: MigratableApp,
        process: MpiProcess,
        params: Optional[dict] = None,
        schema: Optional[ApplicationSchema] = None,
        rng: Any = None,
        chunks: int = DEFAULT_CHUNKS,
        resume_fraction: float = DEFAULT_RESUME_FRACTION,
        serialize_rate: float = DEFAULT_SERIALIZE_RATE,
        initial_state: Any = None,
        initial_step: int = 0,
    ):
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        if not 0 < resume_fraction <= 1:
            raise ValueError("resume_fraction must lie in (0, 1]")
        if not serialize_rate > 0:
            raise ValueError("serialize_rate must be > 0")
        self.mpi = world.mpi
        self.env = world.env
        self.app = app
        self.params = dict(params or {})
        self.schema = schema or app.default_schema()
        self.process = process
        #: This rank's handle onto the world communicator.
        self.comm = Comm(world.group, process)
        self.rng = rng
        self.chunks = int(chunks)
        self.resume_fraction = float(resume_fraction)
        self.serialize_rate = float(serialize_rate)
        #: The :class:`~repro.hpcm.world.HpcmWorld` this rank belongs to
        #: (a one-rank world for a single-process application).
        self.world = world
        #: A fresh rank joining mid-run starts from a repartitioned
        #: state instead of ``create_state``.
        self._initial_state = initial_state

        self.state: Any = None
        self.step_count = int(initial_step)
        # created → running → done / failed / retired (world shrank)
        self.status = "created"
        self.error: Optional[BaseException] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Any = None
        self.migrations: List[MigrationRecord] = []
        #: Per-host wall-clock residency (host name → seconds), the
        #: source/destination split reported in Table 2.
        self.residency: dict = {}
        self._arrived_at = self.env.now
        self._pending_order: Optional[MigrationOrder] = None
        #: Pre-initialized standby processes by host name (ablation:
        #: "we can choose to improve this performance by pre-initializing
        #: the processes on the candidate destination machines").
        self._preinit: dict = {}
        self.done = self.env.event()
        self._bind(process)
        self._ctx = AppContext(self)
        self.sim_proc = self.env.process(
            self._main(), name=f"hpcm:{app.name}"
        )

    # -- public views -------------------------------------------------------
    @property
    def host(self):
        return self.process.host

    @property
    def migration_count(self) -> int:
        return len([m for m in self.migrations if m.succeeded])

    def estimated_completion(self) -> float:
        """Estimated absolute completion time from the schema.

        The paper's registry "gets the estimated execution time of the
        application from the application schema, and the start time of
        the application from the pid file time-stamp".
        """
        start = self.started_at if self.started_at is not None else self.env.now
        return self.schema.estimated_completion(start, self.host.cpu.speed)

    # -- the signal (commander → process) ---------------------------------
    def request_migration(self, order: MigrationOrder) -> None:
        """Deliver the migration command (the user-defined signal).

        The process acts on it at its next poll-point.  A newer order
        replaces an undelivered one.
        """
        if self.status in ("done", "failed"):
            return
        self._pending_order = order

    # -- pre-initialization (ablation) -----------------------------------
    def preinitialize(self, host: Any):
        """Warm up a standby daemon on ``host`` ahead of time.

        Pays the spawn latency now; later migrations to that host skip
        it ("we can choose to improve this performance by
        pre-initializing the processes on the candidate destination
        machines", §5.2).  Returns an event; the standby is usable once
        it fires.
        """
        def _do():
            yield self.env.timeout(self.mpi.spawn_latency)
            self._preinit[host.name] = True
            return host.name

        return self.env.process(_do(), name=f"preinit:{host.name}")

    # -- main loop ------------------------------------------------------
    def _main(self):
        self.status = "running"
        self.started_at = self.env.now
        self._arrived_at = self.env.now
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(EV_APP_START, t=self.env.now,
                         host=self.host.name, app=self.app.name)
        try:
            if self._initial_state is not None:
                self.state, self._initial_state = self._initial_state, None
            else:
                self.state = self.app.create_state(self.params, self.rng)
            more = True
            while more:
                if self.world.aborted is not None:
                    raise self.world.aborted
                order = self._pending_order
                if order is not None:
                    self._pending_order = None
                    yield from climb(self._attempt(order), MIGRATION)
                if self.world.reshape_pending:
                    directive = yield from self.world.park(self)
                    if directive == "retire":
                        self._retire(tracer)
                        return
                more = yield from self.app.run_step(self.state, self._ctx)
                self.step_count += 1
        except BaseException as exc:
            self.status = "failed"
            self.error = exc
            self.finished_at = self.env.now
            self._settle_residency()
            if tracer.enabled:
                tracer.event(EV_APP_FINISH, t=self.env.now,
                             host=self.host.name, app=self.app.name,
                             status="failed")
            self.process.exit()
            self.world.rank_done(self)
            # Waiters on `done` see the exception; defusing keeps an
            # unobserved failure from aborting the whole simulation.
            self.done.fail(exc)
            self.done.defuse()
            return
        self.status = "done"
        self.finished_at = self.env.now
        self._settle_residency()
        if tracer.enabled:
            tracer.event(EV_APP_FINISH, t=self.env.now,
                         host=self.host.name, app=self.app.name,
                         status="done")
        self.result = self.app.finalize(self.state)
        self.schema = self.schema.updated_from_run(
            self.finished_at - self.started_at,
            cpu_speed=1.0,  # wall time normalized to the reference speed
        )
        self.done.succeed(self.result)
        self.process.exit()
        self.world.rank_done(self)

    def _retire(self, tracer) -> None:
        """This rank's world shrank away from under it: exit cleanly.

        The world already merged this rank's state into the survivors
        and removed the rank from the communicator, so there is no
        result to produce — waiters on ``done`` get ``None``.
        """
        self.status = "retired"
        self.finished_at = self.env.now
        self._settle_residency()
        if tracer.enabled:
            tracer.event(EV_APP_FINISH, t=self.env.now,
                         host=self.host.name, app=self.app.name,
                         status="retired")
        self.done.succeed(None)
        self.process.exit()

    # -- migration: the rungs of MIGRATION, in order ---------------------
    def _attempt(self, order: MigrationOrder) -> Attempt:
        """Open a migration attempt at this poll-point."""
        rec = MigrationRecord(
            source=self.host.name,
            dest=order.dest_host,
            reason=order.reason,
            ordered_at=order.issued_at,
            decision_seconds=order.decision_seconds,
        )
        return Attempt(self, order, rec, self.migrations,
                       span=HpcmRuntime._migration_span)

    def _migration_span(self, att: Attempt) -> tuple:
        rec = att.rec
        return EV_HPCM_MIGRATION, rec.source, dict(
            app=self.app.name, source=rec.source, dest=rec.dest)

    def _resolve(self, att: Attempt) -> None:
        """Find the destination Host the order names."""
        rec = att.rec
        att.dest = self.mpi.cluster.host(rec.dest)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_HPCM_POLLPOINT, t=self.env.now, host=self.host.name,
                app=self.app.name, dest=rec.dest, step=self.step_count,
            )
        if att.dest is self.host:
            raise Refusal("destination equals source")
        # A pre-initialized standby skips the spawn latency.
        att.warm = self._preinit.pop(rec.dest, False)

    def _spawn(self, att: Attempt):
        """Initialized process on the destination (MPI-2 DPM)."""
        att.old_proc = self.process
        att.ready = self.env.event()
        att.transfer_done = self.env.event()
        att.icomm = yield from self.mpi.comm_self(att.old_proc).spawn(
            _make_receiver(att.ready, att.transfer_done),
            [att.dest],
            name=f"init:{self.app.name}",
            latency=0.0 if att.warm else None,
        )

    def _unspawn(self, att: Attempt) -> None:
        """The attempt failed before the switch-over: the initialized
        process must not stay in the destination's process table."""
        for proc in att.icomm.remote_group.procs:
            proc.exit()

    def _capture(self, att: Attempt):
        """Memory state (real pickle; costs CPU on the source), cut
        into chunks, plus the execution state that precedes it."""
        att.blob = statexfer.capture(self.state)
        att.rec.memory_bytes = len(att.blob)
        capture_work = len(att.blob) / self.serialize_rate
        if capture_work > 0:
            yield self.host.cpu.execute(capture_work, label="hpcm-capture")
        att.chunks = statexfer.chunk(att.blob, self.chunks)
        att.exec_state = {
            "app": self.app.name,
            "step": self.step_count,
            "schema_xml": self.schema.to_xml(),
            "n_chunks": len(att.chunks),
            "resume_after": max(
                1, math.ceil(len(att.chunks) * self.resume_fraction)),
        }
        att.rec.exec_bytes = len(pickle.dumps(att.exec_state))

    def _transfer(self, att: Attempt):
        """Stream execution state, then memory chunks, from a helper
        process (HPCM's data-collection thread) so the resumed
        computation overlaps the drain; wait until the destination may
        resume (exec state + the initial fraction of chunks arrived)."""
        icomm = att.icomm

        def _stream():
            yield from icomm.send(att.exec_state, dest=0, tag=TAG_EXEC_STATE)
            for piece in att.chunks:
                yield from icomm.send(piece, dest=0, tag=TAG_MEMORY_CHUNK)

        att.streamer = self.env.process(_stream(), name="hpcm-stream")
        yield self.env.any_of([att.ready, att.streamer])
        if not att.ready.triggered:  # pragma: no cover - defensive
            raise HpcmError("receiver never became ready")

    def _switch_over(self, att: Attempt) -> None:
        """Restore state, re-point ranks, move the mailbox.  The point
        of no return: the initialized process *is* the rank from here
        on, so nothing earlier is left to undo."""
        old_proc, receiver_proc = att.old_proc, att.ready.value
        restored = statexfer.restore(att.blob)
        for group in list(old_proc.groups):
            if not group.internal:
                group.replace(old_proc, receiver_proc)
        receiver_proc.adopt_state_from(old_proc)
        self._unbind(old_proc)
        self._bind(receiver_proc)
        self.state = restored
        self.comm = self.comm.handle_for(receiver_proc)
        att.undos.clear()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_HPCM_RESUME, t=self.env.now, host=self.host.name,
                app=self.app.name, source=att.rec.source,
            )

    def _drain(self, att: Attempt):
        """The rest of the stream arrives behind the resumed rank; the
        source-side process exits however that ends."""
        try:
            yield att.streamer
            pieces = yield att.transfer_done
        finally:
            att.old_proc.exit()
        if not statexfer.intact(pieces, att.blob):  # pragma: no cover
            raise HpcmError("state corrupted in transit")

    # -- bookkeeping ----------------------------------------------------
    def _bind(self, proc: MpiProcess) -> None:
        self.process = proc
        proc.proc_entry.hpcm_runtime = self
        proc.proc_entry.kind = "app"
        self._arrived_at = self.env.now

    def _unbind(self, proc: MpiProcess) -> None:
        dwell = self.env.now - self._arrived_at
        name = proc.host.name
        self.residency[name] = self.residency.get(name, 0.0) + dwell
        proc.proc_entry.hpcm_runtime = None

    def _settle_residency(self) -> None:
        name = self.process.host.name
        dwell = self.env.now - self._arrived_at
        self.residency[name] = self.residency.get(name, 0.0) + dwell


#: A migration, rung by rung (docs/architecture.md has the failure
#: table).  ``drain`` runs behind the resumed rank.
MIGRATION = (
    Rung("resolve", HpcmRuntime._resolve, stamp="pollpoint_at"),
    Rung("spawn", HpcmRuntime._spawn, stamp="spawned_at",
         undo=HpcmRuntime._unspawn,
         span=lambda rt, att: (EV_HPCM_SPAWN, att.rec.dest, dict(
             app=rt.app.name, dest=att.rec.dest, warm=att.warm))),
    Rung("capture", HpcmRuntime._capture,
         span=lambda rt, att: (EV_HPCM_CAPTURE, att.rec.source, dict(
             app=rt.app.name, bytes=att.rec.memory_bytes))),
    Rung("transfer", HpcmRuntime._transfer, held=True,
         span=lambda rt, att: (EV_HPCM_TRANSFER, att.rec.source, dict(
             app=rt.app.name, dest=att.rec.dest,
             bytes=att.rec.memory_bytes, chunks=len(att.chunks)))),
    Rung("switch_over", HpcmRuntime._switch_over, stamp="resumed_at"),
    Rung("drain", HpcmRuntime._drain, held=True,
         background="hpcm-cleanup",
         span=lambda rt, att: (EV_HPCM_DRAIN, att.rec.dest, dict(
             app=rt.app.name,
             overlap_s=att.env.now - att.rec.resumed_at))),
)


def _make_receiver(ready, transfer_done):
    """Build the destination-side half of the migration protocol.

    The receiver fires ``ready`` (with its :class:`MpiProcess`) once the
    execution state plus the initial fraction of memory chunks has
    arrived — the resume point — and ``transfer_done`` (with the
    pieces in arrival order, not joined) when everything has drained.
    """
    def receiver(ctx):
        exec_state = yield from ctx.parent.recv(tag=TAG_EXEC_STATE)
        n_chunks = exec_state["n_chunks"]
        resume_after = exec_state["resume_after"]
        buf = []
        for i in range(n_chunks):
            piece = yield from ctx.parent.recv(tag=TAG_MEMORY_CHUNK)
            buf.append(piece)
            if i + 1 == resume_after:
                ready.succeed(ctx.process)
        transfer_done.succeed(buf)

    return receiver
