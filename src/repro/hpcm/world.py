"""The malleable world: N:M reconfiguration at poll-point barriers.

A :class:`HpcmWorld` coordinates the ranks of one multi-rank
migratable application so the whole world can be *reshaped* — grown
onto fresh hosts (``Expand``) or shrunk off an overloaded one
(``Shrink``) — rather than only migrated 1:1.  The protocol reuses the
poll-point contract migration rests on:

1. the commander routes an :class:`~repro.protocol.messages.ExpandCommand`
   / ``ShrinkCommand`` to the world (:meth:`request_expand` /
   :meth:`request_shrink`);
2. every live rank *parks* at its next poll-point — a world-wide
   barrier, since between steps all state is collectible;
3. each rank pays the CPU cost of pickling its state (in parallel);
4. the application's :meth:`~repro.hpcm.app.MigratableApp.repartition`
   merges the per-rank states and re-splits them for the new size;
5. growth spawns fresh ranks with a *parallel tree* strategy — k
   simultaneous spawns cost ``spawn_latency * ceil(log2(k + 1))``
   rounds, not ``k`` sequential latencies (per "Parallel Spawning
   Strategies for Dynamic-Aware MPI Applications"); a shrink retires
   exactly one rank;
6. membership-changing state moves over the simulated network at its
   real pickled size, the world communicator gains/loses the rank, and
   survivors resume with their new state shares.

Any failure (unknown hosts, a :class:`RepartitionError`, a retiree
that already finished) aborts the reshape: every rank resumes
unchanged, and the failed attempt is still recorded.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from ..mpi.comm import Comm
from ..mpi.group import CommGroup
from ..mpi.process import MpiProcess
from ..mpi.runtime import MpiRuntime
from ..schema import ApplicationSchema
from ..trace import get_tracer
from ..trace.events import (
    EV_APP_EXPAND,
    EV_APP_SHRINK,
    EV_HPCM_REPARTITION,
)
from .errors import RepartitionError
from .record import ReconfigRecord, ReconfigureOrder
from .runtime import HpcmRuntime
from . import statexfer

__all__ = ["HpcmWorld", "launch_malleable_world"]


class HpcmWorld:
    """Reshape coordinator shared by the ranks of one application."""

    def __init__(
        self,
        mpi: MpiRuntime,
        app_factory: Callable[[int], Any],
        group: CommGroup,
        params: Optional[dict] = None,
        schema: Optional[ApplicationSchema] = None,
        rng: Any = None,
        runtime_kwargs: Optional[dict] = None,
        barrier_timeout: float = 60.0,
    ):
        self.mpi = mpi
        self.env = mpi.env
        self.app_factory = app_factory
        self.group = group
        self.params = dict(params or {})
        self.schema = schema
        self.rng = rng
        self.runtime_kwargs = dict(runtime_kwargs or {})
        #: A rank blocked inside a collective cannot park; after this
        #: many seconds an unassembled barrier aborts the reshape so
        #: the world never deadlocks on its own reconfiguration.
        self.barrier_timeout = float(barrier_timeout)
        #: Live runtimes in rank order (mirrors ``group.procs``).
        self.runtimes: List[HpcmRuntime] = []
        #: Every runtime that ever joined (finished and retired ones
        #: included), in join order — for experiments and tests.
        self.all_runtimes: List[HpcmRuntime] = []
        self.reconfigurations: List[ReconfigRecord] = []
        #: Succeeds once, when the last live rank has left (done or
        #: failed; ranks a later Expand adds count too): the event to
        #: wait on for the whole job, ``env.run(until=world.finished)``.
        self.finished = self.env.event()
        self._pending: Optional[ReconfigureOrder] = None
        self._retiree: Optional[HpcmRuntime] = None
        self._parked: Dict[int, Any] = {}  # runtime id → release event
        self._reshaping = False

    # -- public views ---------------------------------------------------
    @property
    def size(self) -> int:
        """Current world size (live ranks)."""
        return len(self.runtimes)

    @property
    def app_name(self) -> str:
        return self.runtimes[0].app.name if self.runtimes else "world"

    @property
    def reshape_pending(self) -> bool:
        return self._pending is not None

    # -- the signal (commander → world) ---------------------------------
    def request_expand(self, order: ReconfigureOrder) -> tuple:
        """Grow the world onto ``order.hosts``; (delivered, detail)."""
        if self._pending is not None or self._reshaping:
            return False, "reshape already in progress"
        if not self.runtimes:
            return False, "world has no live ranks"
        if self.group.size != len(self.runtimes):
            return False, "world has finished ranks"
        if not order.hosts:
            return False, "expand order carries no destination hosts"
        self._pending = order
        self._watch(order)
        self._maybe_fire()
        return True, ""

    def request_shrink(
        self, runtime: HpcmRuntime, order: ReconfigureOrder
    ) -> tuple:
        """Retire ``runtime``'s rank; (delivered, detail)."""
        if self._pending is not None or self._reshaping:
            return False, "reshape already in progress"
        if runtime not in self.runtimes:
            return False, "rank is not a live member of this world"
        if self.group.size != len(self.runtimes):
            return False, "world has finished ranks"
        if len(self.runtimes) <= 1:
            return False, "world cannot shrink below one rank"
        self._pending = order
        self._retiree = runtime
        self._watch(order)
        self._maybe_fire()
        return True, ""

    # -- the poll-point barrier -----------------------------------------
    def park(self, runtime: HpcmRuntime):
        """Park one rank at the reshape barrier (a generator the rank
        drives with ``yield from``).  Returns the release directive:
        ``"resume"`` (state may have been replaced) or ``"retire"``."""
        event = self.env.event()
        self._parked[id(runtime)] = event
        self._maybe_fire()
        directive = yield event
        return directive

    def rank_done(self, runtime: HpcmRuntime) -> None:
        """A rank finished or failed on its own; drop it and re-check
        the barrier so a pending reshape cannot deadlock on it.

        The finished process deliberately STAYS in the communicator
        group: removing it would renumber the surviving ranks under
        messages already routed by rank index.  Only a shrink — at an
        assembled barrier, with no traffic in flight — edits
        membership.
        """
        if runtime in self.runtimes:
            self.runtimes.remove(runtime)
            if not self.runtimes:
                self.finished.succeed()
        self._parked.pop(id(runtime), None)
        self._maybe_fire()

    def _watch(self, order: ReconfigureOrder) -> None:
        """Arm the barrier-assembly watchdog for one order."""
        def _watchdog():
            yield self.env.timeout(self.barrier_timeout)
            if self._pending is order and not self._reshaping:
                self._pending = None
                self._retiree = None
                self._abort(
                    order,
                    "barrier timeout: a rank never reached its "
                    "poll-point",
                )

        self.env.process(_watchdog(), name=f"reshape-watch:{self.app_name}")

    def _abort(self, order: ReconfigureOrder, failure: str) -> None:
        """Record a reshape that never ran and wake the parked ranks."""
        size = len(self.runtimes)
        rec = ReconfigRecord(
            app=self.app_name,
            kind=order.kind,
            old_size=size,
            new_size=size,
            reason=order.reason,
            ordered_at=order.issued_at,
            decision_seconds=order.decision_seconds,
            barrier_at=self.env.now,
            completed_at=self.env.now,
            failure=failure,
        )
        self.reconfigurations.append(rec)
        tracer = get_tracer()
        if tracer.enabled and self.runtimes:
            tracer.begin(
                EV_HPCM_REPARTITION, t=order.issued_at,
                host=self.runtimes[0].host.name, app=rec.app,
                kind=order.kind, old_size=size,
            ).end(t=self.env.now, new_size=size, bytes=0,
                  succeeded=False, failure=failure)
        self._release(None)

    def _maybe_fire(self) -> None:
        if self._pending is None or self._reshaping:
            return
        if not self.runtimes:
            # Everyone finished before the barrier assembled.
            order, self._pending = self._pending, None
            self._retiree = None
            self._abort(order, "every rank finished before the barrier")
            return
        if self.group.size != len(self.runtimes):
            # Some rank finished mid-run: membership is frozen (see
            # rank_done), so the world can no longer be reshaped.
            order, self._pending = self._pending, None
            self._retiree = None
            self._abort(order, "world has finished ranks")
            return
        if all(id(rt) in self._parked for rt in self.runtimes):
            self._reshaping = True
            order, self._pending = self._pending, None
            self.env.process(
                self._reconfigure(order),
                name=f"hpcm-reshape:{self.app_name}",
            )

    # -- the reshape ----------------------------------------------------
    def _reconfigure(self, order: ReconfigureOrder):
        tracer = get_tracer()
        old_size = len(self.runtimes)
        rank0 = self.runtimes[0]
        rec = ReconfigRecord(
            app=self.app_name,
            kind=order.kind,
            old_size=old_size,
            new_size=old_size,
            reason=order.reason,
            ordered_at=order.issued_at,
            decision_seconds=order.decision_seconds,
            barrier_at=self.env.now,
        )
        span = tracer.begin(
            EV_HPCM_REPARTITION, t=order.issued_at,
            host=rank0.host.name, app=rec.app, kind=order.kind,
            old_size=old_size,
        ) if tracer.enabled else None
        retiree, self._retiree = self._retiree, None
        try:
            if order.kind == "expand":
                yield from self._do_expand(order, rec)
            else:
                yield from self._do_shrink(order, rec, retiree)
        except RepartitionError as exc:
            rec.failure = f"repartition refused: {exc}"
        rec.new_size = len(self.runtimes)
        rec.succeeded = not rec.failure
        rec.completed_at = self.env.now
        self.reconfigurations.append(rec)
        if span is not None:
            span.end(
                t=self.env.now, new_size=rec.new_size,
                bytes=rec.moved_bytes, succeeded=rec.succeeded,
                failure=rec.failure,
            )
        self._release(retiree if rec.succeeded and order.kind == "shrink"
                      else None)

    def _release(self, retiree: Optional[HpcmRuntime]) -> None:
        parked, self._parked = self._parked, {}
        self._reshaping = False
        for key, event in parked.items():
            directive = (
                "retire" if retiree is not None and key == id(retiree)
                else "resume"
            )
            if not event.triggered:
                event.succeed(directive)
        # A command may have raced in while we were reshaping.
        self._maybe_fire()

    def _capture_all(self, rec: ReconfigRecord) -> Any:
        """Pickle every rank's state, paying CPU in parallel; returns
        the per-rank blobs (rank order)."""
        blobs: List[bytes] = [b""] * len(self.runtimes)

        def _one(i, rt):
            blob = statexfer.capture(rt.state)
            blobs[i] = blob
            work = len(blob) / rt.serialize_rate
            if work > 0:
                yield rt.host.cpu.execute(work, label="hpcm-reshape-capture")

        waits = [
            self.env.process(_one(i, rt), name=f"reshape-capture:{i}")
            for i, rt in enumerate(self.runtimes)
        ]
        for wait in waits:
            yield wait
        return blobs

    def _repartition(self, new_size: int) -> List[Any]:
        states = [rt.state for rt in self.runtimes]
        new_states = self.runtimes[0].app.repartition(
            states, new_size, self.params, self.rng
        )
        if len(new_states) != new_size:
            raise RepartitionError(
                f"repartition returned {len(new_states)} states "
                f"for a world of {new_size}"
            )
        return new_states

    def _do_expand(self, order: ReconfigureOrder, rec: ReconfigRecord):
        hosts = []
        for name in order.hosts:
            try:
                host = self.mpi.cluster.host(name)
            except Exception:
                continue
            if getattr(host, "up", True):
                hosts.append(host)
        if not hosts:
            rec.failure = "no valid destination hosts"
            return
        old_size = len(self.runtimes)
        new_size = old_size + len(hosts)
        yield from self._capture_all(rec)
        new_states = self._repartition(new_size)

        # Parallel tree spawn: k fresh ranks in ceil(log2(k+1)) rounds.
        rounds = math.ceil(math.log2(len(hosts) + 1))
        spawn_cost = self.mpi.spawn_latency * rounds
        if spawn_cost > 0:
            yield self.env.timeout(spawn_cost)

        # Ship each fresh rank its state share (real pickled size).
        shares = [statexfer.capture(s) for s in new_states[old_size:]]
        src = self.runtimes[0].host

        def _ship(host, blob):
            if host is not src:
                yield self.mpi.network.transfer(
                    src.name, host.name, len(blob),
                    label=f"reshape:{rec.app}",
                )
            else:  # pragma: no cover - same-host expansion
                yield self.env.timeout(self.mpi.local_latency)

        waits = [
            self.env.process(_ship(h, b), name=f"reshape-ship:{h.name}")
            for h, b in zip(hosts, shares)
        ]
        for wait in waits:
            yield wait
        rec.moved_bytes = sum(len(b) for b in shares)

        # Survivors take their new shares; fresh ranks join the group.
        for rt, state in zip(self.runtimes, new_states):
            rt.state = state
        step = self.runtimes[0].step_count
        added = []
        for host, state in zip(hosts, new_states[old_size:]):
            rank = len(self.group.procs)
            proc = MpiProcess(self.mpi, host, name=f"{rec.app}[{rank}]")
            self.group.add(proc)
            runtime = HpcmRuntime(
                self.mpi,
                self.app_factory(rank),
                proc,
                params=self.params,
                schema=self.schema,
                comm=Comm(self.group, proc),
                rng=self.rng,
                world=self,
                initial_state=state,
                initial_step=step,
                **self.runtime_kwargs,
            )
            self.runtimes.append(runtime)
            self.all_runtimes.append(runtime)
            added.append(host.name)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_APP_EXPAND, t=self.env.now, host=src.name,
                app=rec.app, added=",".join(added),
                new_size=len(self.runtimes),
            )

    def _do_shrink(
        self,
        order: ReconfigureOrder,
        rec: ReconfigRecord,
        retiree: Optional[HpcmRuntime],
    ):
        if retiree is None or retiree not in self.runtimes:
            rec.failure = "retiring rank already finished"
            return
        if len(self.runtimes) <= 1:
            rec.failure = "world cannot shrink below one rank"
            return
        new_size = len(self.runtimes) - 1
        yield from self._capture_all(rec)
        retired_blob = statexfer.capture(retiree.state)

        # repartition sees states in *current* rank order; survivors
        # then take the new shares in post-shrink rank order.
        survivors = [rt for rt in self.runtimes if rt is not retiree]
        new_states = self._repartition(new_size)

        # The retired rank's share travels to the first survivor.
        peer = survivors[0]
        if peer.host is not retiree.host:
            yield self.mpi.network.transfer(
                retiree.host.name, peer.host.name, len(retired_blob),
                label=f"reshape:{rec.app}",
            )
        else:
            yield self.env.timeout(self.mpi.local_latency)
        rec.moved_bytes = len(retired_blob)

        retired_host = retiree.host.name
        self.runtimes.remove(retiree)
        self.group.remove(retiree.process)
        for rt, state in zip(self.runtimes, new_states):
            rt.state = state
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_APP_SHRINK, t=self.env.now, host=peer.host.name,
                app=rec.app, removed=retired_host,
                new_size=len(self.runtimes),
            )


def launch_malleable_world(
    mpi: MpiRuntime,
    app_factory: Callable[[int], Any],
    hosts: list,
    params: Optional[dict] = None,
    schema: Optional[ApplicationSchema] = None,
    rng: Any = None,
    barrier_timeout: float = 60.0,
    **kwargs: Any,
) -> HpcmWorld:
    """Start a multi-rank application whose world can be reshaped.

    Like :func:`~repro.hpcm.runtime.launch_world`, but wires every rank
    to a shared :class:`HpcmWorld` and defaults the schema to the
    application's :meth:`~repro.hpcm.app.MigratableApp.malleable_schema`
    so the registry knows the reshape envelope.  Returns the world; the
    runtimes are ``world.runtimes``.
    """
    if not hosts:
        raise ValueError("need at least one host")
    app0 = app_factory(0)
    if schema is None:
        schema = app0.malleable_schema()
    name = app0.name
    procs = [
        MpiProcess(mpi, host, name=f"{name}[{i}]")
        for i, host in enumerate(hosts)
    ]
    group = CommGroup(mpi, procs, label=f"{name}.world")
    world = HpcmWorld(
        mpi, app_factory, group,
        params=params, schema=schema, rng=rng, runtime_kwargs=kwargs,
        barrier_timeout=barrier_timeout,
    )
    for rank, proc in enumerate(procs):
        runtime = HpcmRuntime(
            mpi,
            app_factory(rank),
            proc,
            params=params,
            schema=schema,
            comm=Comm(group, proc),
            rng=rng,
            world=world,
            **kwargs,
        )
        world.runtimes.append(runtime)
        world.all_runtimes.append(runtime)
    return world
