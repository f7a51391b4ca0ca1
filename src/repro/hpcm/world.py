"""The world of an MPI job, and its N:M reconfiguration at poll-point
barriers.

Every job is a :class:`HpcmWorld`: :func:`launch_world` starts one rank
per host, :func:`launch` a single-process application as the only rank
of a one-rank world.  A world whose schema is malleable
(:attr:`~repro.schema.ApplicationSchema.malleable`) can be *reshaped*
— grown onto fresh hosts (``Expand``) or shrunk off an overloaded one
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

The six steps are the rungs of :data:`RESHAPE`, driven by
:func:`repro.hpcm.ladder.climb`.  A failure on any rung — a barrier
that never assembles, unknown hosts, a :class:`RepartitionError`, a
destination that crashes under the state transfer — ends the attempt:
every rank resumes unchanged, and the failed attempt is still recorded.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

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
from .app import MigratableApp
from .errors import RepartitionError, WorldAborted
from .ladder import Attempt, Refusal, Rung, climb, leave
from .record import ReconfigRecord, ReconfigureOrder
from .runtime import HpcmRuntime
from . import statexfer

__all__ = ["HpcmWorld", "launch", "launch_world"]

#: A rank blocked inside a collective cannot park; after this many
#: seconds an unassembled barrier aborts the reshape, so the world never
#: deadlocks on its own reconfiguration.
BARRIER_TIMEOUT = 60.0


class HpcmWorld:
    """The ranks of one application: its communicator, its end, and
    the coordinator of its reshapes."""

    def __init__(
        self,
        mpi: MpiRuntime,
        app_factory: Callable[[int], Any],
        group: CommGroup,
        params: Optional[dict] = None,
        schema: Optional[ApplicationSchema] = None,
        rng: Any = None,
        runtime_kwargs: Optional[dict] = None,
    ):
        self.mpi = mpi
        self.env = mpi.env
        self.app_factory = app_factory
        self.group = group
        self.params = dict(params or {})
        #: Every rank's schema; ``None`` leaves each rank its app's
        #: rigid ``default_schema()``.
        self.schema = schema
        self.rng = rng
        self.runtime_kwargs = dict(runtime_kwargs or {})
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
        #: What every surviving rank fails with once the first rank has
        #: failed; ``None`` while none has.
        self.aborted: Optional[WorldAborted] = None
        #: The open reshape attempt — its record, order and retiree —
        #: from the accepted command until the terminal record; ``None``
        #: when idle.
        self._attempt: Optional[Attempt] = None
        self._parked: Dict[int, Any] = {}  # runtime id → release event

    # -- public views ---------------------------------------------------
    @property
    def size(self) -> int:
        """Current world size (live ranks)."""
        return len(self.runtimes)

    @property
    def reshape_pending(self) -> bool:
        return self._attempt is not None

    def add_rank(self, proc: MpiProcess, **start: Any) -> HpcmRuntime:
        """Start the runtime of ``proc``, already a member of the
        group — the one way a rank of this world is built, at launch
        and when an Expand joins (``start``: its state share and step)."""
        runtime = HpcmRuntime(
            self,
            self.app_factory(self.group.rank_of(proc)),
            proc,
            params=self.params,
            schema=self.schema,
            rng=self.rng,
            **start,
            **self.runtime_kwargs,
        )
        self.runtimes.append(runtime)
        self.all_runtimes.append(runtime)
        return runtime

    # -- the signal (commander → world) ---------------------------------
    def request_expand(self, order: ReconfigureOrder) -> tuple:
        """Grow the world onto ``order.hosts``; (delivered, detail)."""
        if self._attempt is not None:
            return False, "reshape already in progress"
        if not self.runtimes:
            return False, "world has no live ranks"
        if self.group.size != len(self.runtimes):
            return False, "world has finished ranks"
        if not order.hosts:
            return False, "expand order carries no destination hosts"
        self._open(order, None)
        return True, ""

    def request_shrink(
        self, runtime: HpcmRuntime, order: ReconfigureOrder
    ) -> tuple:
        """Retire ``runtime``'s rank; (delivered, detail)."""
        if self._attempt is not None:
            return False, "reshape already in progress"
        if runtime not in self.runtimes:
            return False, "rank is not a live member of this world"
        if self.group.size != len(self.runtimes):
            return False, "world has finished ranks"
        if len(self.runtimes) <= 1:
            return False, "world cannot shrink below one rank"
        self._open(order, runtime)
        return True, ""

    def _open(self, order: ReconfigureOrder,
              retiree: Optional[HpcmRuntime]) -> None:
        """Open the attempt and arm its barrier watchdog."""
        size = len(self.runtimes)
        rec = ReconfigRecord(
            app=self.runtimes[0].app.name,
            kind=order.kind,
            old_size=size,
            new_size=size,
            reason=order.reason,
            ordered_at=order.issued_at,
            decision_seconds=order.decision_seconds,
        )
        att = self._attempt = Attempt(
            self, order, rec, self.reconfigurations,
            span=HpcmWorld._reshape_span, release=HpcmWorld._release,
        )
        att.retiree, att.host = retiree, None

        def _watchdog():
            yield self.env.timeout(BARRIER_TIMEOUT)
            if self._attempt is att and not rec.steps:
                leave(att, ASSEMBLE, Refusal(
                    "barrier timeout: a rank never reached its "
                    "poll-point"))

        self.env.process(_watchdog(), name=f"reshape-watch:{rec.app}")
        self._maybe_fire()

    # -- the poll-point barrier (rung ``assemble``) ---------------------
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

        The first rank that fails aborts the world: every survivor's
        mailbox closes with :attr:`aborted`, which fails a rank blocked
        in a receive, and a computing rank raises it at its next
        poll-point (``HpcmRuntime._main``).
        """
        if runtime in self.runtimes:
            self.runtimes.remove(runtime)
            if runtime.status == "failed" and self.aborted is None:
                self.aborted = WorldAborted(
                    f"{runtime.app.name}: the rank on {runtime.host.name} "
                    f"failed: {runtime.error!r}")
                for survivor in self.runtimes:
                    survivor.process.mailbox.close(self.aborted)
            if not self.runtimes:
                self.finished.succeed()
        self._parked.pop(id(runtime), None)
        self._maybe_fire()

    def _maybe_fire(self) -> None:
        """Leave ``assemble`` once the barrier is decided: every live
        rank parked (the reshape process climbs the rest), or a rank
        finished first and the barrier can never assemble."""
        att = self._attempt
        if att is None or att.rec.steps:
            return
        if not self.runtimes:
            leave(att, ASSEMBLE,
                  Refusal("every rank finished before the barrier"))
        elif self.group.size != len(self.runtimes):
            # Membership is frozen (see rank_done): no reshape any more.
            leave(att, ASSEMBLE, Refusal("world has finished ranks"))
        elif all(id(rt) in self._parked for rt in self.runtimes):
            att.host = self.runtimes[0].host.name
            leave(att, ASSEMBLE)
            self.env.process(
                climb(att, RESHAPE[att.order.kind]),
                name=f"hpcm-reshape:{att.rec.app}",
            )

    def _reshape_span(self, att: Attempt) -> Optional[tuple]:
        rec = att.rec
        host = att.host or (
            self.runtimes[0].host.name if self.runtimes else None)
        if host is None:
            return None  # no rank left to pin the span to
        return EV_HPCM_REPARTITION, host, dict(
            app=rec.app, kind=rec.kind, old_size=rec.old_size,
            new_size=rec.new_size, bytes=rec.moved_bytes,
        )

    def _release(self, att: Attempt) -> None:
        """The attempt ended: wake every parked rank."""
        self._attempt = None
        retiree = att.retiree if att.rec.succeeded else None
        parked, self._parked = self._parked, {}
        for key, event in parked.items():
            event.succeed(
                "retire" if retiree is not None and key == id(retiree)
                else "resume"
            )

    # -- the rungs of RESHAPE, in order ---------------------------------
    def _validate_expand(self, att: Attempt) -> None:
        hosts = []
        for name in att.order.hosts:
            try:
                host = self.mpi.cluster.host(name)
            except KeyError:
                continue
            if host.up:
                hosts.append(host)
        if not hosts:
            raise Refusal("no valid destination hosts")
        att.hosts = hosts
        att.new_size = len(self.runtimes) + len(hosts)

    def _validate_shrink(self, att: Attempt) -> None:
        if att.retiree not in self.runtimes:
            raise Refusal("retiring rank already finished")
        att.new_size = len(self.runtimes) - 1

    def _helpers(self, named: List[tuple]):
        """Run ``(name, generator)`` helpers as parallel processes and
        wait for them in turn.  Each is defused first: the first
        failure fails the rung, and a second one, with nobody left
        waiting on it, must not raise out of ``env.run``."""
        helpers = [self.env.process(gen, name=name) for name, gen in named]
        for helper in helpers:
            helper.defuse()
        for helper in helpers:
            yield helper

    def _capture_all(self, att: Attempt):
        """Pickle every rank's state, paying CPU in parallel.  Only the
        pickles' lengths are kept."""
        att.sizes = [len(statexfer.capture(rt.state))
                     for rt in self.runtimes]

        def _pay(rt, nbytes):
            work = nbytes / rt.serialize_rate
            if work > 0:
                yield rt.host.cpu.execute(work, label="hpcm-reshape-capture")

        yield from self._helpers([
            (f"reshape-capture:{i}", _pay(rt, nbytes))
            for i, (rt, nbytes) in enumerate(zip(self.runtimes, att.sizes))
        ])

    def _repartition(self, att: Attempt) -> None:
        """States in *current* rank order in, ``new_size`` shares out."""
        states = [rt.state for rt in self.runtimes]
        att.states = self.runtimes[0].app.repartition(
            states, att.new_size, self.params, self.rng
        )
        if len(att.states) != att.new_size:
            raise RepartitionError(
                f"repartition returned {len(att.states)} states "
                f"for a world of {att.new_size}"
            )

    def _spawn(self, att: Attempt):
        """Parallel tree spawn: k fresh ranks in ceil(log2(k+1)) rounds
        — the one place a spawn strategy would plug in."""
        rounds = math.ceil(math.log2(len(att.hosts) + 1))
        spawn_cost = self.mpi.spawn_latency * rounds
        if spawn_cost > 0:
            yield self.env.timeout(spawn_cost)

    def _move(self, att: Attempt, src, dst, nbytes: int):
        """One state share over the simulated network."""
        if dst is not src:
            yield self.mpi.network.transfer(
                src.name, dst.name, nbytes, label=f"reshape:{att.rec.app}",
            )
        else:
            yield self.env.timeout(self.mpi.local_latency)

    def _ship_shares(self, att: Attempt):
        """Each fresh rank's share leaves rank 0's host (real pickled
        size), all of them in parallel."""
        sizes = [len(statexfer.capture(state))
                 for state in att.states[len(self.runtimes):]]
        src = self.runtimes[0].host
        yield from self._helpers([
            (f"reshape-ship:{host.name}", self._move(att, src, host, nbytes))
            for host, nbytes in zip(att.hosts, sizes)
        ])
        att.rec.moved_bytes = sum(sizes)

    def _ship_retired(self, att: Attempt):
        """The retired rank's share travels to the first survivor."""
        retiree = att.retiree
        nbytes = att.sizes[self.runtimes.index(retiree)]
        peer = next(rt for rt in self.runtimes if rt is not retiree)
        yield from self._move(att, retiree.host, peer.host, nbytes)
        att.rec.moved_bytes = nbytes

    def _join(self, att: Attempt) -> None:
        """Survivors take their new shares; fresh ranks join the group."""
        old_size = len(self.runtimes)
        step = self.runtimes[0].step_count
        for rt, state in zip(self.runtimes, att.states):
            rt.state = state
        for host, state in zip(att.hosts, att.states[old_size:]):
            proc = MpiProcess(
                self.mpi, host, name=f"{att.rec.app}[{self.group.size}]")
            self.group.add(proc)
            self.add_rank(proc, initial_state=state, initial_step=step)
        att.rec.new_size = len(self.runtimes)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_APP_EXPAND, t=self.env.now, host=att.host,
                app=att.rec.app,
                added=",".join(host.name for host in att.hosts),
                new_size=att.rec.new_size,
            )

    def _retire(self, att: Attempt) -> None:
        """The retiree leaves the group; survivors take the new shares
        in post-shrink rank order."""
        retiree = att.retiree
        self.runtimes.remove(retiree)
        self.group.remove(retiree.process)
        for rt, state in zip(self.runtimes, att.states):
            rt.state = state
        att.rec.new_size = len(self.runtimes)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_APP_SHRINK, t=self.env.now,
                host=self.runtimes[0].host.name, app=att.rec.app,
                removed=retiree.host.name, new_size=att.rec.new_size,
            )


#: The poll-point barrier: waited out by ``park`` / ``rank_done`` / the
#: watchdog, which report it with :func:`~repro.hpcm.ladder.leave`.
ASSEMBLE = Rung("assemble", stamp="barrier_at")

#: A reshape, rung by rung, after ``assemble`` (docs/malleability.md
#: has the failure table).  ``join`` / ``retire`` come last because
#: they alone mutate membership: a failure before them undoes nothing.
RESHAPE = {
    "expand": (
        Rung("validate", HpcmWorld._validate_expand),
        Rung("capture_all", HpcmWorld._capture_all),
        Rung("repartition", HpcmWorld._repartition),
        Rung("spawn", HpcmWorld._spawn),
        Rung("ship", HpcmWorld._ship_shares),
        Rung("join", HpcmWorld._join),
    ),
    "shrink": (
        Rung("validate", HpcmWorld._validate_shrink),
        Rung("capture_all", HpcmWorld._capture_all),
        Rung("repartition", HpcmWorld._repartition),
        Rung("ship", HpcmWorld._ship_retired),
        Rung("retire", HpcmWorld._retire),
    ),
}


def launch_world(
    mpi: MpiRuntime,
    app_factory: Callable[[int], MigratableApp],
    hosts: list,
    params: Optional[dict] = None,
    schema: Optional[ApplicationSchema] = None,
    rng: Any = None,
    **kwargs: Any,
) -> HpcmWorld:
    """Start a multi-rank application, one rank per host, in host order.

    ``app_factory(rank)`` builds the per-rank application object; all
    ranks share the world communicator reachable as ``ctx.comm``.  The
    schema defaults to each rank's
    :meth:`~repro.hpcm.app.MigratableApp.default_schema` (rigid); pass
    ``app_factory(0).malleable_schema()`` to let the registry reshape
    the world.  ``kwargs`` go to every rank's
    :class:`~repro.hpcm.runtime.HpcmRuntime`.  Returns the world; the
    runtimes are ``world.runtimes``.
    """
    if not hosts:
        raise ValueError("need at least one host")
    name = app_factory(0).name
    procs = [
        MpiProcess(mpi, host, name=f"{name}[{i}]")
        for i, host in enumerate(hosts)
    ]
    return _start(mpi, app_factory, procs, name, params=params,
                  schema=schema, rng=rng, runtime_kwargs=kwargs)


def launch(
    mpi: MpiRuntime,
    app: MigratableApp,
    host: Any,
    params: Optional[dict] = None,
    schema: Optional[ApplicationSchema] = None,
    rng: Any = None,
    **kwargs: Any,
) -> HpcmRuntime:
    """Start a single-process application on ``host``: the only rank of
    a one-rank world, whose process keeps the name ``app.name``.

    Every rank of this world would be ``app`` itself, so a world that
    may grow is started with :func:`launch_world` and a factory.
    """
    if schema is not None and schema.malleable:
        raise ValueError(f"{app.name}: a malleable schema needs "
                         "launch_world() and a per-rank app factory")
    proc = MpiProcess(mpi, host, name=app.name)
    world = _start(mpi, lambda rank: app, [proc], app.name, params=params,
                   schema=schema, rng=rng, runtime_kwargs=kwargs)
    return world.runtimes[0]


def _start(mpi: MpiRuntime, app_factory: Callable[[int], Any],
           procs: list, name: str, **world_kw: Any) -> HpcmWorld:
    """A world over ``procs``, one rank each, all started."""
    group = CommGroup(mpi, procs, label=f"{name}.world")
    world = HpcmWorld(mpi, app_factory, group, **world_kw)
    for proc in procs:
        world.add_rank(proc)
    return world
