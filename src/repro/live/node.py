"""A live node: worker + monitor + commander in one real process.

"A monitor and a commander entity reside on each host" (paper §3);
a :class:`LiveNode` plays both roles for one real OS process.  It owns
a TCP endpoint whose loop thread runs both roles (commander acks,
``StatusQuery`` answers, state resume, the monitor cadence), executes
checkpointable tasks on worker threads, and acts on incoming ``MigrateCommand``s by checkpointing the task at its
next poll-point and shipping the pickled state to the destination node
over a real socket (HPCM role, §3.3).

Both entity roles run the *same* cores as the simulation.  The monitor
role is a :class:`~repro.monitor.core.MonitorCore` classifying through
the full rule engine — simple and complex rules, policy
trigger/guard sharpening, the sustain warm-up, per-state monitoring
intervals — over a :class:`~repro.monitor.scripts.SnapshotScriptEngine`
whose snapshot combines genuine ``/proc`` readings with the node's
controllable demo load.  The commander role is a
:class:`~repro.commander.core.CommanderCore` whose delivery mechanism
is the paper's user-defined signal, here a flag the worker honours at
its next poll-point.

Load is the node's *task occupancy* plus any injected synthetic load —
deterministic for demos and tests — while genuine ``/proc`` metrics
ride along in the status updates for observability.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..commander.core import CommanderCore
from ..entity.clock import WallClock
from ..monitor.core import MonitorCore
from ..monitor.scripts import SnapshotScriptEngine
from ..protocol.messages import (
    ExpandCommand,
    MigrateCommand,
    Register,
    ShrinkCommand,
    StatusQuery,
    Unregister,
)
from ..rules.model import RuleSet, SimpleRule
from ..trace import get_tracer
from ..trace.events import EV_LIVE_RESUME, EV_LIVE_SHIP
from . import proc_sensors
from .tasks import TASK_MERGERS, TASK_SPLITTERS, TASK_TYPES
from .transport import LiveEndpoint

#: The idle node's own load, under its tasks and injected load.
BASE_LOAD = 0.1


@dataclass
class LiveTask:
    """One running (or checkpointed) task."""

    task_id: int
    task_type: str
    state: dict
    started_at: float
    est_seconds: float = 60.0
    done: threading.Event = field(default_factory=threading.Event)
    #: Set to ask the worker to checkpoint at the next poll-point.
    migrate_to: Optional[str] = None
    #: Set to ask the worker to shard across these nodes (Expand).
    expand_to: Optional[tuple] = None
    #: Set to ask the worker to fold into a peer on this node (Shrink).
    shrink_to: Optional[str] = None
    result: Optional[dict] = None
    hops: int = 0
    #: Malleability declaration, reported to the registry so its
    #: grow/shrink triggers see the same fields as the sim's schema.
    world_size: int = 1
    min_world: int = 1
    max_world: int = 1
    efficiency_curve: tuple = ()


def default_ruleset(capacity_threshold: float) -> RuleSet:
    """The demo classification as a real rule (§4): one simple rule on
    the 1-minute load average, busy past 0.9, overloaded past the
    node's capacity threshold."""
    rules = RuleSet()
    rules.add(SimpleRule(number=1, name="load", script="loadAvg.sh",
                         operator=">", busy=0.9,
                         overloaded=capacity_threshold))
    return rules


class LiveNode:
    """One virtual host of the live deployment."""

    _ids = itertools.count(1)

    def __init__(
        self,
        name: str,
        registry_address: Optional[str] = None,
        interval: float = 0.5,
        capacity_threshold: float = 1.5,
        port: int = 0,
        ruleset: Optional[RuleSet] = None,
        policy: Any = None,
        sustain: int = 1,
        intervals_by_state: Optional[dict] = None,
    ):
        self.name = name
        self.endpoint = LiveEndpoint(name, port=port)
        self.registry_address = registry_address
        self.capacity_threshold = float(capacity_threshold)
        self.injected_load = 0.0
        self.tasks: Dict[int, LiveTask] = {}
        self.completed: list = []
        self.migrations_out = 0
        self.migrations_in = 0
        self.expands_out = 0
        self.shrinks_out = 0
        self.merges_in = 0
        #: Shared by the task threads, the endpoint's loop and callers:
        #: ``tasks``, ``injected_load`` and the counters above.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._cpu = proc_sensors.CpuIdleSampler()
        self._net = proc_sensors.NetRateSampler()
        clock = WallClock()
        self._clock = clock
        self.engine = SnapshotScriptEngine(self._sample)
        self.monitor = MonitorCore(
            clock=clock,
            host_name=self.endpoint.address,
            registry_address=registry_address or "",
            script_engine=self.engine,
            ruleset=(default_ruleset(self.capacity_threshold)
                     if ruleset is None else ruleset),
            policy=policy,
            interval=interval,
            intervals_by_state=intervals_by_state,
            sustain=sustain,
        )
        self.commander = CommanderCore(
            clock=clock, host_name=self.endpoint.address,
            deliver=self._signal,
        )
        self.endpoint.serve(self._on_item)
        if registry_address:
            self.endpoint.call_later(0.0, self._register)

    # -- public API -------------------------------------------------------
    @property
    def address(self) -> str:
        return self.endpoint.address

    def submit(self, task_type: str, state: dict,
               est_seconds: float = 60.0,
               world_size: int = 1, min_world: int = 1,
               max_world: int = 1,
               efficiency_curve: tuple = (),
               hold: Optional[threading.Event] = None) -> LiveTask:
        """Run a checkpointable task on this node.

        ``min_world``/``max_world``/``efficiency_curve`` declare the
        task malleable (the live analog of the sim's application
        schema): the registry may then answer overload here with an
        ``ExpandCommand``/``ShrinkCommand`` instead of a migration.
        With ``hold`` the task is reported at once but waits at its
        first poll-point until ``hold`` is set, so a caller can wait
        for a command rather than race the task to it.
        """
        if task_type not in TASK_TYPES:
            raise KeyError(f"unknown task type {task_type!r}")
        task = LiveTask(
            task_id=next(self._ids),
            task_type=task_type,
            state=state,
            started_at=time.monotonic(),
            est_seconds=est_seconds,
            world_size=int(world_size),
            min_world=int(min_world),
            max_world=int(max_world),
            efficiency_curve=tuple(efficiency_curve),
        )
        with self._lock:
            self.tasks[task.task_id] = task
        threading.Thread(target=self._run_task, args=(task, hold),
                         name=f"{self.name}-task{task.task_id}",
                         daemon=True).start()
        return task

    def inject_load(self, load: float) -> None:
        """Add synthetic load (the demo's 'additional tasks')."""
        with self._lock:
            self.injected_load = float(load)

    def current_load(self) -> float:
        with self._lock:
            return (BASE_LOAD + len(self.tasks)
                    + self.injected_load)

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        if self.registry_address:
            # Best-effort clean leave; the lease expires it anyway.
            self.endpoint.send_message(
                self.registry_address,
                Unregister(host=self.address),
                timestamp=time.time(),
            )
        self.endpoint.close()

    # -- worker ---------------------------------------------------------
    def _run_task(self, task: LiveTask,
                  hold: Optional[threading.Event] = None) -> None:
        step = TASK_TYPES[task.task_type]
        while hold is not None and not hold.wait(0.05):
            if self._stop.is_set():
                return
        while not self._stop.is_set():
            more = step(task.state)  # one poll-point per iteration
            if more and task.shrink_to is not None:
                self._checkpoint_and_ship(task, task.shrink_to,
                                          merge=True)
                return
            if more and task.expand_to:
                self._split_and_ship(task)
                continue
            dest = task.migrate_to
            if dest is not None and more:
                self._checkpoint_and_ship(task, dest)
                return
            if not more:
                with self._lock:
                    if task.state.get("queue"):
                        # A merge landed between the final step and
                        # completion: adopt it instead of finishing.
                        continue
                    self.tasks.pop(task.task_id, None)
                    task.result = dict(task.state)
                    self.completed.append(task)
                task.done.set()
                return

    def _checkpoint_and_ship(self, task: LiveTask, dest: str,
                             merge: bool = False) -> None:
        blob = pickle.dumps(task.state, pickle.HIGHEST_PROTOCOL)
        header = {
            "task_type": task.task_type,
            "est_seconds": task.est_seconds,
            "origin": self.name,
            "hops": task.hops + 1,
            "merge": merge,
        }
        ok = self.endpoint.send_state(dest, header, blob)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(EV_LIVE_SHIP, t=self._clock.now, host=self.name,
                         task=task.task_id, dest=dest, bytes=len(blob),
                         ok=ok)
        with self._lock:
            self.tasks.pop(task.task_id, None)
            if ok:
                if merge:
                    self.shrinks_out += 1
                else:
                    self.migrations_out += 1
        if not ok:
            # Destination unreachable: resume locally (no loss).
            task.migrate_to = None
            task.shrink_to = None
            with self._lock:
                self.tasks[task.task_id] = task
            threading.Thread(target=self._run_task, args=(task,),
                             daemon=True).start()

    def _split_and_ship(self, task: LiveTask) -> None:
        """Expand: deal the task's remaining work into
        ``1 + len(dests)`` shards — shard 0 continues here, the rest
        resume on the destination nodes (the live analog of the sim
        world's poll-point repartition)."""
        dests = tuple(task.expand_to or ())
        task.expand_to = None
        splitter = TASK_SPLITTERS.get(task.task_type)
        if splitter is None or not dests:
            return
        with self._lock:
            shards = splitter(task.state, len(dests) + 1)
            task.state = shards[0]
            task.world_size += len(dests)
        tracer = get_tracer()
        for dest, shard in zip(dests, shards[1:]):
            blob = pickle.dumps(shard, pickle.HIGHEST_PROTOCOL)
            header = {
                "task_type": task.task_type,
                "est_seconds": task.est_seconds,
                "origin": self.name,
                "hops": task.hops + 1,
                "world": {
                    "world_size": task.world_size,
                    "min_world": task.min_world,
                    "max_world": task.max_world,
                    "efficiency_curve": tuple(task.efficiency_curve),
                },
            }
            ok = self.endpoint.send_state(dest, header, blob)
            if tracer.enabled:
                tracer.event(EV_LIVE_SHIP, t=self._clock.now,
                             host=self.name, task=task.task_id,
                             dest=dest, bytes=len(blob), ok=ok)
            with self._lock:
                if ok:
                    self.expands_out += 1
                else:
                    # Unreachable destination: fold the shard back in
                    # at the next poll-point (no loss).
                    TASK_MERGERS[task.task_type](task.state, shard)
                    task.world_size -= 1

    # -- on the endpoint's loop (commander + migration receiver) ----------
    def _on_item(self, item) -> None:
        kind, payload = item
        if kind == "msg":
            msg, sender, ts = payload
            if isinstance(msg, (ExpandCommand, MigrateCommand, ShrinkCommand)):
                ack = self.commander.command(msg)
                self.endpoint.send_message(sender, ack,
                                           timestamp=time.time())
            elif isinstance(msg, StatusQuery):
                # The registry's pull path (§3.2): answer with a
                # full monitor cycle, same as the sim monitor.
                self.endpoint.send_message(sender,
                                           self._status_update(),
                                           timestamp=time.time())
        elif kind == "state":
            header, blob = payload
            state = pickle.loads(blob)
            if header.get("merge") and self._merge_state(header, state):
                return
            task = self.submit(header["task_type"], state,
                               est_seconds=header["est_seconds"],
                               **header.get("world", {}))
            task.hops = header.get("hops", 1)
            with self._lock:
                self.migrations_in += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(EV_LIVE_RESUME, t=self._clock.now,
                             host=self.name, task=task.task_id,
                             origin=header.get("origin", ""),
                             hops=task.hops)

    def _merge_state(self, header: dict, state: dict) -> bool:
        """Fold a retiring shard into a running task of its type (the
        shrink merge context).  Returns False when no peer runs here —
        the shard then resumes as its own task: a shrink degenerating
        to a migration, with no work lost either way."""
        merger = TASK_MERGERS.get(header["task_type"])
        if merger is None:
            return False
        with self._lock:
            for task in self.tasks.values():
                if task.task_type == header["task_type"]:
                    merger(task.state, state)
                    task.world_size = max(1, task.world_size - 1)
                    self.merges_in += 1
                    return True
        return False

    def _signal(self, msg: Any) -> tuple:
        """The user-defined signal: delivered as a flag the worker acts
        on at its next poll-point.  Returns (delivered, detail)."""
        with self._lock:
            task = self.tasks.get(msg.pid)
        if task is None:
            return False, f"no such task {msg.pid}"
        if isinstance(msg, ExpandCommand):
            if task.task_type not in TASK_SPLITTERS:
                return False, (
                    f"task type {task.task_type!r} is not splittable"
                )
            if not msg.dests:
                return False, "expand without destinations"
            task.expand_to = tuple(msg.dests)
            return True, ""
        if isinstance(msg, ShrinkCommand):
            if not msg.dest:
                return False, "shrink without a merge peer"
            task.shrink_to = msg.dest
            return True, ""
        task.migrate_to = msg.dest
        return True, ""

    # -- monitor ----------------------------------------------------------
    def _sample(self) -> dict:
        """One coherent snapshot: genuine /proc readings plus the
        node's controllable demo load."""
        metrics = proc_sensors.snapshot(self._cpu, self._net)
        metrics["loadavg1"] = self.current_load()
        with self._lock:
            metrics["proc_count"] = float(len(self.tasks))
        return metrics

    def _register(self) -> None:
        self.endpoint.send_message(
            self.registry_address,
            Register(host=self.address, static_info={"name": self.name}),
            timestamp=time.time(),
        )
        self.endpoint.call_later(self.monitor.current_interval(),
                                 self._monitor_tick)

    def _monitor_tick(self) -> None:
        if self._stop.is_set():
            return
        self.endpoint.send_message(
            self.registry_address,
            self._status_update(),
            timestamp=time.time(),
        )
        self.endpoint.call_later(self.monitor.current_interval(),
                                 self._monitor_tick)

    def _status_update(self):
        """One monitor cycle.  Cycles never overlap: the cadence and
        the ``StatusQuery`` pull path both run on the loop thread."""
        span = self.monitor.begin_cycle()
        snapshot = self.engine.refresh()
        with self._lock:
            processes = [
                {
                    "pid": t.task_id,
                    "name": t.task_type,
                    "start_time": t.started_at,
                    "est_completion": t.started_at + t.est_seconds,
                    "data_locality": 0.0,
                    "world_size": t.world_size,
                    "min_world": t.min_world,
                    "max_world": t.max_world,
                    "efficiency_curve": ",".join(
                        repr(float(v)) for v in t.efficiency_curve
                    ),
                }
                for t in self.tasks.values()
            ]
        return self.monitor.finish_cycle(span, snapshot, processes)
