"""Harness-side tracing: boundary spans, exact counts, profile buckets.

Everything here observes the program from outside.  ``Probe.install``
replaces a fixed list of *public* callables of ``repro`` with wrappers
defined in this file and ``Probe.uninstall`` puts the originals back;
no file under ``src/`` knows the ledger exists.  Three sources feed the
per-layer metrics:

* **boundary spans** — one record per call of a wrapped function:
  id, name, start, end, parent span, iteration, self time (duration
  minus the part covered by child spans) and a payload size ``n``
  (bytes or rows).  Kept in memory; the worker writes them once, at
  exit.
* **exact counts** — ``itertools.count`` ticks on hot callables that
  need no timing, plus public attributes (``HostPlane.folds``,
  ``Monitor.cycles``, ``RegistryCore.decisions`` ...) read from the
  instances whose construction the probe saw.
* **profile buckets** — ``cProfile`` self time grouped by the
  ``src/repro/<package>`` a function's file lives in.  Time inside a
  C builtin is charged to the package of the Python function that
  called it, except for a few libraries (XML, pickle, numpy, socket,
  threading) and for blocking waits (``idle``), which get buckets of
  their own.

Spans and counts may be appended from several threads (the live
registry's serve and pump threads): every shared mutation during a
pass is a single ``list.append`` or ``next(count)``, both atomic under
the GIL, so the counts stay exact.  Span names are numbered by
``install``, before any thread can open one.
"""

from __future__ import annotations

import cProfile
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``src/repro/<package>`` names that get a ``<package>.self_s`` bucket.
LAYERS = (
    "sim", "cluster", "monitor", "rules", "registry", "protocol",
    "commander", "hpcm", "mpi", "schema", "trace", "metrics", "core",
    "workloads", "live",
)
#: Libraries with buckets of their own: the codecs and numpy, and the
#: two the live runtime's thread-per-connection transport leans on.
LIB_BUCKETS = ("lib.xml", "lib.pickle", "lib.numpy", "lib.socket",
               "lib.threading")
#: ``idle``: a thread parked in a blocking C call (the live runtime's
#: accept, recv, lock and sleep waits) — wall time, not work.
#: ``bench``: the ledger's own frames (the live load generator shares
#: the process with the registry it drives).
BUCKETS = LAYERS + LIB_BUCKETS + ("idle", "bench", "other")
_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__)).replace(
    os.sep, "/") + "/"
_BLOCKING = ("accept", "acquire", "sleep", "recv", "select", "poll")

_clock = time.perf_counter

#: The root span the worker opens around each span-pass iteration.
ITERATION_SPAN = "iteration"


class Probe:
    """Wrappers around the layer boundaries, installed for one pass."""

    def __init__(self, iteration: int = 0) -> None:
        self.iteration = iteration
        self.spans: List[tuple] = []
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: Dict[str, Any] = {}
        self._instances: Dict[str, list] = defaultdict(list)
        self._baselines: Dict[int, Tuple[int, int]] = {}
        self._originals: List[Tuple[Any, str, Any]] = []
        self.threads_peak = 0

    # -- span machinery -------------------------------------------------
    def _register(self, name: str) -> None:
        """Number a span name (single-threaded: called by ``install``)."""
        self._name_index[name] = len(self.names)
        self.names.append(name)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Begin a span on this thread; pass the result to ``close``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), self._name_index[name], parent, 0.0,
                 _clock()]
        stack.append(frame)
        return frame

    def close(self, frame: list, n: float = 0) -> None:
        end = _clock()
        span_id, idx, parent, child_s, start = frame
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][3] += duration
        self.spans.append((span_id, idx, start, end, parent,
                           self.iteration, duration - child_s, n))

    def _span_wrapper(self, fn: Callable, name: str,
                      size: Optional[Callable]) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            frame = probe.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                probe.close(
                    frame, size(args, result) if size is not None else 0
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        counter = self._counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _capture_wrapper(self, init: Callable, key: str) -> Callable:
        seen = self._instances[key]

        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            seen.append(self)

        wrapper.__wrapped__ = init
        return wrapper

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        """Wrap the layer boundaries (public callables only)."""
        import socket

        from repro.cluster.network import Network
        from repro.cluster.plane import HostPlane
        from repro.hpcm.record import MigrationRecord, ReconfigRecord
        from repro.monitor.database import MonitoringDatabase
        from repro.monitor.hub import MonitorHub
        from repro.monitor.monitor import Monitor
        from repro.mpi.comm import Comm
        from repro.protocol import messages
        from repro.protocol.messages import StatusUpdate
        from repro.registry.core import RegistryCore
        from repro.registry.softstate import SoftStateTable
        from repro.rules.evaluator import RuleEvaluator
        from repro.rules.states import SystemState
        from repro.rules.vector import VectorRuleEvaluator
        from repro.sim.fairshare import FairShareServer
        from repro.sim.kernel import Environment

        def overloaded(args, _result):
            msg = args[1]
            return int(isinstance(msg, StatusUpdate)
                       and msg.state is SystemState.OVERLOADED)

        spans = [
            (RegistryCore, "handle", "registry.handle", overloaded),
            (SoftStateTable, "update", "registry.update", None),
            (SoftStateTable, "push_many", "registry.push_many",
             lambda args, _r: len(args[1])),
            (messages, "encode", "protocol.encode",
             lambda _a, data: len(data or b"")),
            (messages, "decode", "protocol.decode",
             lambda args, _r: len(args[0])),
            (MonitoringDatabase, "record", "monitor.db_record", None),
            (RuleEvaluator, "evaluate_host_state", "rules.scalar", None),
            (VectorRuleEvaluator, "evaluate_host_states", "rules.vector",
             lambda _a, states: 0 if states is None else len(states)),
            (Network, "transfer", "cluster.transfer",
             lambda args, _r: max(0.0, float(args[3]))
             if len(args) > 3 else 0),
        ]
        self._register(ITERATION_SPAN)
        for owner, attr, name, size in spans:
            self._register(name)
            self._patch(
                owner, attr,
                lambda fn, name=name, size=size:
                self._span_wrapper(fn, name, size),
            )

        counts = [
            (FairShareServer, "submit", "sim.fairshare_jobs"),
            (Comm, "send", "mpi.sends"),
            (Comm, "bcast", "mpi.collectives"),
            (Comm, "reduce", "mpi.collectives"),
            (Comm, "gather", "mpi.collectives"),
            (Comm, "spawn", "mpi.spawns"),
            (socket, "create_connection", "live.connects"),
        ]
        for owner, attr, name in counts:
            self._patch(
                owner, attr,
                lambda fn, name=name: self._count_wrapper(fn, name),
            )

        for cls in (HostPlane, Monitor, MonitorHub, RegistryCore,
                    MigrationRecord, ReconfigRecord):
            self._patch(
                cls, "__init__",
                lambda init, key=cls.__name__:
                self._capture_wrapper(init, key),
            )

        # Kernel dispatches: the kernel's own public observer slot.
        events = self._counters["sim.events"] = itertools.count()

        def hook(_now, _event):
            next(events)

        def env_init(init):
            def wrapper(env, *args, **kwargs):
                init(env, *args, **kwargs)
                env.trace_hook = hook
            wrapper.__wrapped__ = init
            return wrapper

        self._patch(Environment, "__init__", env_init)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def track(self, core: Any) -> None:
        """Register a long-lived ``RegistryCore`` built before
        ``install`` (the live registry); its decision logs are reported
        as growth since this call."""
        self._instances["RegistryCore"].append(core)
        self._baselines[id(core)] = (
            len(core.decisions), len(core.reconfigurations),
        )

    def sample_threads(self) -> None:
        self.threads_peak = max(self.threads_peak,
                                threading.active_count())

    # -- read-out -------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Counts and span self-times of the pass, by metric name.
        Call once, after ``uninstall``."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        size: Dict[str, float] = defaultdict(float)
        for _id, idx, _t0, _t1, _parent, _it, own, n in self.spans:
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += own
            size[name] += n

        def count(name: str) -> int:
            # The next value of a counter is the number of ticks so
            # far; reading consumes one, so read-out happens once.
            counter = self._counters.get(name)
            return next(counter) if counter is not None else 0

        inst = self._instances
        decisions = reconfigurations = commands = 0
        for core in inst["RegistryCore"]:
            d0, r0 = self._baselines.get(id(core), (0, 0))
            decisions += len(core.decisions) - d0
            reconfigurations += len(core.reconfigurations) - r0
            commands += _commands(core.reconfigurations, r0)
        migrations = [r for r in inst["MigrationRecord"] if r.succeeded]
        reshapes = [r for r in inst["ReconfigRecord"] if r.succeeded]

        def mean(values: Iterable[float]) -> float:
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        reports = size["registry.handle"]
        return {
            "sim.events": count("sim.events"),
            "sim.fairshare_jobs": count("sim.fairshare_jobs"),
            "cluster.transfers": calls["cluster.transfer"],
            "cluster.net_bytes": size["cluster.transfer"],
            "cluster.plane_rows": sum(p.folds for p in inst["HostPlane"]),
            "monitor.cycles": sum(m.cycles for m in inst["Monitor"]),
            "monitor.hub_cycles": sum(
                h.core_cycles for h in inst["MonitorHub"]),
            "monitor.db_records": calls["monitor.db_record"],
            "monitor.db_s": self_s["monitor.db_record"],
            "rules.scalar_evals": calls["rules.scalar"],
            "rules.scalar_s": self_s["rules.scalar"],
            "rules.vector_calls": calls["rules.vector"],
            "rules.vector_rows": size["rules.vector"],
            "rules.vector_s": self_s["rules.vector"],
            "registry.handle_calls": calls["registry.handle"],
            "registry.handle_s": self_s["registry.handle"],
            "registry.update_calls": calls["registry.update"],
            "registry.push_many_calls": calls["registry.push_many"],
            "registry.push_many_rows": size["registry.push_many"],
            "registry.softstate_s": (self_s["registry.update"]
                                     + self_s["registry.push_many"]),
            "registry.decisions": decisions,
            "registry.reconfigurations": reconfigurations,
            "registry.decide_ok_ratio": (commands / reports
                                         if reports else 0.0),
            "protocol.encode_calls": calls["protocol.encode"],
            "protocol.encode_s": self_s["protocol.encode"],
            "protocol.decode_calls": calls["protocol.decode"],
            "protocol.decode_s": self_s["protocol.decode"],
            "protocol.wire_bytes": (size["protocol.encode"]
                                    + size["protocol.decode"]),
            "hpcm.migrations": len(migrations),
            "hpcm.reshapes": len(reshapes),
            "hpcm.state_bytes": (
                sum(r.memory_bytes for r in migrations)
                + sum(r.moved_bytes for r in reshapes)),
            "hpcm.sim_spawn_s": mean(r.init_seconds for r in migrations),
            "hpcm.sim_to_pollpoint_s": mean(
                r.time_to_pollpoint for r in migrations),
            "hpcm.sim_transfer_s": mean(
                r.drain_seconds for r in migrations),
            "hpcm.sim_resume_s": mean(
                r.resume_seconds for r in migrations),
            "hpcm.sim_barrier_s": mean(
                r.barrier_seconds for r in reshapes),
            "hpcm.sim_repartition_s": mean(
                r.reshape_seconds for r in reshapes),
            "mpi.sends": count("mpi.sends"),
            "mpi.collectives": count("mpi.collectives"),
            "mpi.spawns": count("mpi.spawns"),
            "live.connects": count("live.connects"),
            "live.threads_peak": self.threads_peak,
        }

    def dump(self) -> dict:
        """The pass's spans in a compact, JSON-safe form."""
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent",
                       "iteration", "self_s", "n"],
            "names": self.names,
            "spans": [list(span) for span in self.spans],
        }


def _commands(reconfigurations: list, start: int) -> int:
    """Decisions from index ``start`` on that named a destination —
    the ones that put a command on the wire."""
    return sum(1 for r in reconfigurations[start:] if r.dests)


# -- profile buckets ---------------------------------------------------------

def _bucket_of_file(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    if path.startswith(_LEDGER_DIR):
        return "bench"
    if "/repro/" in path:
        package = path.rsplit("/repro/", 1)[1].split("/", 1)[0]
        return package if package in LAYERS else "other"
    for marker, bucket in (("/xml/", "lib.xml"), ("/pickle", "lib.pickle"),
                           ("/numpy/", "lib.numpy"),
                           ("/socket.py", "lib.socket"),
                           ("/threading.py", "lib.threading"),
                           ("/queue.py", "lib.threading")):
        if marker in path:
            return bucket
    return "other"


def _bucket_of_builtin(name: str) -> Optional[str]:
    """Library bucket of a C function, or None to charge its caller."""
    if "numpy" in name:
        return "lib.numpy"
    if "pickle" in name:
        return "lib.pickle"
    if "xml." in name or "pyexpat" in name or "Element" in name:
        return "lib.xml"
    if any(word in name for word in _BLOCKING):
        return "idle"
    if "_socket" in name:
        return "lib.socket"
    if "_thread" in name:
        return "lib.threading"
    return None


def _bucket(code: Any) -> Optional[str]:
    if isinstance(code, str):
        return _bucket_of_builtin(code)
    return _bucket_of_file(code.co_filename)


def _flatten(stats: list) -> Dict[tuple, float]:
    """``(caller, callee) -> self time`` and ``(None, fn) -> self time``
    from one ``cProfile.Profile.getstats()`` list."""
    flat: Dict[tuple, float] = {}
    for entry in stats:
        flat[(None, entry.code)] = entry.inlinetime
        for sub in entry.calls or ():
            flat[(entry.code, sub.code)] = sub.inlinetime
    return flat


def bucket_self_times(
    profiles: Iterable[Tuple[Dict[tuple, float], Dict[tuple, float]]],
) -> Dict[str, float]:
    """Group self time by bucket over ``(before, after)`` flat stats of
    each profiled thread (``before`` is empty for a fresh profile)."""
    buckets = {name: 0.0 for name in BUCKETS}
    for before, after in profiles:
        charged: Dict[Any, float] = defaultdict(float)
        for (caller, code), seconds in after.items():
            if caller is None or not isinstance(code, str):
                continue
            if _bucket_of_builtin(code) is not None:
                continue
            seconds -= before.get((caller, code), 0.0)
            buckets[_bucket(caller) or "other"] += seconds
            charged[code] += seconds
        for (caller, code), seconds in after.items():
            if caller is not None:
                continue
            seconds -= before.get((None, code), 0.0)
            buckets[_bucket(code) or "other"] += seconds - charged[code]
    return buckets


class ThreadedProfile:
    """``cProfile`` over this thread and every thread started while
    active (the live registry's loops, serve and pump threads)."""

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._marks: Dict[int, Dict[tuple, float]] = {}

    def _start_thread(self, *_args) -> None:
        profile = cProfile.Profile()
        self._profiles.append(profile)
        profile.enable()  # replaces this bootstrap hook on the thread

    def start(self) -> None:
        threading.setprofile(self._start_thread)
        self._start_thread()

    def mark(self) -> None:
        """Exclude everything profiled so far (live set-up)."""
        for profile in list(self._profiles):
            self._marks[id(profile)] = _flatten(profile.getstats())

    def stop(self) -> Dict[str, float]:
        threading.setprofile(None)
        self._profiles[0].disable()
        return bucket_self_times(
            (self._marks.get(id(p), {}), _flatten(p.getstats()))
            for p in list(self._profiles)
        )
