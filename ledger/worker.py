"""One workload in one process: set-up, timed iterations, checks.

``ledger/run.py`` starts this file in a fresh interpreter per run and
reads one JSON object from the last line of its standard output.  The
process pins itself to one CPU (``speed.pin_to_one_cpu``).

Modes
-----
``setup``  build the workload's inputs and program state, report the
           time since the parent spawned us, exit.
``e2e``    warm up, then alternate untraced iterations (``wall_s``,
           ``cpu_s``) with the same iterations under ``repro.trace``
           plus a JSONL export (``wall_traced_s``) until the budget is
           spent, gauging the machine's speed between them and scaling
           each timing by it (``speed.py``); ``peak_rss_mb`` is the
           process's high-water mark.  Harness wrappers are never
           installed in this mode.
``trace``  on ``live_decide`` the single-source guard probe; then
           rounds of {plain, program-traced, harness-span} iterations
           while the budget (warm-up and the profile included) lasts,
           then one ``cProfile`` iteration; emits every per-layer
           metric and writes the spans of round 0 to
           ``ledger/results/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
RESULTS_DIR = os.path.join(LEDGER_DIR, "results")

#: Sends slower than this are counted as stalls (a SYN retransmit
#: behind a full ``listen`` backlog costs ~1 s).
SEND_STALL_S = 0.5
#: What the traced pass reserves for its closing ``cProfile`` iteration,
#: in plain iterations (measured: 1.6x on live_decide to 3.5x on fig5_2).
PROFILE_SLOWDOWN = 3.5


class Outcome:
    """What one iteration produced: checks and workload outputs."""

    def __init__(self, checks: List[bool], outputs: Dict[str, float],
                 latencies: Optional[Dict[str, List[float]]] = None):
        self.checks = checks
        self.outputs = outputs
        self.latencies = latencies or {}


class SimDriver:
    """``run_cell`` on a fresh cell seed per iteration."""

    def __init__(self, workload: str, seed: int):
        from repro.perf.experiments import run_cell

        import workloads

        self.inputs = workloads.GENERATORS[workload](seed)
        self._run_cell = run_cell
        self._check = workloads.SIM_CHECKS[self.inputs.experiment]
        self._outputs = workloads.sim_outputs

    def iteration(self, k: int, probe: Any = None) -> Outcome:
        inputs = self.inputs
        result = self._run_cell(
            inputs.experiment, inputs.config, inputs.cell_seed(k)
        )
        return Outcome(self._check(result),
                       self._outputs(inputs.experiment, result))

    def track(self, probe: Any) -> None:
        pass

    def close(self) -> None:
        pass


class LiveDriver:
    """One ``LiveRegistry`` on 127.0.0.1 and harness-owned endpoints.

    Set-up registers every host with one FREE heartbeat and waits
    until the registry has folded them all.
    """

    def __init__(self, workload: str, seed: int):
        from repro.live import LiveEndpoint, LiveRegistry
        from repro.protocol import MigrateCommand, StatusUpdate
        from repro.rules.states import SystemState

        import workloads

        self._w = workloads
        self.workload = workload
        self.inputs = workloads.GENERATORS[workload](seed)
        self._StatusUpdate = StatusUpdate
        self._MigrateCommand = MigrateCommand
        self._FREE = SystemState.FREE
        self._OVERLOADED = SystemState.OVERLOADED
        # The lease outlives any run: no host expires mid-measurement.
        self.registry = LiveRegistry(lease=3600.0, command_cooldown=0.0)
        self.client = LiveEndpoint("ledger-gen")
        self.sources = []
        if workload == "live_decide":
            self.sources = [
                LiveEndpoint(f"ledger-src{i}")
                for i in range(workloads.DECIDE_SOURCES)
            ]
        self._address = self.registry.address
        # One at a time: the registry serves each connection on its own
        # thread, and first fit follows the order the hosts were folded.
        registration = [
            (host, {"loadavg1": 0.1}) for host in self.inputs.hosts
        ]
        failed = self._ingest(registration, None, window=1)[0]
        if failed:
            raise RuntimeError(f"{failed} hosts failed to register")

    # -- ingest ---------------------------------------------------------
    def _folded(self) -> int:
        return sum(r.updates_received
                   for r in self.registry.table.records())

    def _ingest(self, heartbeats, probe,
                window: int) -> Tuple[int, List[float]]:
        """Closed loop: at most ``window`` heartbeats sent but not yet
        folded.  Returns (failed, send latencies)."""
        w = self._w
        updates = [
            self._StatusUpdate(host=host, state=self._FREE, metrics=m)
            for host, m in heartbeats
        ]
        send = self.client.send_message
        address = self._address
        base = self._folded()
        sent = known = refused = 0
        latencies = []
        for update in updates:
            while sent - known >= window:
                known = self._folded() - base
                if sent - known >= window:
                    time.sleep(0.0001)
            t0 = time.perf_counter()
            ok = send(address, update, time.time())
            latencies.append(time.perf_counter() - t0)
            if ok:
                sent += 1
            else:
                refused += 1
            if probe is not None:
                probe.sample_threads()
        deadline = time.monotonic() + w.INGEST_FOLD_TIMEOUT_S
        while known < sent and time.monotonic() < deadline:
            time.sleep(0.0001)
            known = self._folded() - base
        return refused + (sent - known), latencies

    def _ingest_iteration(self, k: int, probe: Any) -> Outcome:
        heartbeats = self.inputs.heartbeats(k)
        failed, latencies = self._ingest(heartbeats, probe,
                                         self._w.INGEST_WINDOW)
        checks = [True] * (len(heartbeats) - failed) + [False] * failed
        table = {r.host: r.metrics for r in self.registry.table.records()}
        checks += self._w.check_folded(dict(heartbeats), table)
        return Outcome(checks, self._w.NO_SIM_OUTPUTS,
                       {"send": latencies})

    # -- decide ---------------------------------------------------------
    def _decide(self, sources, k: int, probe: Any, paced: bool = True,
                stop_at: float = float("inf")):
        """Batch ``k`` of OVERLOADED reports, rotating over ``sources``,
        each waiting for its ``MigrateCommand``; no report is sent
        after ``stop_at`` (``perf_counter`` time).

        ``paced``: a source does not report while the registry's
        ``decide:<host>`` thread of its previous report is alive.  That
        thread still holds the host in the ``_deciding`` guard, and a
        report that meets the guard is dropped without an answer — 5
        of 362 700 even when rotating four sources (README, findings).

        Returns (checks, unanswered, decide latencies, send latencies).
        """
        w = self._w
        updates = [
            (sources[i % len(sources)], metrics, process)
            for i, (metrics, process) in enumerate(self.inputs.reports(k))
        ]
        updates = [
            (src, self._StatusUpdate(
                host=src.address, state=self._OVERLOADED,
                metrics=metrics, processes=[process]))
            for src, metrics, process in updates
        ]
        first_free = self.inputs.hosts[0]
        address = self._address
        checks, decide, sends = [], [], []
        unanswered = 0
        for src, update in updates:
            if paced:
                deciding = "decide:" + src.address
                while any(t.name == deciding
                          for t in threading.enumerate()):
                    time.sleep(0.0001)
            t0 = time.perf_counter()
            if t0 > stop_at:
                break
            ok = src.send_message(address, update, time.time())
            sends.append(time.perf_counter() - t0)
            command = None
            deadline = t0 + w.DECIDE_TIMEOUT_S
            while ok:
                item = src.recv(timeout=max(0.0,
                                            deadline - time.perf_counter()))
                if item is None:
                    break
                kind, payload = item
                if kind == "msg" and isinstance(payload[0],
                                                self._MigrateCommand):
                    msg = payload[0]
                    command = {"host": msg.host, "pid": msg.pid,
                               "dest": msg.dest}
                    break
            if command is None:
                unanswered += 1
            else:
                decide.append(time.perf_counter() - t0)
            checks.append(w.check_command(command, src.address,
                                          first_free))
            if probe is not None:
                probe.sample_threads()
        return checks, unanswered, decide, sends

    def _decide_iteration(self, k: int, probe: Any) -> Outcome:
        checks, _unanswered, decide, sends = self._decide(
            self.sources, k, probe)
        return Outcome(checks, self._w.NO_SIM_OUTPUTS,
                       {"send": sends, "decide": decide})

    def guard_probe(self, batches: int) -> Tuple[int, int, int]:
        """The issue's one client: ``batches`` unpaced batches from a
        single source, so that the registry's in-flight ``_deciding``
        guard can drop reports as it does for a real node.  A dropped
        report costs its 2 s timeout, so the probe sends nothing after
        ``GUARD_BUDGET_S``.  Returns (reports, dropped, wrongly
        answered)."""
        w = self._w
        stop_at = time.perf_counter() + w.GUARD_BUDGET_S
        reports = dropped = wrong = 0
        for k in range(batches):
            checks, unanswered, _decide, _sends = self._decide(
                self.sources[:1], w.GUARD_BATCH + k, None, paced=False,
                stop_at=stop_at)
            reports += len(checks)
            dropped += unanswered
            wrong += checks.count(False) - unanswered
        return reports, dropped, wrong

    def iteration(self, k: int, probe: Any = None) -> Outcome:
        if self.workload == "live_ingest":
            return self._ingest_iteration(k, probe)
        return self._decide_iteration(k, probe)

    def track(self, probe: Any) -> None:
        probe.track(self.registry.core)

    def close(self) -> None:
        self.registry.stop()
        self.client.close()
        for src in self.sources:
            src.close()


def make_driver(workload: str, seed: int):
    if workload.startswith("live_"):
        return LiveDriver(workload, seed)
    return SimDriver(workload, seed)


# -- timing ------------------------------------------------------------------

class Tally:
    """Check accounting over every iteration of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, outcome: Outcome) -> None:
        self.attempted += len(outcome.checks)
        self.failed += sum(1 for ok in outcome.checks if not ok)

    def add_check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def timed(fn) -> Tuple[float, float, Any]:
    """(wall, cpu, result) of ``fn()`` after a full collection, so no
    iteration pays for its predecessor's garbage."""
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall, time.process_time() - c0, result


def traced_iteration(driver, k: int, scratch: str):
    """One iteration under the program's own tracer, export included.
    Returns (outcome, records, export seconds)."""
    from repro import trace

    tracer = trace.Tracer()
    with trace.use(tracer):
        outcome = driver.iteration(k)
    t0 = time.perf_counter()
    trace.export_jsonl(tracer.records, scratch)
    return outcome, len(tracer.records), time.perf_counter() - t0


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_e2e(driver, seconds: float, scratch: str) -> dict:
    """Alternate untraced and program-traced iterations of the same
    inputs until the budget is spent, with a gauge of the machine's
    speed between every two.  Each timing is divided by the mean of
    the gauges on either side of it before the medians are taken: the
    machine's speed wanders by up to 40 % for minutes at a time, and a
    median of raw seconds inherits all of it (``speed.py``)."""
    import speed

    tally = Tally()
    walls, cpus, traced, raw_walls, slowdowns = [], [], [], [], []
    gauge = speed.slowdown()

    def scaled(fn) -> Tuple[float, float, float, Any]:
        """(wall, cpu) at reference speed, raw wall, result."""
        nonlocal gauge
        before = gauge
        wall, cpu, result = timed(fn)
        gauge = speed.slowdown(speed.GAUGE_SHARE * wall)
        slow = (before + gauge) / 2.0
        slowdowns.append(slow)
        return wall / slow, cpu / slow, wall, result

    def pair(k):
        wall, cpu, raw, outcome = scaled(lambda: driver.iteration(k))
        tally.add(outcome)
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw)
        wall, _cpu, _raw, result = scaled(
            lambda: traced_iteration(driver, k, scratch))
        tally.add(result[0])
        traced.append(wall)
        # Same inputs twice: the simulated outputs repeat exactly, and
        # the program's tracer does not move them.
        tally.add_check(result[0].outputs == outcome.outputs)

    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        pair(k)
        k += 1
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "samples": {"wall_s": len(walls), "wall_traced_s": len(traced),
                    "raw_wall_s": statistics.median(raw_walls),
                    "slowdown": statistics.median(slowdowns)},
        "metrics": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "wall_traced_s": statistics.median(traced),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def run_trace(driver, workload: str, seed: int, seconds: float,
              scratch: str, started: float) -> dict:
    """The per-layer pass.  The budget covers the whole pass since
    ``started`` (before the warm-up): rounds stop as soon as another
    round plus the closing ``cProfile`` iteration would overrun it, so
    only the minimum — warm-up, one round, the profile — can."""
    import speed
    from tracing import BUCKETS, ITERATION_SPAN, Probe, ThreadedProfile

    tally = Tally()
    plain_walls, traced_walls, span_walls = [], [], []
    export_s, records = [], []
    latencies: Dict[str, List[float]] = {"send": [], "decide": []}
    first: Dict[str, Any] = {}

    def one_round(k):
        wall, _cpu, outcome = timed(lambda: driver.iteration(k))
        tally.add(outcome)
        plain_walls.append(wall)
        for name, values in outcome.latencies.items():
            latencies[name].extend(values)

        wall, _cpu, result = timed(
            lambda: traced_iteration(driver, k, scratch))
        tally.add(result[0])
        traced_walls.append(wall)
        records.append(result[1])
        export_s.append(result[2])

        probe = Probe(iteration=k)
        driver.track(probe)
        probe.install()
        try:
            def spanned():
                frame = probe.open(ITERATION_SPAN)
                try:
                    return driver.iteration(k, probe)
                finally:
                    probe.close(frame)
            wall, _cpu, outcome = timed(spanned)
        finally:
            probe.uninstall()
        tally.add(outcome)
        span_walls.append(wall)
        if k == 0:
            # Round 0 runs the benchmark seed itself: its counts are
            # the exact, repeatable ones, and its spans go to disk.
            first["outputs"] = outcome.outputs
            first["layers"] = probe.layer_metrics()
            first["spans"] = probe.dump()

    # Before the rounds, so that its 2 s timeouts are charged to the
    # budget like everything else.
    guard_reports = dropped = 0
    if workload == "live_decide":
        from workloads import GUARD_BATCHES

        guard_reports, dropped, wrong = driver.guard_probe(
            GUARD_BATCHES if seconds > 0 else 1)  # --quick: one batch
        tally.attempted += guard_reports
        tally.failed += wrong

    # This pass reports raw seconds; the gauges say what machine they
    # were measured on.
    slowdowns = [speed.slowdown()]
    rounds = 0
    while True:
        round_start = time.perf_counter()
        one_round(rounds)
        rounds += 1
        slowdowns.append(speed.slowdown())
        now = time.perf_counter()
        planned = (now - started) + (now - round_start) \
            + PROFILE_SLOWDOWN * statistics.median(plain_walls)
        if planned > seconds:
            break

    gc.collect()
    profile = ThreadedProfile()
    profile.start()
    profiled = driver
    if workload.startswith("live_"):
        # The registry's long-lived threads only get a profiler if they
        # start under one: build a second registry, then discount its
        # set-up.
        profiled = make_driver(workload, seed)
        profile.mark()
    t0 = time.perf_counter()
    try:
        tally.add(profiled.iteration(0))
    finally:
        profile_wall = time.perf_counter() - t0
        buckets = profile.stop()
        if profiled is not driver:
            profiled.close()

    plain = statistics.median(plain_walls)
    send = latencies["send"]
    decide = latencies["decide"]
    metrics = dict(first["layers"])
    metrics.update(first["outputs"])
    metrics.update({f"{name}.self_s": buckets[name] for name in BUCKETS})
    metrics.update({
        # Reports the guard dropped fail in the issue's sense (no
        # command within 2 s) and count here; the result's ``failed``
        # holds wrong outputs only, see README.
        "fail_share": (tally.failed + dropped) / tally.attempted,
        "heartbeats_per_s": (
            driver.inputs.batch_size / plain
            if workload == "live_ingest" else 0.0),
        "decision_p50_ms": 1e3 * percentile(decide, 0.50),
        "live.decision_p95_ms": 1e3 * percentile(decide, 0.95),
        "live.decisions_dropped": dropped,
        "live.send_p50_us": 1e6 * percentile(send, 0.50),
        "live.send_p99_us": 1e6 * percentile(send, 0.99),
        "live.send_stalls": sum(1 for s in send if s > SEND_STALL_S),
        "trace.records": records[0],
        "trace.export_s": statistics.median(export_s),
        "trace.overhead_pct": 100.0 * (
            statistics.median(traced_walls) / plain - 1.0),
        "bench.trace_overhead_pct": 100.0 * (
            statistics.median(span_walls) / plain - 1.0),
        "bench.profile_wall_s": profile_wall,
        "bench.plain_wall_s": plain,
        "bench.machine_slowdown": statistics.median(slowdowns),
    })

    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans = first["spans"]
    spans.update({"workload": workload, "seed": seed})
    with open(os.path.join(RESULTS_DIR, f"trace-{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spans, fh)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "samples": {"rounds": rounds, "send": len(send),
                    "decide": len(decide), "guard_reports": guard_reports,
                    "guard_dropped": dropped},
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before spawn")
    parser.add_argument("--no-warmup", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"ledger: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, LEDGER_DIR)
    import speed

    speed.pin_to_one_cpu()
    driver = make_driver(args.workload, args.seed)
    try:
        setup_s = time.time() - args.spawned_at
        setup_gauge = speed.slowdown()
        if args.mode == "setup":
            result = {"metrics": {}}
        else:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            scratch = os.path.join(
                RESULTS_DIR, f"scratch-{os.getpid()}.jsonl")
            try:
                started = time.perf_counter()
                if not args.no_warmup:
                    driver.iteration(0)
                if args.mode == "e2e":
                    result = run_e2e(driver, args.seconds, scratch)
                else:
                    result = run_trace(driver, args.workload, args.seed,
                                       args.seconds, scratch, started)
            finally:
                if os.path.exists(scratch):
                    os.remove(scratch)
        result["setup_s"] = setup_s
        result["setup_gauge"] = setup_gauge
    finally:
        driver.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
