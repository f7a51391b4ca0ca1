"""The six ledger workloads: input generators and output checks.

Each generator is a pure function of the benchmark seed and returns
plain data — experiment names, config dicts, cell seeds, host names,
metric dicts; why each workload was chosen is recorded once, in
``BENCHMARK.json``.  Nothing here imports ``repro``: the program sees the
inputs only when ``ledger/worker.py`` hands them to a public entry
point (``run_cell``, ``LiveEndpoint.send_message``), and it never sees
the benchmark seed except as ``run_cell``'s own ``seed`` argument.

The checks are pure functions of the program's outputs and return one
boolean per check, so a failing check is counted (``failed`` /
``attempted``) and never raises the timing away.

Load is fixed, not scaled by ``os.cpu_count()``: one sender thread, at
most ``INGEST_WINDOW`` heartbeats in flight, fixed batch sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Cell seeds of successive iterations: ``seed, seed + STRIDE, ...``.
#: Iteration 0 runs the benchmark seed itself, so ``--seed 0`` reports
#: the same simulated times as ``repro run``.
SEED_STRIDE = 7919

#: The metrics of one heartbeat, in the order a real sender emits them:
#: ``LiveNode._status_update().metrics`` on Linux, i.e.
#: ``repro.live.proc_sensors.snapshot(cpu_sampler, net_sampler)`` with
#: ``loadavg1`` and ``proc_count`` overridden by ``LiveNode._sample``.
#: Ten of the decision plane's fourteen ``METRIC_COLUMNS``: no live
#: sensor reads disk, absolute memory, sockets or swap.  One recorded
#: on the build machine (an idle node, no non-loopback traffic):
#: ``{'loadavg1': 0.1, 'loadavg5': 0.71, 'loadavg15': 1.06,
#: 'proc_count': 0.0, 'mem_avail_pct': 96.97350784926098,
#: 'cpu_idle_pct': 97.5609756097561, 'cpu_util': 0.024390243902439046,
#: 'recv_kbs': 0.0, 'send_kbs': 0.0, 'comm_mbs': 0.0}``.
#: The smoke test holds this tuple to a real snapshot's keys.
HEARTBEAT_METRICS = (
    "loadavg1", "loadavg5", "loadavg15", "proc_count", "mem_avail_pct",
    "cpu_idle_pct", "cpu_util", "recv_kbs", "send_kbs", "comm_mbs",
)

#: The modelled node: ``MemTotal`` in kB (8 GB), ``/proc/stat`` ticks in
#: one heartbeat interval (2 CPUs, 100 Hz, ``LiveNode``'s default
#: 0.5 s) and ``LiveNode``'s default base load.
NODE_MEM_TOTAL_KB = 8_128_000
NODE_TICKS_PER_BEAT = 100
NODE_BEAT_S = 0.5
NODE_BASE_LOAD = 0.1


def sensor_snapshot(rng: random.Random, tasks: int,
                    injected_load: float = 0.0) -> Dict[str, float]:
    """One heartbeat's metrics for a node running ``tasks`` tasks under
    ``injected_load`` of extra demo load (``LiveNode.current_load``).

    Raw readings (load averages to two decimals as ``/proc/loadavg``
    prints them, kB of free memory, idle ticks, interface byte counts)
    are drawn from ``rng`` and then put through the arithmetic of
    ``proc_sensors`` and ``LiveNode._sample``, so every value has the
    magnitude and the number of digits it has on the wire.  A node on a
    network moves a few hundred kB per interval; the recorded idle
    node's three zero rates are the shortest case, not the usual one.
    """
    mem_avail_kb = rng.randrange(NODE_MEM_TOTAL_KB // 2, NODE_MEM_TOTAL_KB)
    ticks = NODE_TICKS_PER_BEAT + rng.randrange(-3, 4)
    idle_ticks = rng.randrange(0, ticks + 1) if tasks else ticks
    dt = NODE_BEAT_S + rng.randrange(0, 5000) * 1e-6
    recv_kbs = rng.randrange(0, 400_000) / dt / 1024.0
    send_kbs = rng.randrange(0, 400_000) / dt / 1024.0
    idle_pct = 100.0 * idle_ticks / ticks
    return {
        "loadavg1": NODE_BASE_LOAD + tasks + injected_load,
        "loadavg5": rng.randrange(0, 300) / 100.0,
        "loadavg15": rng.randrange(0, 300) / 100.0,
        "proc_count": float(tasks),
        "mem_avail_pct": 100.0 * (mem_avail_kb * 1024)
        / (NODE_MEM_TOTAL_KB * 1024),
        "cpu_idle_pct": idle_pct,
        "cpu_util": 1.0 - idle_pct / 100.0,
        "recv_kbs": recv_kbs,
        "send_kbs": send_kbs,
        "comm_mbs": (send_kbs + recv_kbs) / 1024.0,
    }


INGEST_HOSTS = 64
INGEST_BATCH = 1000
#: Below the transport's ``listen(16)`` backlog, so the generator never
#: pushes the registry into SYN-drop collapse (see README, findings).
INGEST_WINDOW = 8
#: A heartbeat still unfolded after this long is failed, not slow.
INGEST_FOLD_TIMEOUT_S = 30.0

DECIDE_HOSTS = 256
DECIDE_BATCH = 300
#: The timed batches rotate reports over this many harness-owned
#: source endpoints, so that a source's next report comes three
#: decisions after its last.  A report that arrives while the pump
#: thread of the same host's previous decision is still alive meets
#: the registry's in-flight ``_deciding`` guard and is dropped without
#: an answer (README, findings): 1 in 2 600 from a single source, each
#: costing the 2 s timeout, and a timed run must hold no failing
#: operation.  Rotation makes that rare, the worker's pacing makes it
#: impossible.  The guard itself is measured by the traced pass's
#: probe: ``GUARD_BATCHES`` batches (the issue's 3 000 reports) from
#: one source, the issue's single client, unpaced, whose drops are
#: counted, not avoided; it sends nothing more once ``GUARD_BUDGET_S``
#: have passed.
DECIDE_SOURCES = 4
GUARD_BATCHES = 10
GUARD_BUDGET_S = 6.0
#: Batch index of the guard probe's first batch (no timed batch gets
#: there).
GUARD_BATCH = 1_000_000
#: A report with no command after this long is failed, not slow.
DECIDE_TIMEOUT_S = 2.0
DECIDE_PID = 7


def reported_process(rng: random.Random) -> dict:
    """The one rigid task an overloaded sender reports, shaped as
    ``LiveNode._status_update`` shapes it: started on the node's
    monotonic clock, estimated to run 60 s."""
    started_at = rng.randrange(10**9, 10**11) / 1e6
    return {
        "pid": DECIDE_PID, "name": "sqrt_sum", "start_time": started_at,
        "est_completion": started_at + 60.0, "data_locality": 0.0,
    }


@dataclass(frozen=True)
class SimInputs:
    """One sweep cell, re-run with a fresh cell seed per iteration."""

    experiment: str
    config: dict
    seed: int

    def cell_seed(self, iteration: int) -> int:
        return self.seed + SEED_STRIDE * iteration


@dataclass(frozen=True)
class LiveInputs:
    """Registered hosts (in registration order) and the batch shape."""

    seed: int
    hosts: Tuple[str, ...]
    batch_size: int

    def _rng(self, iteration: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + iteration)

    def heartbeats(
        self, iteration: int
    ) -> List[Tuple[str, Dict[str, float]]]:
        """Batch ``iteration`` as (host, metrics), round-robin: FREE
        nodes with at most one task (load 0.1 or 1.1, under a
        ``LiveNode``'s capacity threshold of 1.5)."""
        rng = self._rng(iteration)
        n = len(self.hosts)
        return [
            (self.hosts[i % n], sensor_snapshot(rng, rng.randrange(2)))
            for i in range(self.batch_size)
        ]

    def reports(self, iteration: int) -> List[Tuple[Dict[str, float], dict]]:
        """Batch ``iteration`` as (metrics, process) of an OVERLOADED
        sender: one task plus 0.5-3.0 of injected load."""
        rng = self._rng(iteration)
        return [
            (sensor_snapshot(rng, 1, rng.randrange(50, 300) / 100.0),
             reported_process(rng))
            for _ in range(self.batch_size)
        ]


def _hosts(seed: int, count: int) -> Tuple[str, ...]:
    names = [f"h{i:03d}" for i in range(count)]
    random.Random(seed).shuffle(names)
    return tuple(names)


def table2(seed: int) -> SimInputs:
    return SimInputs("table2", {}, seed)


def fig5_2(seed: int) -> SimInputs:
    # 1200 sim-s (300 settled), a third of the paper's hour: the work
    # per tick is the same, and at 0.8 s an iteration a run holds eight
    # samples a side where the full hour gave three.
    return SimInputs(
        "fig5", {"hosts": 2, "duration": 1200.0, "settle": 300.0}, seed
    )


def fig5_4096(seed: int) -> SimInputs:
    # 120 sim-s (40 settled) keeps one iteration near 2 s, so a run
    # collects several samples; the per-tick work per host is the same
    # as at the default 3600 s horizon.
    return SimInputs(
        "fig5", {"hosts": 4096, "duration": 120.0, "settle": 40.0}, seed
    )


def storm(seed: int) -> SimInputs:
    return SimInputs("malleability", {}, seed)


def live_ingest(seed: int) -> LiveInputs:
    return LiveInputs(seed, _hosts(seed, INGEST_HOSTS), INGEST_BATCH)


def live_decide(seed: int) -> LiveInputs:
    return LiveInputs(seed, _hosts(seed, DECIDE_HOSTS), DECIDE_BATCH)


GENERATORS = {
    "table2": table2,
    "fig5_2": fig5_2,
    "fig5_4096": fig5_4096,
    "storm": storm,
    "live_ingest": live_ingest,
    "live_decide": live_decide,
}


# -- output checks -----------------------------------------------------------

#: Table 2 (paper §5.3): policy 1 never migrates; policies 2 and 3
#: move the application off the loaded ws1.  Which host first fit finds
#: FREE depends on the seed's background load (ws2 on most seeds, the
#: paper's case), so the check holds the destination set, and the
#: paper's ordering of completion times, not one host name.
TABLE2_MIGRATES = {"policy1": False, "policy2": True, "policy3": True}
TABLE2_DESTINATIONS = ("ws2", "ws3", "ws4")


def check_table2(result: dict) -> List[bool]:
    checks = []
    for policy, migrates in TABLE2_MIGRATES.items():
        row = result.get(policy, {})
        checks.append(row.get("checksum_ok") is True)
        dest = row.get("migrated_to", "missing")
        checks.append(dest in TABLE2_DESTINATIONS if migrates
                      else dest is None)
    totals = [result.get(p, {}).get("total_s") or 0.0
              for p in ("policy3", "policy2", "policy1")]
    checks.append(0.0 < totals[0] <= totals[1] < totals[2])
    return checks


def check_fig5(result: dict) -> List[bool]:
    """The rescheduler adds a small positive load (paper: 3.9 %) to an
    idle baseline near the paper's 0.256."""
    base = result.get("load1_without", 0.0)
    overhead = result.get("load1_overhead", -1.0)
    return [0.2 < base < 0.3, 0.0 < overhead < 0.10]


def check_storm(result: dict) -> List[bool]:
    reshapes = result.get("reshapes") or []
    return [
        result.get("pi_ok") is True,
        bool(reshapes) and all(r.get("succeeded") for r in reshapes),
        0.0 < result.get("malleable_s", 0.0) < result.get("rigid_s", 0.0),
    ]


SIM_CHECKS = {
    "table2": check_table2,
    "fig5": check_fig5,
    "malleability": check_storm,
}


#: The simulated-time outputs the ledger reports, at the value they
#: take on a workload that has none.
NO_SIM_OUTPUTS = {"sim_completion_s": 0.0, "sim_migration_s": 0.0,
                  "sim_overhead_pct": 0.0}


def sim_outputs(experiment: str, result: dict) -> Dict[str, float]:
    out = dict(NO_SIM_OUTPUTS)
    if experiment == "table2":
        policy3 = result.get("policy3", {})
        out["sim_completion_s"] = float(policy3.get("total_s") or 0.0)
        out["sim_migration_s"] = float(policy3.get("migration_s") or 0.0)
    elif experiment == "malleability":
        out["sim_completion_s"] = float(result.get("malleable_s") or 0.0)
    elif experiment == "fig5":
        out["sim_overhead_pct"] = 100.0 * float(
            result.get("load1_overhead") or 0.0
        )
    return out


def check_folded(
    sent: Dict[str, Dict[str, float]],
    table: Dict[str, Optional[Dict[str, float]]],
) -> List[bool]:
    """After a drained ingest batch the registry's record of each host
    holds exactly the last metrics sent for it."""
    return [table.get(host) == metrics for host, metrics in sent.items()]


def check_command(command: Optional[dict], source: str,
                  first_free: str) -> bool:
    """A decision answers the reporting source, names its process and
    picks the first FREE host in registration order (first fit)."""
    return (
        command is not None
        and command.get("host") == source
        and command.get("pid") == DECIDE_PID
        and command.get("dest") == first_free
    )
