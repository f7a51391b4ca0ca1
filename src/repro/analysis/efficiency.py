"""Experiment driver for Figures 7 and 8: system efficiency (§5.2).

Timeline of the paper's run (10-second sample points):

* the migration-enabled process starts at t = 280 s (point 28);
* an additional long-running application overloads the workstation;
* after a ~72 s warm-up the monitor declares the host overloaded
  (the deliberate inertia that avoids fault migrations on short
  spikes); the decision itself takes ~0.002 s;
* the initialized process starts on the destination within ~0.3 s
  (LAM/MPI dynamic process management);
* the migrating process reaches its nearest poll-point in ~1.4 s;
* the initialized process resumes execution within ~1 s, in parallel
  with the remaining data restoration;
* after ~7.5 s the migration is complete, the source CPU utilization
  drops and the CPU serves the additional task (Figure 7); Figure 8
  shows the state-transfer spike on the network.
"""

from __future__ import annotations

from typing import Any, Dict

from ..cluster.background import CpuHog, DutyCycleLoad
from ..cluster.builder import Cluster
from ..core.policy import policy_2
from ..core.rescheduler import Rescheduler, ReschedulerConfig
from ..findings import CellArgumentError
from ..metrics.recorder import HostRecorder
from ..workloads.test_tree import TestTreeApp


def run_efficiency_experiment(
    app_start: float = 280.0,
    load_at: float = 428.0,
    duration: float = 1400.0,
    seed: int = 0,
    hogs: int = 4,
    sustain: int = 6,
    levels: int = 13,
    trees: int = 520,
    node_cost: float = 1.05e-5,
    serialize_rate: float = 250e6,
    chunks: int = 16,
    resume_fraction: float = 0.1,
) -> Dict[str, Any]:
    """Run the §5.2 scenario: the ``efficiency`` cell's summary — the
    migration's phase breakdown and timestamps, and the Figure 7/8 CPU
    and network series of source and destination as ``points()`` lists.

    Default workload: ~900 reference CPU-seconds of test_tree with
    ~40 MB of tree state resident during the sort phase, so the state
    transfer is long enough to show restoration overlapping execution.
    """
    if not 0.0 <= app_start <= load_at:
        raise CellArgumentError("app_start must lie between 0 and load_at")
    if duration <= load_at:
        raise CellArgumentError("duration must exceed load_at")
    cluster = Cluster(n_hosts=2, seed=seed)
    ws1, ws2 = cluster["ws1"], cluster["ws2"]
    DutyCycleLoad(ws1, mean_load=0.08, period=2.0, jitter=0.35,
                  rng=cluster.rng.stream("duty1"), name="daemons")
    DutyCycleLoad(ws2, mean_load=0.08, period=2.0, jitter=0.35,
                  rng=cluster.rng.stream("duty2"), name="daemons")
    rs = Rescheduler(
        cluster,
        policy=policy_2(),
        config=ReschedulerConfig(interval=10.0, sustain=sustain),
        registry_host="ws1",
    )
    rec1 = HostRecorder(ws1, interval=10.0)
    rec2 = HostRecorder(ws2, interval=10.0)

    params = {"levels": levels, "trees": trees, "node_cost": node_cost,
              "seed": seed}
    holder = {}

    def scenario(env):
        yield env.timeout(app_start)
        holder["app"] = rs.launch_app(
            TestTreeApp(), "ws1", params=params,
            serialize_rate=serialize_rate,
            chunks=chunks,
            resume_fraction=resume_fraction,
        )
        yield env.timeout(load_at - app_start)
        holder["hog"] = CpuHog(ws1, count=hogs, name="additional-task")

    cluster.env.process(scenario(cluster.env))
    cluster.run(until=duration)
    app = holder["app"]

    rec = next((m for m in app.migrations if m.succeeded), None)
    if rec is None:
        raise ValueError("no migration happened")
    decision = next(
        (d for d in rs.decisions if d.dest is not None), None
    )
    if decision is None:
        raise ValueError("no migration decision was made")
    checksum_ok = (
        app.status == "done"
        and abs(app.result - TestTreeApp.expected_checksum(params)) < 1e-5
    )
    return {
        "warmup_s": decision.at - load_at,
        "decision_s": rec.decision_seconds,
        "to_pollpoint_s": rec.time_to_pollpoint,
        "init_s": rec.init_seconds,
        "resume_s": rec.resume_seconds,
        "drain_s": rec.drain_seconds,
        "total_s": rec.total_seconds,
        "memory_mb": rec.memory_bytes / 2**20,
        "checksum_ok": checksum_ok,
        "succeeded": rec.succeeded,
        "ordered_at": rec.ordered_at,
        "resumed_at": rec.resumed_at,
        "completed_at": rec.completed_at,
        "app_started_at": app_start,
        "load_injected_at": load_at,
        "series": {
            name: [list(p) for p in recorder[metric].points()]
            for name, recorder, metric in (
                ("cpu_source", rec1, "cpu_util"),
                ("cpu_dest", rec2, "cpu_util"),
                ("send_source", rec1, "send_kbs"),
                ("recv_dest", rec2, "recv_kbs"),
            )
        },
    }
