"""Experiment driver for the malleability cell (docs/malleability.md).

Not a figure from the 2004 paper: the N:M reconfiguration pipeline is
the post-paper extension (DMR-style malleability — see PAPERS.md), so
this experiment measures its payoff in the paper's own vocabulary.
The scenario is the Table 2 shape reduced to its essentials:

* an embarrassingly parallel job (``mc_pi``) starts on two of the
  cluster's hosts;
* ``load_at`` seconds in, additional tasks storm the first host;
* under the **rigid** policy (policy 2) the runtime can only move the
  contended rank 1:1;
* under the **malleable** policy the registry walks the reshape
  ladder instead — shrink on severe contention, grow while the
  efficiency curve clears the floor, 1:1 migration as the fallback.

The result compares completion times of the two runs and records the
reshape schedule (the world-side ``ReconfigRecord`` summaries), so a
sweep cell can pin both the speedup and the schedule.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from ..cluster.background import CpuHog
from ..cluster.builder import Cluster
from ..core.policy import MigrationPolicy, malleable_policy, policy_2
from ..core.rescheduler import Rescheduler, ReschedulerConfig
from ..workloads.montecarlo import MonteCarloPiApp
from .horizon import run_until_finished

#: ≈ 200 reference CPU-seconds per rank at world size 2.
DEFAULT_PARAMS = {
    "batches": 4000, "batch_size": 3000, "sample_cost": 1e-4, "seed": 2,
}


def _run_once(
    policy: MigrationPolicy,
    malleable: bool,
    params: dict,
    hosts: int,
    load_at: float,
    hogs: int,
    sustain: int,
    seed: int,
    max_duration: float,
) -> Dict[str, Any]:
    """One run of the storm scenario: its completion time, whether pi
    came out right, its largest world (2 when never reshaped), its 1:1
    migrations and its reshape records."""
    cluster = Cluster(n_hosts=hosts, seed=seed)
    rs = Rescheduler(
        cluster,
        policy=policy,
        config=ReschedulerConfig(interval=10.0, sustain=sustain),
    )
    world = rs.launch_mpi_app(
        MonteCarloPiApp, ["ws1", "ws2"], params=params,
        schema=MonteCarloPiApp(0).malleable_schema() if malleable else None,
    )

    def inject(env):
        yield env.timeout(load_at)
        CpuHog(cluster["ws1"], count=hogs, name="additional-tasks")

    cluster.env.process(inject(cluster.env))
    run_until_finished(cluster.env, world.finished, max_duration)

    # ``all_runtimes`` grows during the run when the world expands;
    # read it only after the clock stops.
    live = list(world.all_runtimes)
    done = [rt for rt in live if rt.status == "done"]
    completed = all(rt.status in ("done", "retired") for rt in live)
    completed_at = (
        max(rt.finished_at for rt in live) if completed and live
        else max_duration
    )
    pi = done[0].result if done else None
    reshaped = [
        rec.new_size for rec in rs.reconfiguration_records()
        if rec.succeeded
    ]
    return {
        "completed_at": completed_at,
        "pi_ok": pi is not None and abs(pi - math.pi) < 0.05,
        "peak_world": max([2] + reshaped),
        "migrations": len([r for r in rs.migration_records()
                           if r.succeeded]),
        "reshapes": [rec.summary() for rec in rs.reconfiguration_records()],
    }


def run_malleability_experiment(
    params: Optional[dict] = None,
    hosts: int = 6,
    load_at: float = 50.0,
    hogs: int = 3,
    sustain: int = 2,
    seed: int = 0,
    grow_at: float = 2.0,
    shrink_at: float = 4.0,
    min_efficiency: float = 0.5,
    max_duration: float = 4000.0,
) -> Dict[str, Any]:
    """The storm scenario under the rigid and the malleable policy: the
    ``malleability`` cell's summary."""
    params = dict(params or DEFAULT_PARAMS)
    common = dict(
        params=params, hosts=hosts, load_at=load_at, hogs=hogs,
        sustain=sustain, seed=seed, max_duration=max_duration,
    )
    rigid = _run_once(policy_2(), malleable=False, **common)
    grown = _run_once(
        malleable_policy(grow_at=grow_at, shrink_at=shrink_at,
                         min_efficiency=min_efficiency),
        malleable=True, **common,
    )
    rigid_s, malleable_s = rigid["completed_at"], grown["completed_at"]
    return {
        "rigid_s": rigid_s,
        "malleable_s": malleable_s,
        "speedup": rigid_s / malleable_s if malleable_s > 0 else 0.0,
        "pi_ok": rigid["pi_ok"] and grown["pi_ok"],
        "peak_world": grown["peak_world"],
        "migrations_rigid": rigid["migrations"],
        "reshapes": grown["reshapes"],
    }
