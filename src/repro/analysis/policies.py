"""Experiment driver for Table 2: rescheduling and policies (§5.3).

The five-workstation scenario:

* **ws1** — source; the application starts here, then additional tasks
  overload it;
* **ws2** — busy communicating with ws5 at ~6.7–7.8 MB/s (which makes
  its load average hover just *below* 1 — Policy 2's blind spot);
* **ws3** — CPU workload of ~2.52;
* **ws4** — free;
* **ws5** — the other end of ws2's bulk flow.

Paper results:

====== ========== ========= ============ ============ ===========
policy total (s)  migrate→  source (s)   dest (s)     migration (s)
====== ========== ========= ============ ============ ===========
1      983.6      —         983.6        0            —
2      433.27     ws2       242.68       198.98       8.31
3      329.71     ws4       221.28       115.13       6.71
====== ========== ========= ============ ============ ===========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster.background import BulkTransferLoad, CpuHog, DutyCycleLoad
from ..cluster.builder import Cluster
from ..core.policy import MigrationPolicy, policy_1, policy_2, policy_3
from ..core.rescheduler import Rescheduler, ReschedulerConfig
from ..workloads.test_tree import TestTreeApp
from .horizon import run_until_finished

#: Default workload: ≈245 reference CPU-seconds so the no-migration run
#: lands near the paper's 983.6 s under 5-way contention.
DEFAULT_PARAMS = {
    "levels": 11, "trees": 80, "node_cost": 1.15e-4, "seed": 7,
}


@dataclass
class PolicyRunResult:
    """One row of Table 2."""

    policy_name: str
    total_seconds: float
    migrated_to: Optional[str]
    source_seconds: float
    dest_seconds: float
    migration_seconds: Optional[float]
    checksum_ok: bool
    decision_at: Optional[float]

    def row(self) -> tuple:
        return (
            self.policy_name,
            round(self.total_seconds, 2),
            self.migrated_to or "-",
            round(self.source_seconds, 2),
            round(self.dest_seconds, 2),
            round(self.migration_seconds, 2)
            if self.migration_seconds is not None else "-",
        )


def run_policy_experiment(
    policy: MigrationPolicy,
    params: Optional[dict] = None,
    load_at: float = 60.0,
    hogs: int = 4,
    seed: int = 0,
    sustain: int = 4,
    bulk_rate: float = 7.25e6,
    ws3_load: float = 2.52,
    max_duration: float = 4000.0,
) -> PolicyRunResult:
    """Run the Table 2 scenario under one policy.

    The clock stops ``DRAIN_SECONDS`` after the job ends, or at
    ``max_duration`` if that comes first.  A job cut off by the cap
    reports the cap as ``total_seconds`` and ``checksum_ok`` false;
    its residency split counts only hosts it had already left.
    """
    params = dict(params or DEFAULT_PARAMS)
    cluster = Cluster(n_hosts=5, seed=seed)
    # ws2 ↔ ws5 bulk communication (→ ws2/ws5 load ≈ 0.97).
    BulkTransferLoad(cluster["ws2"], cluster["ws5"], rate=bulk_rate,
                     name="bulk")
    # ws3 carries a steady CPU workload of ~2.52.
    CpuHog(cluster["ws3"], count=2, name="ws3-work")
    DutyCycleLoad(cluster["ws3"], mean_load=min(ws3_load - 2.0, 0.9),
                  period=2.0, jitter=0.3,
                  rng=cluster.rng.stream("ws3-duty"), name="ws3-extra")

    rs = Rescheduler(
        cluster,
        policy=policy,
        config=ReschedulerConfig(interval=10.0, sustain=sustain),
        registry_host="ws1",
    )
    app = rs.launch_app(TestTreeApp(), "ws1", params=params)

    def inject(env):
        yield env.timeout(load_at)
        CpuHog(cluster["ws1"], count=hogs, name="additional-tasks")

    cluster.env.process(inject(cluster.env))
    run_until_finished(cluster.env, app.done, max_duration)

    record = next((m for m in app.migrations if m.succeeded), None)
    decision = next((d for d in rs.decisions if d.dest is not None), None)
    dest = record.dest if record else None
    done = app.status == "done"
    checksum_ok = done and (
        abs(app.result - TestTreeApp.expected_checksum(params)) < 1e-5
    )
    return PolicyRunResult(
        policy_name=policy.name,
        total_seconds=app.finished_at if done else float(max_duration),
        migrated_to=dest,
        source_seconds=app.residency.get("ws1", 0.0),
        dest_seconds=app.residency.get(dest, 0.0) if dest else 0.0,
        migration_seconds=record.total_seconds if record else None,
        checksum_ok=checksum_ok,
        decision_at=decision.at if decision else None,
    )


def run_table2(
    params: Optional[dict] = None, seed: int = 0, **kwargs
) -> Dict[int, PolicyRunResult]:
    """All three policies on identical scenarios (Table 2)."""
    return {
        1: run_policy_experiment(policy_1(), params=params, seed=seed,
                                 **kwargs),
        2: run_policy_experiment(policy_2(), params=params, seed=seed,
                                 **kwargs),
        3: run_policy_experiment(policy_3(), params=params, seed=seed,
                                 **kwargs),
    }
