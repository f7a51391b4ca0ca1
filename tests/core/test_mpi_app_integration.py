"""Cooperating MPI application under autonomic management."""

import pytest

from repro import (
    Cluster,
    MetricPredicate,
    MigrationPolicy,
    Rescheduler,
    ReschedulerConfig,
)
from repro.cluster import CpuHog
from repro.workloads import StencilApp

POLICY = MigrationPolicy(
    name="stencil-test",
    triggers=(MetricPredicate("loadavg1", ">", 2.0),),
    dest_conditions=(MetricPredicate("proc_count", "<", 1.0),),
)

PARAMS = {"rows": 16, "cols": 16, "iterations": 80, "cell_cost": 4e-3,
          "seed": 0}


def run(disturb: bool) -> dict:
    cluster = Cluster(n_hosts=4, seed=0)
    rs = Rescheduler(cluster, policy=POLICY,
                     config=ReschedulerConfig(interval=10.0, sustain=3))
    world = rs.launch_mpi_app(lambda r: StencilApp(r),
                              ["ws1", "ws2"], params=PARAMS)
    ranks = world.all_runtimes
    if disturb:
        def inject(env):
            yield env.timeout(30)
            CpuHog(cluster["ws2"], count=4, name="surprise")

        cluster.env.process(inject(cluster.env))
    cluster.env.run(until=world.finished)
    return {
        "mean": ranks[0].result["mean"],
        "hosts": [rt.host.name for rt in ranks],
        "migrations": sum(rt.migration_count for rt in ranks),
    }


def test_stencil_rank_migrates_and_solution_unchanged():
    baseline = run(disturb=False)
    disturbed = run(disturb=True)
    assert disturbed["migrations"] == 1
    assert disturbed["hosts"][1] != "ws2"
    assert disturbed["hosts"][0] == "ws1"  # only the victim rank moved
    assert disturbed["mean"] == pytest.approx(baseline["mean"])
