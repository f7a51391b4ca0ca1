#!/usr/bin/env python
"""A cooperating MPI application under autonomic management.

A 4-rank Jacobi stencil runs across four workstations, exchanging halo
rows every iteration.  Mid-run, rank 1's host gets overloaded; the
rescheduler migrates *just that rank* to a spare host.  The halo
exchange keeps flowing — message routing follows the communicator's
rank → process mapping through the move — and the converged solution
is identical to an undisturbed run.

Run:  python examples/mpi_stencil.py
"""

from repro import (
    Cluster,
    MetricPredicate,
    MigrationPolicy,
    Rescheduler,
    ReschedulerConfig,
)
from repro.cluster import CpuHog
from repro.workloads import StencilApp

#: Like policy 2, but a destination must host no application process at
#: all.  (A load threshold would misfire here: ranks blocked in halo
#: waits let their hosts' load averages decay, making them look idle.)
POLICY = MigrationPolicy(
    name="stencil-demo",
    triggers=(MetricPredicate("loadavg1", ">", 2.0),),
    dest_conditions=(MetricPredicate("proc_count", "<", 1.0),),
)


def run(disturb: bool) -> dict:
    cluster = Cluster(n_hosts=5, seed=0)
    rs = Rescheduler(
        cluster, policy=POLICY,
        config=ReschedulerConfig(interval=10.0, sustain=3),
    )
    params = {"rows": 32, "cols": 32, "iterations": 120,
              "cell_cost": 2e-3, "seed": 0}
    world = rs.launch_mpi_app(
        lambda r: StencilApp(r),
        ["ws1", "ws2", "ws3", "ws4"],
        params=params,
    )
    ranks = world.all_runtimes

    if disturb:
        def inject(env):
            yield env.timeout(40)
            CpuHog(cluster["ws2"], count=4, name="surprise")
            print(f"[t={env.now:.0f}s] ws2 (hosting rank 1) overloaded")

        cluster.env.process(inject(cluster.env))

    cluster.env.run(until=world.finished)
    return {
        "result": ranks[0].result,
        "hosts": [rt.host.name for rt in ranks],
        "migrations": sum(rt.migration_count for rt in ranks),
        "finished": max(rt.finished_at for rt in ranks),
    }


def main() -> None:
    print("undisturbed run ...")
    baseline = run(disturb=False)
    print(f"  ranks ended on {baseline['hosts']}, "
          f"t={baseline['finished']:.0f}s")

    print("disturbed run (rank 1's host overloaded mid-run) ...")
    disturbed = run(disturb=True)
    print(f"  ranks ended on {disturbed['hosts']}, "
          f"{disturbed['migrations']} migration(s), "
          f"t={disturbed['finished']:.0f}s")

    same = abs(disturbed["result"]["mean"]
               - baseline["result"]["mean"]) < 1e-9
    print(f"solutions identical: {same} "
          f"(mean={baseline['result']['mean']:.6f})")
    assert same
    assert disturbed["hosts"][1] != "ws2"


if __name__ == "__main__":
    main()
