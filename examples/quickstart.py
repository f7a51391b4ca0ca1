#!/usr/bin/env python
"""Quickstart: autonomic rescheduling of one MPI task.

Builds a 3-workstation cluster, deploys the rescheduler (per-host
monitors + commanders, one registry/scheduler), starts the paper's
``test_tree`` application on ws1, then overloads ws1.  The runtime
notices, picks a destination, and migrates the running process — which
finishes with the *exact same checksum* it would have produced without
moving.

Run:  python examples/quickstart.py
"""

from repro import Cluster, Rescheduler, ReschedulerConfig, policy_2
from repro.cluster import CpuHog
from repro.metrics import format_phase_table
from repro.trace import Tracer, use
from repro.workloads import TestTreeApp


def main() -> None:
    tracer = Tracer()
    with use(tracer):
        cluster = Cluster(n_hosts=3, seed=0)
        rescheduler = Rescheduler(
            cluster,
            policy=policy_2(),  # load > 2 or procs > 150 → migrate
            config=ReschedulerConfig(interval=10.0, sustain=3),
        )

        params = {"levels": 11, "trees": 60, "node_cost": 2e-4, "seed": 1}
        app = rescheduler.launch_app(TestTreeApp(), "ws1", params=params)
        print(f"test_tree started on ws1 "
              f"(~{TestTreeApp.total_work(params):.0f} CPU-seconds of work)")

        def inject(env):
            yield env.timeout(60)
            CpuHog(cluster["ws1"], count=4, name="surprise-load")
            print(f"[t={env.now:7.1f}s] four CPU hogs land on ws1")

        cluster.env.process(inject(cluster.env))
        cluster.env.run(until=app.done)

    print(f"[t={app.finished_at:7.1f}s] application finished on "
          f"{app.host.name}")
    for decision in rescheduler.decisions:
        print(f"  decision at t={decision.at:.1f}s: "
              f"{decision.source} -> {decision.dest} "
              f"(decided in {decision.decision_seconds * 1000:.1f} ms)")
    for record in app.migrations:
        print(f"  migration {record.source} -> {record.dest}: "
              f"{record.memory_bytes / 1024:.0f} KB of state, "
              f"total {record.total_seconds:.2f}s "
              f"(spawn {record.init_seconds:.2f}s, "
              f"resume {record.resume_seconds:.2f}s)")

    print()
    print(format_phase_table(tracer.records))
    print()

    expected = TestTreeApp.expected_checksum(params)
    status = "OK" if abs(app.result - expected) < 1e-6 else "MISMATCH"
    print(f"checksum {app.result:.6f} vs unmigrated ground truth "
          f"{expected:.6f} -> {status}")


if __name__ == "__main__":
    main()
