"""Determinism: identical seeds yield bit-identical experiment runs."""


from repro import Cluster, Rescheduler, ReschedulerConfig, policy_2
from repro.cluster import CpuHog
from repro.trace import Tracer, use
from repro.workloads import TestTreeApp

PARAMS = {"levels": 10, "trees": 40, "node_cost": 2e-3, "seed": 1}


def run(seed: int):
    tracer = Tracer()
    with use(tracer):
        cluster = Cluster(n_hosts=3, seed=seed)
        rs = Rescheduler(cluster, policy=policy_2(),
                         config=ReschedulerConfig(interval=10.0, sustain=3))
        app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)

        def inject(env):
            yield env.timeout(50)
            CpuHog(cluster["ws1"], count=4, name="extra")

        cluster.env.process(inject(cluster.env))
        cluster.env.run(until=app.done)
        cluster.env.run(until=cluster.env.now + 30)
    trace = [(r.t, r.name, r.host) for r in tracer.records]
    return app.finished_at, app.result, trace


def test_identical_seeds_identical_runs():
    a = run(seed=7)
    b = run(seed=7)
    assert a == b  # times, results and the full event trace match


def test_different_seeds_differ_in_timing_not_results():
    t_a, result_a, _ = run(seed=1)
    t_b, result_b, _ = run(seed=2)
    # Jittered monitoring shifts timing...
    assert t_a != t_b
    # ...but never the computation's result.
    assert result_a == result_b


def test_overhead_experiment_is_reproducible():
    from repro.analysis import run_overhead_experiment

    r1 = run_overhead_experiment(duration=1500, settle=600, seed=3)
    r2 = run_overhead_experiment(duration=1500, settle=600, seed=3)
    assert r1 == r2  # every overhead and every sampled series point
