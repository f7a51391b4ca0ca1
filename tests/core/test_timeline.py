"""A migration's timeline, read from the trace records of its run."""

import pytest

from repro import Cluster, Rescheduler, ReschedulerConfig, policy_2
from repro.cluster import CpuHog
from repro.trace import Tracer, use
from repro.trace.events import (
    EV_APP_FINISH,
    EV_APP_START,
    EV_HPCM_MIGRATION,
    EV_HPCM_POLLPOINT,
    EV_HPCM_RESUME,
    EV_REGISTRY_COMMAND,
    EV_REGISTRY_DECIDE,
)
from repro.workloads import TestTreeApp

PARAMS = {"levels": 10, "trees": 50, "node_cost": 2e-3, "seed": 1}


@pytest.fixture(scope="module")
def deployment():
    tracer = Tracer()
    with use(tracer):
        cluster = Cluster(n_hosts=3, seed=0)
        rs = Rescheduler(cluster, policy=policy_2(),
                         config=ReschedulerConfig(interval=10.0, sustain=3))
        app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)

        def inject(env):
            yield env.timeout(50)
            CpuHog(cluster["ws1"], count=4, name="extra")

        cluster.env.process(inject(cluster.env))
        cluster.env.run(until=app.done)
        cluster.env.run(until=cluster.env.now + 30)  # drain
    return tracer, app


def _end(record):
    return record.t + (record.dur or 0.0)


def test_timeline_causality(deployment):
    """App start ≤ decision ≤ command ≤ migration start ≤ resume ≤
    migration done ≤ app finish, each at its first record."""
    tracer, app = deployment
    first = {}
    for record in tracer.records:
        first.setdefault(record.name, record)
    times = [
        first[EV_APP_START].t,
        _end(first[EV_REGISTRY_DECIDE]),
        first[EV_REGISTRY_COMMAND].t,
        first[EV_HPCM_POLLPOINT].t,
        first[EV_HPCM_RESUME].t,
        _end(first[EV_HPCM_MIGRATION]),
        first[EV_APP_FINISH].t,
    ]
    assert times == sorted(times)
    assert first[EV_APP_START].host == "ws1"
    assert first[EV_APP_FINISH].host == app.host.name != "ws1"
