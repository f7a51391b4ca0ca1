"""Rescheduler façade: end-to-end autonomic behaviour."""

import pytest

from repro import (
    Cluster,
    Rescheduler,
    ReschedulerConfig,
    policy_1,
    policy_2,
)
from repro.cluster import CpuHog
from repro.trace.events import EV_RESCHEDULER_STOP
from repro.workloads import MonteCarloPiApp, TestTreeApp

from ..catalogued import catalogued

PARAMS = {"levels": 10, "trees": 40, "node_cost": 2e-3, "seed": 1}


def deploy(n_hosts=3, policy=None, seed=0, **config_kw):
    cluster = Cluster(n_hosts=n_hosts, seed=seed)
    rs = Rescheduler(
        cluster,
        policy=policy or policy_2(),
        config=ReschedulerConfig(interval=10.0, sustain=3, **config_kw),
    )
    return cluster, rs


def test_deploys_one_monitor_and_commander_per_host():
    cluster, rs = deploy(n_hosts=4)
    assert set(rs.monitors) == {"ws1", "ws2", "ws3", "ws4"}
    assert set(rs.commanders) == {"ws1", "ws2", "ws3", "ws4"}
    assert rs.registry.host.name == "ws1"


def test_machine_list_preregistered_in_order():
    cluster, rs = deploy(n_hosts=4)
    assert [r.host for r in rs.registry.table.records()] == [
        "ws1", "ws2", "ws3", "ws4",
    ]


def test_autonomic_migration_end_to_end():
    """Overload appears → monitor detects → registry decides →
    commander signals → process migrates → identical result."""
    cluster, rs = deploy()
    app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)

    def inject(env):
        yield env.timeout(50)
        CpuHog(cluster["ws1"], count=4, name="extra")

    cluster.env.process(inject(cluster.env))
    cluster.env.run(until=app.done)
    assert app.migration_count == 1
    assert app.host.name != "ws1"
    assert app.result == pytest.approx(
        TestTreeApp.expected_checksum(PARAMS)
    )
    assert rs.decisions and rs.decisions[0].dest == app.host.name
    assert rs.migration_records()


def test_policy_1_never_migrates():
    cluster, rs = deploy(policy=policy_1())
    app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)

    def inject(env):
        yield env.timeout(50)
        CpuHog(cluster["ws1"], count=4, name="extra")

    cluster.env.process(inject(cluster.env))
    cluster.env.run(until=app.done)
    assert app.migrations == []
    assert app.host.name == "ws1"
    assert list(rs.decisions) == []


def test_migration_beats_no_migration():
    def run(policy):
        cluster, rs = deploy(policy=policy)
        app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)

        def inject(env):
            yield env.timeout(50)
            CpuHog(cluster["ws1"], count=4, name="extra")

        cluster.env.process(inject(cluster.env))
        cluster.env.run(until=app.done)
        return app.finished_at

    assert run(policy_2()) < run(policy_1()) * 0.6


def test_no_migration_without_overload():
    cluster, rs = deploy()
    app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)
    cluster.env.run(until=app.done)
    assert app.migrations == []


def test_host_failure_triggers_lease_expiry():
    """Soft state: a crashed destination disappears from the table and
    is never chosen."""
    cluster, rs = deploy(n_hosts=3, lease=25.0)
    cluster.run(until=30)  # everyone registered and pushing
    cluster["ws2"].crash()
    app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)

    def inject(env):
        yield env.timeout(40)
        CpuHog(cluster["ws1"], count=4, name="extra")

    cluster.env.process(inject(cluster.env))
    cluster.env.run(until=app.done)
    # ws2's lease expired; migration must pick ws3.
    assert app.host.name == "ws3"
    rec = rs.registry.table.get("ws2")
    from repro.rules import SystemState
    assert rs.registry.table.effective_state(rec) is (
        SystemState.UNAVAILABLE
    )


def test_multirank_app_under_rescheduler():
    cluster, rs = deploy(n_hosts=4)
    params = {"batches": 60, "batch_size": 2000, "sample_cost": 5e-4,
              "seed": 3}
    world = rs.launch_mpi_app(
        lambda r: MonteCarloPiApp(r), ["ws1", "ws2"], params=params
    )
    rts = world.all_runtimes

    def inject(env):
        yield env.timeout(30)
        CpuHog(cluster["ws1"], count=4, name="extra")

    cluster.env.process(inject(cluster.env))
    cluster.env.run(until=world.finished)
    # Rank 0 escaped ws1; both ranks agree on the estimate.
    assert rts[0].host.name != "ws1"
    assert rts[0].result == pytest.approx(rts[1].result)


@catalogued(EV_RESCHEDULER_STOP)
def test_stop_unregisters_monitored_hosts():
    cluster, rs = deploy()
    cluster.run(until=30)
    assert rs.registry.table.get("ws2") is not None
    rs.stop()
    cluster.run(until=120)
    # Monitors sent Unregister on their final tick; the registry
    # processed them before stopping its own pump.
    assert rs.registry.table.get("ws2") is None


def test_migration_records_count_the_ranks_an_expand_added(monkeypatch):
    """The storm scenario's malleable half (seed 0): its two launched
    ranks are all ``apps`` lists, yet the ranks Expands added migrate
    1:1 too, and each runtime's records count once."""
    from repro.analysis import malleability
    from repro.core.policy import malleable_policy

    built = []

    class Recording(Rescheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(malleability, "Rescheduler", Recording)
    malleability._run_once(
        malleable_policy(grow_at=2.0, shrink_at=4.0, min_efficiency=0.5),
        malleable=True, params=malleability.DEFAULT_PARAMS, hosts=6,
        load_at=50.0, hogs=3, sustain=2, seed=0, max_duration=4000.0,
    )
    (rs,) = built
    (world,) = rs.worlds
    assert len(rs.apps) == 2 < len(world.all_runtimes)
    records = rs.migration_records()
    assert len({id(rec) for rec in records}) == len(records)
    assert sorted(map(id, records)) == sorted(
        id(rec) for rt in world.all_runtimes for rec in rt.migrations)
    assert len([rec for rec in records if rec.succeeded]) == 11
