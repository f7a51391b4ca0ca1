"""End-to-end HPCM migration: correctness, timing phases, failures."""

import pytest

from repro.cluster import Cluster, CpuHog
from repro.hpcm import MigrationOrder, launch, launch_world
from repro.mpi import MpiRuntime
from repro.trace.events import EV_APP_FINISH
from repro.workloads import MonteCarloPiApp, TestTreeApp

from ..catalogued import catalogued
from .records import assert_terminal

PARAMS = {"levels": 8, "trees": 6, "node_cost": 1e-4, "seed": 3}


def setup(n_hosts=3, **kw):
    cluster = Cluster(n_hosts=n_hosts, seed=1, **kw)
    mpi = MpiRuntime(cluster)
    return cluster, mpi


def order_at(cluster, runtime, dest, when, reason="test"):
    def _issue(env):
        yield env.timeout(when)
        runtime.request_migration(
            MigrationOrder(dest_host=dest, issued_at=env.now, reason=reason)
        )

    cluster.env.process(_issue(cluster.env))


def finish(cluster, runtime):
    """Run the rank to its end and any drain behind it; the records."""
    cluster.env.run(until=runtime.done)
    cluster.env.run(until=cluster.env.now + 30)
    assert_terminal(runtime.migrations)
    return runtime.migrations


def test_app_completes_without_migration():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    result = cluster.env.run(until=rt.done)
    assert rt.status == "done"
    assert result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))
    assert rt.migrations == []


def test_result_invariant_under_migration():
    """The core HPCM property: a migrated run computes the identical
    result to an unmigrated one."""
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "ws2", when=0.5)
    result = cluster.env.run(until=rt.done)
    assert rt.migration_count == 1
    assert rt.host.name == "ws2"
    assert result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))


def test_multiple_migrations():
    # ~15 s of work so the app is still alive for all three orders.
    long_params = dict(PARAMS, node_cost=1e-3)
    cluster, mpi = setup(n_hosts=4)
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=long_params)
    order_at(cluster, rt, "ws2", when=0.3)
    order_at(cluster, rt, "ws3", when=4.0)
    order_at(cluster, rt, "ws4", when=8.0)
    result = cluster.env.run(until=rt.done)
    assert rt.migration_count == 3
    assert rt.host.name == "ws4"
    assert result == pytest.approx(
        TestTreeApp.expected_checksum(long_params)
    )


def test_migration_record_phases_ordered():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "ws2", when=0.5, reason="overloaded")
    cluster.env.run(until=rt.done)
    cluster.env.run(until=cluster.env.now + 10)  # let the drain finish
    (rec,) = rt.migrations
    assert rec.succeeded
    assert rec.reason == "overloaded"
    assert rec.ordered_at <= rec.pollpoint_at <= rec.spawned_at
    assert rec.spawned_at <= rec.resumed_at <= rec.completed_at
    assert rec.memory_bytes > 0
    assert rec.total_seconds > 0


def test_spawn_latency_visible_in_init_phase():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "ws2", when=0.5)
    cluster.env.run(until=rt.done)
    (rec,) = rt.migrations
    # LAM-like DPM latency (0.3 s default) dominates the init phase.
    assert rec.init_seconds >= 0.3


def test_restore_overlaps_execution():
    """Resume must happen before the last state byte arrives."""
    big = {"levels": 14, "trees": 3, "node_cost": 1e-5, "seed": 1}
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=big,
                chunks=16, resume_fraction=0.2)
    order_at(cluster, rt, "ws2", when=0.5)
    cluster.env.run(until=rt.done)
    cluster.env.run(until=cluster.env.now + 30)
    (rec,) = rt.migrations
    assert rec.succeeded
    assert rec.drain_seconds > 0  # bytes still draining after resume


def test_residency_split_recorded():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "ws2", when=1.0)
    cluster.env.run(until=rt.done)
    assert set(rt.residency) == {"ws1", "ws2"}
    assert rt.residency["ws1"] > 0 and rt.residency["ws2"] > 0
    total = rt.finished_at - rt.started_at
    assert sum(rt.residency.values()) == pytest.approx(total)


def test_migration_to_down_host_aborts_and_continues():
    cluster, mpi = setup()
    cluster["ws2"].crash()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "ws2", when=0.5)
    result = cluster.env.run(until=rt.done)
    assert rt.status == "done"
    assert rt.host.name == "ws1"  # never moved
    (rec,) = rt.migrations
    assert not rec.succeeded and "spawn failed" in rec.failure
    assert result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))


@pytest.mark.parametrize("crash, rung, ends_on", [
    (1.7, "spawn", "ws1"),
    (1.94, "transfer", "ws1"),
    (1.946, "drain", "ws2"),   # past the switch-over: no way back
])
def test_destination_crash_fails_the_rung_it_lands_in(crash, rung, ends_on):
    params = dict(PARAMS, levels=14)
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=params)
    order_at(cluster, rt, "ws2", when=0.5)

    def _crash(env):
        yield env.timeout(crash)
        cluster["ws2"].crash()

    cluster.env.process(_crash(cluster.env))
    (rec,) = finish(cluster, rt)
    assert not rec.succeeded and rec.failure == f"{rung} failed: " + (
        "host ws2 is down" if rung == "spawn" else "ws2")
    assert rt.status == "done" and rt.host.name == ends_on
    assert rt.result == pytest.approx(TestTreeApp.expected_checksum(params))
    # A failed attempt leaves no initialized process behind.
    assert cluster["ws2"].procs.count() == 0


def test_unpicklable_state_fails_the_migration_not_the_rank():
    class Unpicklable(TestTreeApp):
        def create_state(self, params, rng):
            state = super().create_state(params, rng)
            state.hook = lambda: None
            return state

    cluster, mpi = setup()
    rt = launch(mpi, Unpicklable(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "ws2", when=0.5)
    (rec,) = finish(cluster, rt)
    assert rt.status == "done" and rt.host.name == "ws1"
    assert rt.result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))
    assert not rec.succeeded and rec.failure.startswith("capture failed")
    assert cluster["ws2"].procs.count() == 0   # the spawn was undone


def test_migration_to_an_unknown_host_fails_the_attempt():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "nowhere", when=0.5)
    (rec,) = finish(cluster, rt)
    assert rt.status == "done" and rt.host.name == "ws1"
    assert not rec.succeeded and "nowhere" in rec.failure
    assert rec.dest == "nowhere"


def test_migration_to_self_is_noop():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    order_at(cluster, rt, "ws1", when=0.5)
    result = cluster.env.run(until=rt.done)
    (rec,) = rt.migrations
    assert not rec.succeeded
    assert result == pytest.approx(TestTreeApp.expected_checksum(PARAMS))


def test_newer_order_replaces_older_before_pollpoint():
    # Both orders arrive within one long step; only the newer applies.
    slow = {"levels": 12, "trees": 2, "node_cost": 1e-3, "seed": 2}
    cluster, mpi = setup(n_hosts=3)
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=slow)
    order_at(cluster, rt, "ws2", when=0.1)
    order_at(cluster, rt, "ws3", when=0.2)
    cluster.env.run(until=rt.done)
    assert rt.migration_count == 1
    assert rt.host.name == "ws3"


def test_preinitialization_skips_spawn_latency():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    pre = rt.preinitialize(cluster["ws2"])

    def scenario(env):
        yield pre
        rt.request_migration(
            MigrationOrder(dest_host="ws2", issued_at=env.now)
        )

    cluster.env.process(scenario(cluster.env))
    cluster.env.run(until=rt.done)
    (rec,) = rt.migrations
    assert rec.init_seconds < 0.3


def test_migration_runs_faster_on_faster_host():
    params = {"levels": 10, "trees": 20, "node_cost": 1e-4, "seed": 5}

    def run(migrate: bool) -> float:
        cluster, mpi = setup()
        cluster.add_host("fast", cpu_speed=4.0)
        rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=params)
        if migrate:
            order_at(cluster, rt, "fast", when=1.0)
        cluster.env.run(until=rt.done)
        return rt.finished_at

    assert run(migrate=True) < run(migrate=False)


def test_migration_away_from_contention_wins():
    params = {"levels": 10, "trees": 30, "node_cost": 1e-4, "seed": 5}

    def run(migrate: bool) -> float:
        cluster, mpi = setup()
        CpuHog(cluster["ws1"], count=3)  # heavy contention at source
        rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=params)
        if migrate:
            order_at(cluster, rt, "ws2", when=5.0)
        cluster.env.run(until=rt.done)
        return rt.finished_at

    migrated = run(migrate=True)
    stayed = run(migrate=False)
    assert migrated < stayed / 2  # 4x contention vs free host


def test_schema_updated_after_run():
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    assert rt.schema.run_count == 0
    cluster.env.run(until=rt.done)
    assert rt.schema.run_count == 1
    assert rt.schema.est_exec_time > 0


@catalogued(EV_APP_FINISH)
def test_app_exception_fails_runtime_not_simulation():
    class Exploding(TestTreeApp):
        def run_step(self, state, ctx):
            yield ctx.compute(0.1)
            raise RuntimeError("kaboom")

    cluster, mpi = setup()
    rt = launch(mpi, Exploding(), cluster["ws1"], params=PARAMS)
    caught = {}

    def waiter(env):
        try:
            yield rt.done
        except RuntimeError as exc:
            caught["exc"] = str(exc)

    cluster.env.process(waiter(cluster.env))
    cluster.env.run(until=60)
    assert rt.status == "failed"
    assert caught["exc"] == "kaboom"


def test_multirank_app_with_one_rank_migrating():
    cluster, mpi = setup(n_hosts=4)
    params = {"batches": 10, "batch_size": 5000, "sample_cost": 1e-5,
              "seed": 9}
    world = launch_world(
        mpi, lambda r: MonteCarloPiApp(r),
        [cluster["ws1"], cluster["ws2"]],
        params=params,
    )
    rts = world.all_runtimes
    order_at(cluster, rts[0], "ws3", when=0.2)
    cluster.env.run(until=world.finished)
    assert rts[0].migration_count == 1
    estimates = [rt.result for rt in rts]
    assert estimates[0] == pytest.approx(estimates[1])
    assert estimates[0] == pytest.approx(3.1416, abs=0.1)


def test_multirank_results_match_unmigrated_run():
    params = {"batches": 12, "batch_size": 2000, "sample_cost": 1e-5,
              "seed": 4}

    def run(migrate: bool):
        cluster, mpi = setup(n_hosts=3)
        world = launch_world(
            mpi, lambda r: MonteCarloPiApp(r),
            [cluster["ws1"], cluster["ws2"]],
            params=params,
        )
        rts = world.all_runtimes
        if migrate:
            order_at(cluster, rts[1], "ws3", when=0.1)
        cluster.env.run(until=world.finished)
        return rts[0].result

    assert run(True) == pytest.approx(run(False))
