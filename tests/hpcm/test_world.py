"""Malleable worlds: N:M reshapes at poll-point barriers, aborts."""

import math

import pytest

from repro.analysis.horizon import DRAIN_SECONDS, run_until_finished
from repro.cluster import Cluster, CpuHog, HostDownError
from repro.hpcm import ReconfigureOrder, WorldAborted, launch, launch_world
from repro.hpcm.app import MigratableApp
from repro.mpi import MpiRuntime
from repro.trace.events import EV_APP_FINISH, EV_APP_SHRINK
from repro.workloads import MonteCarloPiApp

from ..catalogued import catalogued
from .records import assert_terminal

PI_PARAMS = {
    "batches": 40, "batch_size": 2000, "sample_cost": 1e-4, "seed": 2,
}


def setup(n_hosts=5, **kw):
    cluster = Cluster(n_hosts=n_hosts, seed=1, **kw)
    mpi = MpiRuntime(cluster)
    return cluster, mpi


def launch_malleable(mpi, app_factory, hosts, **kw):
    """A world whose schema declares the app's reshape envelope."""
    return launch_world(mpi, app_factory, hosts,
                        schema=app_factory(0).malleable_schema(), **kw)


def launch_pi(mpi, cluster, hosts=("ws1", "ws2"), params=PI_PARAMS,
              **kw):
    return launch_malleable(
        mpi, MonteCarloPiApp, [cluster[h] for h in hosts],
        params=dict(params), **kw,
    )


def expand_at(cluster, world, hosts, when, reason="test"):
    results = {}

    def _issue(env):
        yield env.timeout(when)
        results["reply"] = world.request_expand(ReconfigureOrder(
            kind="expand", issued_at=env.now, hosts=tuple(hosts),
            reason=reason,
        ))

    cluster.env.process(_issue(cluster.env))
    return results


def shrink_at(cluster, world, runtime, when, reason="test"):
    results = {}

    def _issue(env):
        yield env.timeout(when)
        results["reply"] = world.request_shrink(runtime, ReconfigureOrder(
            kind="shrink", issued_at=env.now, hosts=(),
            reason=reason,
        ))

    cluster.env.process(_issue(cluster.env))
    return results


def crash_at(cluster, name, when, back=None):
    """Take ``name`` off the network at ``when`` (and bring it back)."""
    def _outage(env):
        yield env.timeout(when)
        cluster[name].crash()
        if back is not None:
            yield env.timeout(back - when)
            cluster[name].recover()

    cluster.env.process(_outage(cluster.env))


def run_world(cluster, world, until=3000.0):
    """Wait for the job itself, not a horizon: ``world.finished`` plus
    the experiment drivers' drain, ``until`` only as the cap."""
    run_until_finished(cluster.env, world.finished, until)
    assert world.finished.processed and world.finished.ok
    assert world.runtimes == []
    assert_terminal(world.reconfigurations)
    assert all(rt.status in ("done", "retired")
               for rt in world.all_runtimes), [
        (rt.host.name, rt.status) for rt in world.all_runtimes
    ]
    done = [rt for rt in world.all_runtimes if rt.status == "done"]
    return done


def fire_times(cluster, world):
    """Clock readings at which ``world.finished`` was dispatched."""
    fired = []
    world.finished.callbacks.append(
        lambda event: fired.append(cluster.env.now))
    return fired


def last_exit(world):
    return max(rt.finished_at for rt in world.all_runtimes)


def test_world_completes_without_reshape():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    fired = fire_times(cluster, world)
    done = run_world(cluster, world)
    assert len(done) == 2 and world.reconfigurations == []
    assert fired == [last_exit(world)]
    assert cluster.env.now == last_exit(world) + DRAIN_SECONDS
    assert done[0].result == pytest.approx(math.pi, abs=0.05)


def test_expand_adds_ranks_and_preserves_the_estimate():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    expand_at(cluster, world, ("ws3", "ws4"), when=2.0)
    fired = fire_times(cluster, world)
    done = run_world(cluster, world)
    assert len(done) == 4
    # Once, and not before the ranks the Expand added have left too.
    assert fired == [last_exit(world)]
    assert all(rt.done.processed for rt in world.all_runtimes)
    (rec,) = world.reconfigurations
    assert rec.succeeded and rec.kind == "expand"
    assert rec.old_size == 2 and rec.new_size == 4
    assert rec.moved_bytes > 0
    assert rec.ordered_at <= rec.barrier_at <= rec.completed_at
    # Every rank agrees on the combined estimate, and no sample is lost.
    estimates = {round(rt.result, 12) for rt in done}
    assert len(estimates) == 1
    assert done[0].result == pytest.approx(math.pi, abs=0.05)
    total = sum(rt.state.total for rt in done)
    assert total == 2 * PI_PARAMS["batches"] * PI_PARAMS["batch_size"]


@catalogued(EV_APP_FINISH, EV_APP_SHRINK)
def test_shrink_retires_the_contended_rank():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster, hosts=("ws1", "ws2", "ws3"))
    victim = world.runtimes[0]
    shrink_at(cluster, world, victim, when=2.0)
    fired = fire_times(cluster, world)
    done = run_world(cluster, world)
    assert victim.status == "retired"
    # The retiree left long before the survivors: the job is finished
    # when the last of them is, not when the world first lost a rank.
    assert victim.finished_at < last_exit(world)
    assert fired == [last_exit(world)]
    assert len(done) == 2
    (rec,) = world.reconfigurations
    assert rec.succeeded and rec.kind == "shrink"
    assert rec.old_size == 3 and rec.new_size == 2
    # The retiree's partial counts folded into the survivors.
    total = sum(rt.state.total for rt in done)
    assert total == 3 * PI_PARAMS["batches"] * PI_PARAMS["batch_size"]
    assert done[0].result == pytest.approx(math.pi, abs=0.05)


def tally(runtimes):
    """(Σ inside, Σ samples) over the ranks' final states."""
    return (sum(rt.state.inside for rt in runtimes),
            sum(rt.state.total for rt in runtimes))


def unreshaped_tally(hosts):
    cluster, mpi = setup()
    return tally(run_world(cluster, launch_pi(mpi, cluster, hosts=hosts)))


@pytest.mark.parametrize("down, when, grown", [
    (("ws3",), 2.05, True),   # before the up-check: ws3 skipped
    (("ws3",), 2.2, False),
    (("ws3",), 2.3, False),
    (("ws3",), 2.35, False),
    (("ws3",), 2.5, False),
    (("ws3", "ws4"), 2.2, False),   # two shipments fail, one is awaited
])
def test_expand_outlives_a_destination_crash(down, when, grown):
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    expand_at(cluster, world, ("ws3", "ws4"), when=2.0)
    for name in down:
        crash_at(cluster, name, when)
    fired = fire_times(cluster, world)
    done = run_world(cluster, world)   # nothing raises, nobody stays parked
    assert fired == [last_exit(world)]
    (rec,) = world.reconfigurations
    assert rec.completed_at > rec.barrier_at >= 2.0
    if grown:
        assert rec.succeeded and rec.new_size == 3 and len(done) == 3
        assert tally(done)[1] == unreshaped_tally(("ws1", "ws2"))[1]
    else:
        assert not rec.succeeded and rec.failure == "ship failed: ws3"
        assert rec.new_size == 2 and len(world.all_runtimes) == 2
        # The ranks resumed with the states they parked with.
        assert tally(done) == unreshaped_tally(("ws1", "ws2"))


def test_shrink_outlives_a_survivor_crash():
    """The retiree's share cannot reach rank 0 on ws1.  (ws1 comes back
    before the job ends: ``Host.crash()`` only unplugs the NIC, and the
    final allreduce needs it.)"""
    hosts = ("ws1", "ws2", "ws3")
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster, hosts=hosts)
    shrink_at(cluster, world, world.runtimes[2], when=2.0)
    crash_at(cluster, "ws1", 2.2, back=2.4)
    done = run_world(cluster, world)
    (rec,) = world.reconfigurations
    assert not rec.succeeded and rec.failure == "ship failed: ws1"
    assert rec.completed_at > 2.0
    assert rec.new_size == 3 and len(done) == 3   # nobody retired
    assert tally(done) == unreshaped_tally(hosts)


def test_expand_then_shrink_round_trip():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    expand_at(cluster, world, ("ws3",), when=2.0)

    def _later(env):
        yield env.timeout(6.0)
        world.request_shrink(world.runtimes[0], ReconfigureOrder(
            kind="shrink", issued_at=env.now,
        ))

    cluster.env.process(_later(cluster.env))
    done = run_world(cluster, world)
    kinds = [rec.kind for rec in world.reconfigurations]
    assert kinds == ["expand", "shrink"]
    assert all(rec.succeeded for rec in world.reconfigurations)
    assert len(done) == 2
    assert done[0].result == pytest.approx(math.pi, abs=0.05)


def test_expand_refused_while_reshape_pending():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    first = expand_at(cluster, world, ("ws3",), when=2.0)
    second = expand_at(cluster, world, ("ws4",), when=2.0001)
    run_world(cluster, world)
    assert first["reply"] == (True, "")
    ok, detail = second["reply"]
    assert not ok and "in progress" in detail


def test_launch_refuses_a_malleable_schema():
    """``launch`` hands its one app object to every rank, so a world
    that may grow must come from ``launch_world`` and a factory."""
    cluster, mpi = setup()
    app = MonteCarloPiApp(0)
    with pytest.raises(ValueError, match="launch_world"):
        launch(mpi, app, cluster["ws1"], params=dict(PI_PARAMS),
               schema=app.malleable_schema())


def test_expand_order_without_hosts_refused():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    reply = expand_at(cluster, world, (), when=2.0)
    run_world(cluster, world)
    ok, detail = reply["reply"]
    assert not ok and "no destination hosts" in detail
    assert world.reconfigurations == []


def test_expand_to_unknown_hosts_aborts_and_resumes():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    reply = expand_at(cluster, world, ("nowhere", "nether"), when=2.0)
    done = run_world(cluster, world)
    assert reply["reply"] == (True, "")  # delivered, then aborted
    (rec,) = world.reconfigurations
    assert not rec.succeeded
    assert rec.failure == "no valid destination hosts"
    assert rec.old_size == rec.new_size == 2
    assert len(done) == 2  # everyone resumed unchanged
    assert done[0].result == pytest.approx(math.pi, abs=0.05)


def test_shrink_below_one_rank_refused():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster, hosts=("ws1",))
    reply = shrink_at(cluster, world, world.runtimes[0], when=2.0)
    run_world(cluster, world)
    ok, detail = reply["reply"]
    assert not ok and "below one rank" in detail


def test_shrink_of_a_foreign_runtime_refused():
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    other = launch_pi(mpi, cluster, hosts=("ws3", "ws4"))
    reply = shrink_at(cluster, world, other.runtimes[0], when=2.0)
    run_world(cluster, world)
    run_world(cluster, other)
    ok, detail = reply["reply"]
    assert not ok and "not a live member" in detail


class UnevenApp(MigratableApp):
    """No final collective: rank 1 finishes long before rank 0, so the
    world carries a finished rank mid-run (membership frozen)."""

    name = "uneven"

    def __init__(self, rank: int = 0):
        self.my_rank = rank

    def create_state(self, params: dict, rng):
        return {"steps": 0, "total": 3 if self.my_rank else 200}

    def run_step(self, state, ctx):
        yield ctx.compute(0.05, label="uneven-step")
        state["steps"] += 1
        return state["steps"] < state["total"]

    def repartition(self, states, new_size, params, rng):
        return [dict(states[min(i, len(states) - 1)])
                for i in range(new_size)]


def test_reshape_refused_once_a_rank_finished():
    cluster, mpi = setup()
    world = launch_malleable(
        mpi, UnevenApp, [cluster["ws1"], cluster["ws2"]], params={},
    )
    reply = expand_at(cluster, world, ("ws3",), when=2.0)
    cluster.env.run(until=60.0)
    ok, detail = reply["reply"]
    assert not ok and "finished ranks" in detail
    assert world.reconfigurations == []


def test_finished_waits_for_the_slow_rank_of_an_uneven_world():
    cluster, mpi = setup()
    world = launch_malleable(
        mpi, UnevenApp, [cluster["ws1"], cluster["ws2"]], params={},
    )
    fired = fire_times(cluster, world)
    cluster.env.run(until=1.0)
    assert [rt.status for rt in world.all_runtimes] == ["running", "done"]
    assert not world.finished.triggered
    cluster.env.run(until=world.finished)
    assert fired == [last_exit(world)] == [world.all_runtimes[0].finished_at]


class UnpicklableApp(UnevenApp):
    """Both ranks run the same hundred steps; the state holds a lambda."""

    name = "unpicklable"

    def create_state(self, params: dict, rng):
        return {"steps": 0, "total": 100, "hook": lambda: None}


def test_unpicklable_state_fails_the_reshape_not_the_world():
    cluster, mpi = setup()
    world = launch_malleable(
        mpi, UnpicklableApp, [cluster["ws1"], cluster["ws2"]], params={},
    )
    expand_at(cluster, world, ("ws3",), when=2.0)
    done = run_world(cluster, world)
    (rec,) = world.reconfigurations
    assert not rec.succeeded
    assert rec.failure.startswith("capture_all failed: ")
    assert len(done) == 2
    assert [rt.state["steps"] for rt in done] == [100, 100]


class FailingRankApp(UnevenApp):
    """Rank 1 (or, with ``params["all"]``, every rank) raises at its
    second step; there is no collective for the others to hang in."""

    name = "failing"

    def create_state(self, params: dict, rng):
        return dict(super().create_state(params, rng),
                    all=bool(params.get("all")))

    def run_step(self, state, ctx):
        more = yield from super().run_step(state, ctx)
        if state["steps"] == 2 and (self.my_rank == 1 or state["all"]):
            raise RuntimeError("rank blew up")
        return more


@pytest.mark.parametrize("everyone", [False, True])
def test_a_failed_rank_has_left_the_world(everyone):
    cluster, mpi = setup()
    world = launch_malleable(
        mpi, FailingRankApp, [cluster["ws1"], cluster["ws2"]],
        params={"all": everyone},
    )
    fired = fire_times(cluster, world)
    # ``finished`` succeeds — a failed rank does not raise out of the wait.
    cluster.env.run(until=world.finished)
    assert world.finished.ok
    # The first failure aborts the world: rank 0 fails with it at its
    # next poll-point unless it failed on its own.
    statuses = [rt.status for rt in world.all_runtimes]
    assert statuses == ["failed", "failed"]
    assert [type(rt.error) for rt in world.all_runtimes] == [
        RuntimeError if everyone else WorldAborted, RuntimeError]
    assert fired == [last_exit(world)] == [cluster.env.now]
    cluster.env.run(until=cluster.env.now + 5.0)
    assert len(fired) == 1


@pytest.mark.parametrize("crashed", ["ws2", "ws1"])
def test_a_crash_that_fails_a_rank_aborts_the_world(crashed):
    """MPI's default: a world that loses a rank aborts.  The crash
    fails one rank in the closing collective at 8.0 s; the other rank,
    blocked in a receive, fails with it, and ``finished`` fires long
    before the cap.  The rank that fails first is ws2's whichever host
    crashed: the crash takes the host off the network only, so which
    peer sees it first is a matter of the collective's shape."""
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    crash_at(cluster, crashed, 3.0)
    run_until_finished(cluster.env, world.finished, 3000.0)
    assert world.finished.ok
    assert cluster.env.now == pytest.approx(8.0 + DRAIN_SECONDS, abs=0.01)
    assert [(rt.host.name, rt.status, type(rt.error))
            for rt in world.all_runtimes] == [
        ("ws1", "failed", WorldAborted), ("ws2", "failed", HostDownError)]
    assert str(world.aborted).startswith("mc_pi: the rank on ws2 failed")


def test_a_crash_after_an_expand_aborts_every_rank():
    """The probe of a grown world: ws3, one of the two ranks an expand
    added, crashes; all four ranks end failed by 5.8 s."""
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    expand_at(cluster, world, ("ws3", "ws4"), 2.0)
    crash_at(cluster, "ws3", 4.0)
    run_until_finished(cluster.env, world.finished, 3000.0)
    assert world.finished.ok
    assert [rt.status for rt in world.all_runtimes] == ["failed"] * 4
    assert last_exit(world) == pytest.approx(5.8, abs=0.01)
    assert cluster.env.now == pytest.approx(
        last_exit(world) + DRAIN_SECONDS)


class StuckRankApp(MigratableApp):
    """Rank 1 computes one enormous step: it can never park."""

    name = "stuck"

    def __init__(self, rank: int = 0):
        self.my_rank = rank

    def create_state(self, params: dict, rng):
        return {"steps": 0}

    def run_step(self, state, ctx):
        work = 1e9 if self.my_rank == 1 else 0.05
        yield ctx.compute(work, label="stuck-step")
        state["steps"] += 1
        return state["steps"] < 10_000

    def repartition(self, states, new_size, params, rng):
        return [dict(s) for s in states][:new_size] + [
            {"steps": 0} for _ in range(new_size - len(states))
        ]


def test_barrier_timeout_aborts_the_reshape():
    cluster, mpi = setup()
    world = launch_malleable(
        mpi, StuckRankApp, [cluster["ws1"], cluster["ws2"]],
        params={}, barrier_timeout=5.0,
    )
    reply = expand_at(cluster, world, ("ws3",), when=1.0)
    cluster.env.run(until=60.0)
    assert reply["reply"] == (True, "")
    (rec,) = world.reconfigurations
    assert not rec.succeeded
    assert "barrier timeout" in rec.failure
    assert rec.completed_at == pytest.approx(6.0)
    # Rank 0 resumed and keeps stepping after the abort.
    assert world.runtimes[0].status == "running"
    assert world.runtimes[0].state["steps"] > 10


class OneLongStepApp(StuckRankApp):
    """Rank 1 is one 20 s step — too long for the barrier, not for
    the job; rank 0 is a hundred short ones."""

    name = "longstep"

    def run_step(self, state, ctx):
        yield ctx.compute(20.0 if self.my_rank == 1 else 0.05,
                          label="longstep")
        state["steps"] += 1
        return self.my_rank == 0 and state["steps"] < 100


def test_a_world_aborted_at_the_barrier_still_finishes():
    cluster, mpi = setup()
    world = launch_malleable(
        mpi, OneLongStepApp, [cluster["ws1"], cluster["ws2"]],
        params={}, barrier_timeout=5.0,
    )
    expand_at(cluster, world, ("ws3",), when=1.0)
    fired = fire_times(cluster, world)
    done = run_world(cluster, world, until=600.0)
    (rec,) = world.reconfigurations
    assert not rec.succeeded and "barrier timeout" in rec.failure
    assert len(done) == 2
    assert fired == [last_exit(world)] == [pytest.approx(20.0)]


def test_repartition_refusal_resumes_unchanged():
    cluster, mpi = setup()
    params = dict(PI_PARAMS, batches=3)
    world = launch_pi(mpi, cluster, params=params)

    class _Refuses(MonteCarloPiApp):
        def repartition(self, states, new_size, params, rng):
            from repro.hpcm.errors import RepartitionError
            raise RepartitionError("phase cannot be reshaped")

    world.app_factory = _Refuses
    for rt in world.runtimes:
        rt.app = _Refuses(rt.app.my_rank)
    reply = expand_at(cluster, world, ("ws3",), when=0.05)
    done = run_world(cluster, world)
    assert reply["reply"] == (True, "")
    (rec,) = world.reconfigurations
    assert not rec.succeeded
    assert rec.failure.startswith("repartition refused")
    assert len(done) == 2


def test_expand_under_contention_still_correct():
    """A hogged source host slows the barrier but not correctness."""
    cluster, mpi = setup()
    world = launch_pi(mpi, cluster)
    CpuHog(cluster["ws1"], count=3, name="storm")
    expand_at(cluster, world, ("ws3", "ws4", "ws5"), when=5.0)
    done = run_world(cluster, world, until=6000.0)
    (rec,) = world.reconfigurations
    assert rec.succeeded and rec.new_size == 5
    assert done[0].result == pytest.approx(math.pi, abs=0.05)
