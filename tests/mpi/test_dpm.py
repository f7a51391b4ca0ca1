"""Dynamic process management: spawn, intercomm, merge, rank replace."""

import pytest

from repro.cluster import Cluster
from repro.mpi import Comm, MpiRuntime, SpawnError

from .world import launch, run


def setup():
    cluster = Cluster(n_hosts=3, cpu_per_byte=0.0)
    rt = MpiRuntime(cluster)
    return cluster, rt


def test_spawn_child_runs_on_target_host():
    cluster, rt = setup()
    seen = {}

    def child(ctx):
        seen["host"] = ctx.host.name
        n = yield from ctx.parent.recv(source=0)
        yield from ctx.parent.send(n * 2, dest=0)

    def parent(ctx):
        icomm = yield from ctx.comm.spawn(
            child, [cluster["ws2"]], name="kid"
        )
        yield from icomm.send(21, dest=0)
        result = yield from icomm.recv(source=0)
        return result

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] == 42
    assert seen["host"] == "ws2"


def test_spawn_latency_applied():
    cluster, rt = setup()

    def child(ctx):
        yield from ctx.parent.send("ready", dest=0)

    def parent(ctx):
        icomm = yield from ctx.comm.spawn(child, [cluster["ws2"]])
        yield from icomm.recv()
        return ctx.env.now

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    # Default LAM-like spawn latency is 0.3 s.
    assert values[0] >= 0.3


def test_spawn_custom_latency():
    """A spawn's own ``latency`` (a pre-initialized standby's 0)
    replaces the runtime's."""
    cluster, rt = setup()

    def child(ctx):
        yield from ctx.parent.send("ready", dest=0)

    def parent(ctx):
        icomm = yield from ctx.comm.spawn(child, [cluster["ws2"]],
                                          latency=0.0)
        yield from icomm.recv()
        return ctx.env.now

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] < 0.01


def test_spawn_multiple_children():
    cluster, rt = setup()

    def child(ctx):
        # Children compute partial results and reduce among themselves.
        import operator
        total = yield from ctx.comm.allreduce(ctx.rank + 1, operator.add)
        if ctx.rank == 0:
            yield from ctx.parent.send(total, dest=0)

    def parent(ctx):
        icomm = yield from ctx.comm.spawn(
            child, [cluster["ws2"], cluster["ws3"]]
        )
        result = yield from icomm.recv(source=0)
        return result

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] == 3  # 1 + 2


def test_spawn_to_down_host_fails():
    cluster, rt = setup()
    cluster["ws2"].crash()

    def child(ctx):
        yield ctx.env.timeout(0)

    def parent(ctx):
        with pytest.raises(SpawnError):
            yield from ctx.comm.spawn(child, [cluster["ws2"]])
        return "survived"

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] == "survived"


def test_spawn_no_hosts_fails():
    cluster, rt = setup()

    def parent(ctx):
        with pytest.raises(SpawnError):
            yield from ctx.comm.spawn(lambda c: iter(()), [])
        return "ok"

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] == "ok"


def test_rank_replace_redirects_messages():
    """Group.replace points a rank at a new process; pending and future
    messages reach the replacement — the communication-state-transfer
    primitive HPCM migration builds on."""
    cluster, rt = setup()
    from repro.mpi import MpiProcess

    log = {}

    def sender(ctx):
        yield from ctx.comm.send("before", dest=1, tag=0)
        yield ctx.env.timeout(5)
        yield from ctx.comm.send("after", dest=1, tag=0)

    def receiver(ctx):
        # Simulates the pre-migration half: receives nothing, is replaced.
        yield ctx.env.timeout(1000)

    world, _ = launch(
        rt, lambda ctx: sender(ctx) if ctx.rank == 0 else receiver(ctx),
        [cluster["ws1"], cluster["ws2"]],
    )

    def migrator(env):
        yield env.timeout(2)
        old = world.procs[1]
        new = MpiProcess(rt, cluster["ws3"], name="replacement")
        world.replace(old, new)
        new.adopt_state_from(old)
        old.exit()
        # Drain messages at the replacement.
        new_comm = Comm(world, new)
        a = yield from new_comm.recv(source=0, tag=0)
        b = yield from new_comm.recv(source=0, tag=0)
        log["got"] = (a, b)

    cluster.env.process(migrator(cluster.env))
    cluster.env.run(until=100)
    assert log["got"] == ("before", "after")
