"""Intercommunicator edge cases."""

import pytest

from repro.cluster import Cluster
from repro.mpi import ANY_SOURCE, MpiRuntime, RankError

from .world import launch, run


def setup():
    cluster = Cluster(n_hosts=3, cpu_per_byte=0.0)
    return cluster, MpiRuntime(cluster)


def test_intercomm_remote_rank_bounds():
    cluster, rt = setup()

    def child(ctx):
        yield from ctx.parent.send("ok", dest=0)

    def parent(ctx):
        icomm = yield from ctx.comm.spawn(child, [cluster["ws2"]])
        with pytest.raises(RankError):
            yield from icomm.send("x", dest=5)
        reply = yield from icomm.recv()
        return (reply, icomm.remote_group.size, icomm.rank)

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] == ("ok", 1, 0)


def test_intercomm_any_source_recv():
    cluster, rt = setup()

    def child(ctx):
        yield from ctx.parent.send(f"child{ctx.rank}", dest=0)

    def parent(ctx):
        icomm = yield from ctx.comm.spawn(
            child, [cluster["ws2"], cluster["ws3"]]
        )
        got = set()
        for _ in range(2):
            got.add((yield from icomm.recv(source=ANY_SOURCE)))
        return got

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] == {"child0", "child1"}


def test_nested_spawn():
    """A spawned child can itself spawn (grandchildren)."""
    cluster, rt = setup()

    def grandchild(ctx):
        yield from ctx.parent.send("gc", dest=0)

    def child(ctx):
        icomm = yield from ctx.comm.spawn(grandchild, [cluster["ws3"]])
        msg = yield from icomm.recv()
        yield from ctx.parent.send(f"child+{msg}", dest=0)

    def parent(ctx):
        icomm = yield from ctx.comm.spawn(child, [cluster["ws2"]])
        reply = yield from icomm.recv()
        return reply

    _, ranks = launch(rt, parent, [cluster["ws1"]])
    values = run(cluster, ranks)
    assert values[0] == "child+gc"


def test_comm_handle_for_other_member():
    cluster, rt = setup()
    out = {}

    def entry(ctx):
        if ctx.rank == 0:
            other = ctx.comm.group.proc_at(1)
            handle = ctx.comm.handle_for(other)
            out["other_rank"] = handle.rank
            out["same_group"] = handle.group is ctx.comm.group
        yield ctx.env.timeout(0)

    _, ranks = launch(rt, entry, [cluster["ws1"], cluster["ws2"]])
    run(cluster, ranks)
    assert out == {"other_rank": 1, "same_group": True}
