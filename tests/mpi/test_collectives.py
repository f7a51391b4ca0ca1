"""Collective operations over the binomial trees."""

import operator

import pytest

from repro.cluster import Cluster
from repro.mpi import MpiRuntime

from .world import launch, run


def run_collective(entry, n_ranks=4):
    cluster = Cluster(n_hosts=n_ranks, cpu_per_byte=0.0)
    rt = MpiRuntime(cluster)
    _, ranks = launch(rt, entry, cluster.host_list())
    values = run(cluster, ranks)
    assert all(p.ok for p in ranks), [p.value for p in ranks if not p.ok]
    return values


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13])
def test_bcast_all_sizes(size):
    def entry(ctx):
        data = "payload" if ctx.rank == 0 else None
        data = yield from ctx.comm.bcast(data, root=0)
        return data

    values = run_collective(entry, n_ranks=size)
    assert values == ["payload"] * size


@pytest.mark.parametrize("root", [0, 1, 2])
def test_bcast_nonzero_root(root):
    def entry(ctx):
        data = f"from{ctx.rank}" if ctx.rank == root else None
        data = yield from ctx.comm.bcast(data, root=root)
        return data

    values = run_collective(entry, n_ranks=3)
    assert values == [f"from{root}"] * 3


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
def test_reduce_sum(size):
    def entry(ctx):
        result = yield from ctx.comm.reduce(ctx.rank + 1, operator.add,
                                            root=0)
        return result

    values = run_collective(entry, n_ranks=size)
    assert values[0] == size * (size + 1) // 2
    assert all(v is None for v in values[1:])


def test_reduce_nonzero_root():
    def entry(ctx):
        result = yield from ctx.comm.reduce(2 ** ctx.rank, operator.add,
                                            root=2)
        return result

    values = run_collective(entry, n_ranks=4)
    assert values[2] == 0b1111
    assert values[0] is None


@pytest.mark.parametrize("size", [1, 2, 5, 8])
def test_allreduce(size):
    def entry(ctx):
        result = yield from ctx.comm.allreduce(ctx.rank, operator.add)
        return result

    values = run_collective(entry, n_ranks=size)
    expected = size * (size - 1) // 2
    assert values == [expected] * size


def test_allreduce_max():
    def entry(ctx):
        result = yield from ctx.comm.allreduce(ctx.rank * 10, max)
        return result

    values = run_collective(entry, n_ranks=5)
    assert values == [40] * 5


def test_gather():
    def entry(ctx):
        result = yield from ctx.comm.gather(ctx.rank ** 2, root=0)
        return result

    values = run_collective(entry, n_ranks=4)
    assert values[0] == [0, 1, 4, 9]
    assert values[1] is None


def test_consecutive_collectives_do_not_crosstalk():
    def entry(ctx):
        a = yield from ctx.comm.allreduce(1, operator.add)
        b = yield from ctx.comm.allreduce(10, operator.add)
        c = yield from ctx.comm.bcast(
            "z" if ctx.rank == 0 else None, root=0
        )
        return (a, b, c)

    values = run_collective(entry, n_ranks=4)
    assert values == [(4, 40, "z")] * 4


def test_parallel_sum_example():
    """The classic: distribute an array, locally sum, reduce."""
    import numpy as np

    data = np.arange(1000, dtype=np.int64)

    def entry(ctx):
        chunk = np.array_split(data, ctx.size)[ctx.rank]
        local = int(chunk.sum())
        total = yield from ctx.comm.reduce(local, operator.add, root=0)
        return total

    values = run_collective(entry, n_ranks=4)
    assert values[0] == int(data.sum())
