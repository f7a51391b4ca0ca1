"""Point-to-point semantics of the simulated MPI."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadProcessError,
    MpiRuntime,
    RankError,
    payload_nbytes,
)

from .world import launch, run


def run_app(entry, n_hosts=2, n_ranks=None):
    """The ranks' return values, and their sim processes."""
    cluster = Cluster(n_hosts=n_hosts, cpu_per_byte=0.0)
    hosts = cluster.host_list()[: (n_ranks or n_hosts)]
    _, ranks = launch(MpiRuntime(cluster), entry, hosts)
    return run(cluster, ranks), ranks


def test_send_recv_roundtrip():
    def entry(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        data = yield from ctx.comm.recv(source=0, tag=11)
        return data

    values, ranks = run_app(entry)
    assert values[1] == {"a": 7, "b": 3.14}


def test_recv_any_source_any_tag():
    def entry(ctx):
        if ctx.rank == 0:
            data = yield from ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            return data
        yield from ctx.comm.send(f"from-{ctx.rank}", dest=0, tag=ctx.rank)

    values, ranks = run_app(entry, n_hosts=2)
    assert values[0] == "from-1"


def test_tag_matching_out_of_order():
    def entry(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("first", dest=1, tag=1)
            yield from ctx.comm.send("second", dest=1, tag=2)
            return None
        b = yield from ctx.comm.recv(source=0, tag=2)
        a = yield from ctx.comm.recv(source=0, tag=1)
        return (a, b)

    values, ranks = run_app(entry)
    assert values[1] == ("first", "second")


def test_fifo_per_tag():
    def entry(ctx):
        if ctx.rank == 0:
            for i in range(5):
                yield from ctx.comm.send(i, dest=1, tag=0)
            return None
        got = []
        for _ in range(5):
            got.append((yield from ctx.comm.recv(source=0, tag=0)))
        return got

    values, ranks = run_app(entry)
    assert values[1] == [0, 1, 2, 3, 4]


def test_send_to_self():
    def entry(ctx):
        yield from ctx.comm.send("loop", dest=0, tag=3)
        data = yield from ctx.comm.recv(source=0, tag=3)
        return data

    values, ranks = run_app(entry, n_hosts=1, n_ranks=1)
    assert values[0] == "loop"


def test_large_message_takes_longer():
    times = {}

    def entry_factory(nbytes, key):
        def entry(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(np.zeros(nbytes, dtype=np.uint8),
                                         dest=1)
            else:
                yield from ctx.comm.recv()
                times[key] = ctx.env.now
        return entry

    for nbytes, key in ((10_000, "small"), (10_000_000, "big")):
        run_app(entry_factory(nbytes, key))
    assert times["big"] > times["small"] * 10


def test_transfer_time_matches_bandwidth():
    # 12.5 MB at 12.5 MB/s → about 1 second.
    def entry(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(
                np.zeros(12_500_000, dtype=np.uint8), dest=1
            )
        else:
            yield from ctx.comm.recv()
            return ctx.env.now

    values, ranks = run_app(entry)
    assert values[1] == pytest.approx(1.0, rel=0.01)


def test_invalid_rank_raises():
    def entry(ctx):
        with pytest.raises(RankError):
            yield from ctx.comm.send("x", dest=99)

    values, ranks = run_app(entry, n_hosts=1, n_ranks=1)
    assert all(p.ok for p in ranks)


def test_send_to_dead_process_raises():
    def entry(ctx):
        if ctx.rank == 1:
            ctx.process.exit()
            return None
        yield ctx.env.timeout(1.0)
        with pytest.raises(DeadProcessError):
            yield from ctx.comm.send("x", dest=1)

    values, ranks = run_app(entry)
    assert all(p.ok for p in ranks)


def test_payload_nbytes():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(b"12345") == 5
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
    assert payload_nbytes({"k": 1}) > 0


def test_a_thousand_messages_arrive_in_order():
    def entry(ctx):
        if ctx.rank == 0:
            for i in range(1000):
                yield from ctx.comm.send(i, dest=1)
            return None
        received = []
        for _ in range(1000):
            received.append((yield from ctx.comm.recv()))
        return received

    values, ranks = run_app(entry)
    assert values[1] == list(range(1000))
