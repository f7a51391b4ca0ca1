"""What a reconfiguration costs beyond the work it models.

``climb`` is a generator the carrying process drives with ``yield
from`` — not a process per rung — so a reconfiguration dispatches
exactly the events it did when its steps were written out inline.  The
literals were counted through the kernel's own ``trace_hook`` at the
commit before the ladder, less one event per network transfer since a
transfer returns ``flow.done`` itself, and less one ``StorePut`` per
MPI send since a put into a mailbox is immediate.

A migration holds one pickle of the state besides the source and
restored objects: its chunks are views of that pickle and the drain
checks them in place.
"""

import tracemalloc

import pytest

from repro.analysis.horizon import run_until_finished
from repro.hpcm import MigrationOrder, launch
from repro.workloads import TestTreeApp

from . import test_migration, test_world

pytestmark = pytest.mark.costguard


def _count_dispatches(env):
    seen = []
    env.trace_hook = lambda now, event: seen.append(event)
    return seen


def test_a_migration_dispatches_the_kernel_events_it_always_did():
    cluster, mpi = test_migration.setup()
    seen = _count_dispatches(cluster.env)
    rt = launch(mpi, TestTreeApp(), cluster["ws1"],
                params=test_migration.PARAMS)
    test_migration.order_at(cluster, rt, "ws2", when=0.5)
    cluster.env.run(until=rt.done)
    cluster.env.run(until=cluster.env.now + 10)
    assert rt.migration_count == 1
    # 113 dispatches, plus the finish of the one-rank world the
    # application runs in, less the relay event each of its nine
    # network transfers had before ``transfer`` returned ``flow.done``,
    # less the ``StorePut`` of each of its nine MPI sends.
    assert len(seen) == 96


def test_an_expand_dispatches_the_kernel_events_it_always_did():
    cluster, mpi = test_world.setup()
    seen = _count_dispatches(cluster.env)
    world = test_world.launch_pi(mpi, cluster)
    test_world.expand_at(cluster, world, ("ws3", "ws4"), when=2.0)
    run_until_finished(cluster.env, world.finished, 3000.0)
    assert [rec.succeeded for rec in world.reconfigurations] == [True]
    # 249 less the relay event of each of its eight transfers, less
    # the ``StorePut`` of each of its six MPI sends.
    assert len(seen) == 235


def test_a_migration_allocates_one_pickle_and_one_restored_state():
    """Ordered once the 40 trees are built (a 2.5 MB pickle), the
    migration's allocations peak at the pickle plus the restored state,
    about twice the pickle.  A byte copy of every chunk and a joined
    copy of the arrived stream made it four times."""
    cluster, mpi = test_migration.setup()
    params = dict(test_migration.PARAMS, levels=13, trees=40)
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=params)
    env = cluster.env
    while rt.state is None or rt.state.phase == "build":
        env.run(until=env.now + 1.0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        rt.request_migration(MigrationOrder(dest_host="ws2",
                                            issued_at=env.now))
        while not rt.migrations:
            env.run(until=env.now + 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (rec,) = rt.migrations
    assert rec.succeeded
    assert rec.memory_bytes > 2_500_000
    assert peak - before <= 2.5 * rec.memory_bytes
