"""The ladder executor costs no kernel event.

``climb`` is a generator the carrying process drives with ``yield
from`` — not a process per rung — so a reconfiguration dispatches
exactly the events it did when its steps were written out inline.  The
literals were counted through the kernel's own ``trace_hook`` at the
commit before the ladder.
"""

from repro.analysis.horizon import run_until_finished
from repro.hpcm import launch
from repro.workloads import TestTreeApp

from . import test_migration, test_world


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
    assert len(seen) == 113


def test_an_expand_dispatches_the_kernel_events_it_always_did():
    cluster, mpi = test_world.setup()
    seen = _count_dispatches(cluster.env)
    world = test_world.launch_pi(mpi, cluster)
    test_world.expand_at(cluster, world, ("ws3", "ws4"), when=2.0)
    run_until_finished(cluster.env, world.finished, 3000.0)
    assert [rec.succeeded for rec in world.reconfigurations] == [True]
    assert len(seen) == 249
