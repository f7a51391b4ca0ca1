"""Workload applications: correctness and parameterization."""

import pickle

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.hpcm import launch, launch_world
from repro.mpi import MpiRuntime
from repro.workloads import (
    MonteCarloPiApp,
    StencilApp,
    TestTreeApp,
    TreeState,
)


def setup(n_hosts=2):
    cluster = Cluster(n_hosts=n_hosts, seed=0)
    return cluster, MpiRuntime(cluster)


# ------------------------------------------------------------ test_tree
def test_tree_checksum_matches_ground_truth():
    params = {"levels": 6, "trees": 3, "node_cost": 1e-5, "seed": 11}
    cluster, mpi = setup()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=params)
    result = cluster.env.run(until=rt.done)
    assert result == pytest.approx(TestTreeApp.expected_checksum(params))


def test_tree_phases_progress():
    params = {"levels": 4, "trees": 2, "node_cost": 1e-6, "seed": 0}
    app = TestTreeApp()
    state = app.create_state(params, None)
    assert state.phase == "build"
    # 2 builds + 2 sorts + 2 sums = 6 steps.
    steps = 0
    more = True

    class NullCtx:
        def compute(self, work, label=""):
            class Done:
                callbacks = None
            # drive the generator manually with a pre-fired no-op
            return ("compute", work)

    gen_driver = []
    while more:
        gen = app.run_step(state, NullCtx())
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            more = stop.value
        steps += 1
    assert steps == 6
    assert state.phase == "done"
    assert state.checksum == pytest.approx(
        TestTreeApp.expected_checksum(params)
    )


def test_tree_state_picklable_and_sized():
    params = {"levels": 12, "trees": 4, "node_cost": 1e-6, "seed": 0}
    app = TestTreeApp()
    state = app.create_state(params, None)
    state.trees.append(state.rng.random(state.n_nodes))
    blob = pickle.dumps(state)
    assert len(blob) >= state.n_nodes * 8
    back = pickle.loads(blob)
    assert np.array_equal(back.trees[0], state.trees[0])


def test_tree_resident_bytes_tracks_trees():
    state = TreeState(levels=10, trees_total=3, node_cost=0.0)
    assert state.resident_bytes == 0
    state.trees.append(np.zeros(1023))
    assert state.resident_bytes == 1023 * 8
    state.trees.append(None)
    assert state.resident_bytes == 1023 * 8


def test_tree_total_work_formula():
    params = {"levels": 10, "trees": 5, "node_cost": 1e-4}
    n = 1023
    expected = 5 * (n + n * np.log2(n) + n) * 1e-4
    assert TestTreeApp.total_work(params) == pytest.approx(expected)


def test_tree_params_for_duration():
    params = TestTreeApp.params_for_duration(500.0)
    assert TestTreeApp.total_work(params) == pytest.approx(500.0,
                                                           rel=0.15)


def test_tree_invalid_params():
    app = TestTreeApp()
    with pytest.raises(ValueError):
        app.create_state({"levels": 0}, None)
    with pytest.raises(ValueError):
        app.create_state({"trees": 0}, None)


def test_tree_deterministic_across_runs():
    params = {"levels": 7, "trees": 3, "node_cost": 1e-6, "seed": 5}

    def run():
        cluster, mpi = setup()
        rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=params)
        return cluster.env.run(until=rt.done)

    assert run() == run()


# -------------------------------------------------------------- stencil
def test_stencil_converges_toward_boundary():
    params = {"rows": 16, "cols": 16, "iterations": 30,
              "cell_cost": 1e-7}
    cluster, mpi = setup(n_hosts=2)
    world = launch_world(mpi, lambda r: StencilApp(r),
                         cluster.host_list(), params=params)
    cluster.env.run(until=world.finished)
    for rt in world.all_runtimes:
        out = rt.result
        assert out["iterations"] == 30
        assert 0 < out["mean"] < 100
        assert out["residual"] < 100


def test_stencil_residual_decreases():
    params = {"rows": 8, "cols": 8, "iterations": 50, "cell_cost": 1e-8}
    cluster, mpi = setup(n_hosts=1)
    (rt,) = launch_world(mpi, lambda r: StencilApp(r),
                         [cluster["ws1"]], params=params).runtimes
    cluster.env.run(until=rt.done)
    assert rt.result["residual"] < 1.0  # long runs settle


def test_stencil_migration_preserves_solution():
    params = {"rows": 12, "cols": 12, "iterations": 25,
              "cell_cost": 1e-3, "seed": 0}

    def run(migrate):
        cluster, mpi = setup(n_hosts=3)
        world = launch_world(mpi, lambda r: StencilApp(r),
                             [cluster["ws1"], cluster["ws2"]],
                             params=params)
        rts = world.all_runtimes
        if migrate:
            from repro.hpcm import MigrationOrder

            def order(env):
                yield env.timeout(0.2)
                rts[1].request_migration(
                    MigrationOrder(dest_host="ws3", issued_at=env.now)
                )

            cluster.env.process(order(cluster.env))
        cluster.env.run(until=world.finished)
        return rts[0].result["mean"]

    assert run(True) == pytest.approx(run(False))


def test_stencil_invalid_params():
    with pytest.raises(ValueError):
        StencilApp().create_state({"cols": 1}, None)


# ------------------------------------------------------------- monte carlo
def test_pi_estimate_reasonable():
    params = {"batches": 20, "batch_size": 20_000, "sample_cost": 1e-8,
              "seed": 0}
    cluster, mpi = setup(n_hosts=2)
    world = launch_world(mpi, lambda r: MonteCarloPiApp(r),
                         cluster.host_list(), params=params)
    cluster.env.run(until=world.finished)
    for rt in world.all_runtimes:
        assert rt.result == pytest.approx(np.pi, abs=0.02)


def test_pi_ranks_use_distinct_streams():
    app0 = MonteCarloPiApp(0)
    app1 = MonteCarloPiApp(1)
    s0 = app0.create_state({"seed": 0}, None)
    s1 = app1.create_state({"seed": 0}, None)
    assert s0.rng.random() != s1.rng.random()


def test_pi_invalid_params():
    with pytest.raises(ValueError):
        MonteCarloPiApp().create_state({"batches": 0}, None)
