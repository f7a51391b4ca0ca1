"""Repartition contracts: merge N states, re-split for M, lose nothing.

Every malleable workload must satisfy the same conservation law —
whatever quantity the final answer folds over (samples, digest terms,
grid rows, trees + checksum) is identical before and after a
repartition to any world size — and must refuse phases that cannot be
reshaped by raising :class:`RepartitionError`.
"""

import numpy as np
import pytest

from repro.hpcm.errors import RepartitionError
from repro.workloads import (
    DataScanApp,
    MonteCarloPiApp,
    StencilApp,
    TestTreeApp,
)
from repro.workloads.test_tree import TreeState


def drive(app, state, steps):
    """Advance ``state`` by running step bodies without a simulator.

    Only valid for apps whose run_step neither communicates nor reads
    the context beyond ``compute`` (mc_pi, data_scan)."""
    class _Ctx:
        size = 1

        @staticmethod
        def compute(cost, label=""):
            return iter(())

    for _ in range(steps):
        gen = app.run_step(state, _Ctx)
        for _ in gen:
            pass
    return state


# ---------------------------------------------------------------- mc_pi

def pi_states(n_ranks, batches=10, done=3):
    app = MonteCarloPiApp(0)
    params = {"batches": batches, "batch_size": 100,
              "sample_cost": 0.0, "seed": 5}
    states = []
    for rank in range(n_ranks):
        state = MonteCarloPiApp(rank).create_state(params, None)
        drive(app, state, done)
        states.append(state)
    return states, params


@pytest.mark.parametrize("old,new", [(2, 4), (3, 2), (2, 2), (4, 1)])
def test_pi_conserves_counts_and_batches(old, new):
    states, params = pi_states(old)
    out = MonteCarloPiApp(0).repartition(states, new, params, None)
    assert len(out) == new
    assert sum(s.inside for s in out) == sum(s.inside for s in states)
    assert sum(s.total for s in out) == sum(s.total for s in states)
    remaining = sum(s.batches_total - s.batches_done for s in states)
    assert sum(s.batches_total - s.batches_done for s in out) == remaining
    # All partial counts fold into rank 0 (retiree-safe).
    assert all(s.inside == 0 and s.total == 0 for s in out[1:])


def test_pi_fresh_ranks_get_distinct_streams():
    states, params = pi_states(2)
    out = MonteCarloPiApp(0).repartition(states, 4, params, None)
    draws = {float(s.rng.random()) for s in out}
    assert len(draws) == 4


def test_pi_refuses_oversplit_and_combine_phase():
    states, params = pi_states(2, batches=4, done=3)
    with pytest.raises(RepartitionError, match="cannot split"):
        MonteCarloPiApp(0).repartition(states, 5, params, None)
    states, params = pi_states(2, batches=3, done=2)
    states[0].batches_done = states[0].batches_total  # entered combine
    with pytest.raises(RepartitionError, match="combine"):
        MonteCarloPiApp(0).repartition(states, 3, params, None)


# ------------------------------------------------------------ data_scan

def scan_states(n_ranks, steps=2):
    app = DataScanApp()
    params = {"dataset_bytes": 1000, "passes": 3, "chunk_bytes": 100,
              "scan_rate": 1e6, "seed": 9}
    states = []
    for _ in range(n_ranks):
        state = app.create_state(params, None)
        drive(app, state, steps)
        states.append(state)
    return states, params


def remaining_bytes(states):
    return sum(
        (s.passes_total - s.passes_done) * s.dataset_bytes - s.offset
        for s in states
    )


@pytest.mark.parametrize("old,new", [(2, 4), (3, 2), (4, 1)])
def test_scan_conserves_bytes_and_digest(old, new):
    states, params = scan_states(old)
    digest = sum(s.digest for s in states) % (2**63)
    out = DataScanApp().repartition(states, new, params, None)
    assert len(out) == new
    assert remaining_bytes(out) == remaining_bytes(states)
    assert sum(s.digest for s in out) % (2**63) == digest
    assert all(s.digest == 0 for s in out[1:])


def test_scan_refuses_oversplit():
    states, params = scan_states(1, steps=29)  # one chunk left
    with pytest.raises(RepartitionError, match="cannot split"):
        DataScanApp().repartition(states, 200, params, None)


# -------------------------------------------------------------- stencil

def stencil_states(n_ranks, rows=8, cols=5, iteration=2):
    app = StencilApp(0)
    params = {"rows": rows, "cols": cols, "iterations": 10}
    states = []
    for rank in range(n_ranks):
        state = StencilApp(rank).create_state(params, None)
        state.iteration = iteration
        # Distinct interiors so row identity is checkable after moves.
        state.grid[1:-1, 1:-1] = rank * 100 + np.arange(
            rows * (cols - 2)
        ).reshape(rows, cols - 2)
        states.append(state)
    return states, params


@pytest.mark.parametrize("old,new", [(2, 3), (3, 2), (2, 2)])
def test_stencil_preserves_interior_rows(old, new):
    states, params = stencil_states(old)
    interior = np.concatenate([s.grid[1:-1] for s in states])
    out = StencilApp(0).repartition(states, new, params, None)
    assert len(out) == new
    again = np.concatenate([s.grid[1:-1] for s in out])
    np.testing.assert_array_equal(again, interior)
    assert sum(s.rows for s in out) == sum(s.rows for s in states)
    # Interior halos mirror the neighbouring strip's edge rows.
    for upper, lower in zip(out, out[1:]):
        np.testing.assert_array_equal(upper.grid[-1], lower.grid[1])
        np.testing.assert_array_equal(lower.grid[0], upper.grid[-2])


def test_stencil_refuses_lockstep_break_and_oversplit():
    states, params = stencil_states(2)
    states[1].iteration += 1
    with pytest.raises(RepartitionError, match="lockstep"):
        StencilApp(0).repartition(states, 3, params, None)
    states, params = stencil_states(2, rows=2)
    with pytest.raises(RepartitionError, match="cannot split"):
        StencilApp(0).repartition(states, 5, params, None)


# ------------------------------------------------------------ test_tree

def tree_states(n_ranks, phase="build", done=2, total=4):
    params = {"levels": 3, "trees": total, "node_cost": 1e-6, "seed": 3}
    states = []
    for rank in range(n_ranks):
        rng = np.random.default_rng(rank)
        trees = [
            np.sort(rng.random(7)) if phase != "build" or i < done
            else None
            for i in range(total)
        ]
        trees = [t for t in trees if t is not None]
        states.append(TreeState(
            levels=3, trees_total=total, node_cost=1e-6, phase=phase,
            index=done if phase != "sum" else 1,
            trees=trees if phase != "build" else trees[:done],
            checksum=float(rank + 1),
            rng=rng,
        ))
    return states, params


def tree_population(states):
    return sorted(
        float(t.sum()) for s in states for t in s.trees if t is not None
    )


@pytest.mark.parametrize("phase", ["build", "sort"])
@pytest.mark.parametrize("new", [1, 3])
def test_tree_redeal_preserves_trees_and_checksum(phase, new):
    states, params = tree_states(2, phase=phase)
    population = tree_population(states)
    checksum = sum(s.checksum for s in states)
    out = TestTreeApp().repartition(states, new, params, None)
    assert len(out) == new
    assert tree_population(out) == population
    assert sum(s.checksum for s in out) == pytest.approx(checksum)
    assert all(s.checksum == 0.0 for s in out[1:])
    assert all(s.phase == phase for s in out)
    if phase == "build":
        # Pending builds are conserved as capacity, not data.
        pending = sum(s.trees_total - s.index for s in states)
        assert sum(s.trees_total - s.index for s in out) == pending


def test_tree_sum_phase_redeals_unconsumed():
    states, params = tree_states(2, phase="sum")
    unconsumed = sorted(
        float(t.sum())
        for s in states for t in s.trees[s.index:] if t is not None
    )
    out = TestTreeApp().repartition(states, 3, params, None)
    assert tree_population(out) == unconsumed
    assert all(s.index == 0 for s in out)


def test_tree_refuses_mixed_phase_and_done():
    states, params = tree_states(2, phase="sort")
    states[1].phase = "sum"
    with pytest.raises(RepartitionError, match="out of phase"):
        TestTreeApp().repartition(states, 2, params, None)
    states, params = tree_states(2, phase="done")
    with pytest.raises(RepartitionError, match="nothing left"):
        TestTreeApp().repartition(states, 2, params, None)


# ------------------------------------------------- declared curves

def test_all_curves_are_valid_and_non_increasing():
    for app in (MonteCarloPiApp(0), DataScanApp(), StencilApp(0),
                TestTreeApp()):
        curve = app.efficiency_curve()
        assert curve, f"{app.name} declares no curve"
        assert all(0.0 < v <= 1.0 for v in curve)
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        schema = app.malleable_schema()
        assert schema.efficiency_curve == curve
        assert schema.malleable
