"""The in-place batch count against the formula it replaced: the same
integer, the same draws consumed, the same pickled state."""

import copy
import pickle

from hypothesis import example, given, settings, strategies as st

from repro.hpcm import statexfer
from repro.workloads import MonteCarloPiApp

from .reference import reference_step
from .test_repartition import drive


#: ``run_step`` reads nothing from the app object.
_APP = MonteCarloPiApp()


def make_state(batch_size, seed, rank=0):
    """A rank far from its final combine (which needs a communicator)."""
    return MonteCarloPiApp(rank).create_state(
        {"batches": 10_000, "batch_size": batch_size, "seed": seed}, None,
    )


def step(state):
    drive(_APP, state, 1)


@given(st.integers(1, 5000), st.integers(0, 2**32 - 1))
@example(1, 0)
@example(3, 2)
@example(2999, 7919)
@example(3000, 2)
@settings(max_examples=200, deadline=None)
def test_count_equals_reference_and_consumes_the_same_draws(
        batch_size, seed):
    state = make_state(batch_size, seed)
    oracle = copy.deepcopy(state)
    for _ in range(3):
        step(state)
        reference_step(oracle)
        assert type(state.inside) is int
        assert state.inside == oracle.inside
        assert (state.rng.bit_generator.state
                == oracle.rng.bit_generator.state)


def test_pickled_state_is_the_parents_bytes():
    """Scratch is not state: ``hpcm.state_bytes`` drives the simulated
    transfer time, so ten steps must pickle to exactly what ten steps
    of the old formula pickle to (670 bytes under ``pickle.dumps``, 649
    as ``statexfer.capture`` ships it, with numpy 2.4 at the parent)."""
    state = make_state(3000, 2, rank=1)
    oracle = copy.deepcopy(state)
    for _ in range(10):
        step(state)
        reference_step(oracle)
    assert pickle.dumps(state) == pickle.dumps(oracle)
    assert statexfer.capture(state) == statexfer.capture(oracle)


def test_a_rank_pickled_mid_run_continues_the_same_samples():
    stayed = make_state(3000, 2, rank=1)
    for _ in range(5):
        step(stayed)
    moved = statexfer.restore(statexfer.capture(stayed))
    assert moved is not stayed and moved.rng is not stayed.rng
    oracle = copy.deepcopy(stayed)
    for _ in range(5):
        step(stayed)
        step(moved)
        reference_step(oracle)
        assert moved.inside == stayed.inside == oracle.inside
