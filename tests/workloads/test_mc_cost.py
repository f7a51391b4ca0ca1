"""What the storm cell costs, as machine-independent counts.

One ``mc-batch`` step squares the draw where it lies (no second
``(n, 2)`` array), and a storm run stops simulating when its job is
over (no heartbeat is folded for a cluster nobody is using).
"""

import tracemalloc

import pytest

from repro.analysis import malleability
from repro.analysis.horizon import DRAIN_SECONDS

from ..callcount import count_calls
from .test_montecarlo_kernel import make_state, step

pytestmark = pytest.mark.costguard

BATCH = 3000
#: The draw itself: 3000 points x 2 coordinates x 8 bytes.
DRAW_BYTES = BATCH * 2 * 8


def test_call_count_of_a_batch():
    """16 calls with the squared copy, the axis-1 ``sum`` and the
    boolean ``sum`` (each a Python-level numpy method wrapper)."""
    state = make_state(BATCH, 2)
    step(state)
    assert count_calls(lambda: step(state)) <= 14  # 13 on 3.11/numpy 2.4


def test_a_batch_allocates_less_than_a_second_draw():
    """numpy reports its buffers to ``tracemalloc``: the peak is the
    draw, one column sum and one boolean column (76 kB); with a
    squared copy and its reduction alive beside the draw it was
    122 kB — at least twice the draw."""
    state = make_state(BATCH, 2)
    step(state)
    tracemalloc.start()
    try:
        step(state)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        step(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert DRAW_BYTES <= peak - before < 2 * DRAW_BYTES


@pytest.fixture
def reschedulers(monkeypatch):
    """Every ``Rescheduler`` the malleability driver deploys."""
    deployed = []

    class Recording(malleability.Rescheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            deployed.append(self)

    monkeypatch.setattr(malleability, "Rescheduler", Recording)
    return deployed


def test_a_storm_run_folds_no_heartbeat_after_the_drain(reschedulers):
    """Run to the fixed 4000 s cap, both clocks read 4000.0 and the
    monitors kept reporting for the ~3500 s after these jobs ended."""
    params = dict(malleability.DEFAULT_PARAMS, batches=800)
    result = malleability.run_malleability_experiment(params=params, seed=11)
    rigid_rs, malleable_rs = reschedulers
    assert result["pi_ok"]
    for completed_at, rs in ((result["rigid_s"], rigid_rs),
                             (result["malleable_s"], malleable_rs)):
        assert completed_at < 1000.0
        stop = completed_at + DRAIN_SECONDS
        assert rs.env.now == stop
        assert max(r.last_update for r in rs.registry.table.records()) <= stop
        interval = rs.config.interval
        cycles = sum(m.cycles for m in rs.monitors.values())
        assert cycles <= len(rs.monitors) * (stop / interval + 1)
