"""``sharpen`` and ``sustain``: one judgement, two widths.

``MonitorCore`` calls them over one snapshot with the scalar namespace,
``MonitorHub`` over a mapping of columns with numpy.  The property
below drives both with the same random histories and requires the
column result to equal the per-row results element for element — and
both to equal the branch-by-branch statement of the rule below, so a
mistake the two widths would share is still caught.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MetricPredicate, MigrationPolicy
from repro.monitor.core import sharpen, sustain
from repro.rules.expr import scalar
from repro.rules.states import BUSY, FREE, OVERLOADED

WIDTH = 5


def spelled_out(level, streak, need, policy, snapshot):
    """The judgement as prose-like branches: ``(level, reported,
    streak)`` for one host."""
    if policy is not None and policy.enabled:
        if any(t.holds(snapshot) for t in policy.triggers):
            level = OVERLOADED
        if level == OVERLOADED and not all(
                g.holds(snapshot) for g in policy.source_guards):
            level = BUSY
    if level != OVERLOADED:
        return level, level, 0
    streak += 1
    return level, (BUSY if streak < need else OVERLOADED), streak

METRICS = ("loadavg1", "proc_count", "comm_mbs")

predicates = st.builds(
    MetricPredicate,
    metric=st.sampled_from(METRICS),
    op=st.sampled_from(["<", "<=", ">", ">="]),
    value=st.sampled_from([0.0, 1.0, 2.0]),
)
policies = st.one_of(
    st.none(),
    st.builds(
        MigrationPolicy,
        name=st.just("p"),
        enabled=st.booleans(),
        triggers=st.lists(predicates, max_size=3).map(tuple),
        source_guards=st.lists(predicates, max_size=3).map(tuple),
    ),
)
#: One reading: on a threshold, beside it, or unreported (NaN).
readings = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, math.nan])
#: One tick: each host's classified level, whether an unreported metric
#: is absent from its snapshot (or present as NaN), and a column per
#: metric — a metric may be missing from the tick altogether.
ticks = st.tuples(
    st.lists(st.sampled_from([FREE, BUSY, OVERLOADED]),
             min_size=WIDTH, max_size=WIDTH),
    st.lists(st.booleans(), min_size=WIDTH, max_size=WIDTH),
    st.dictionaries(
        st.sampled_from(METRICS),
        st.lists(readings, min_size=WIDTH, max_size=WIDTH),
    ),
)


@settings(max_examples=200, deadline=None)
@given(policy=policies, need=st.integers(1, 4),
       history=st.lists(ticks, min_size=1, max_size=8))
def test_sharpen_and_sustain_agree_across_widths(policy, need, history):
    streak_column = np.zeros(WIDTH, dtype=np.int64)
    streaks = [0] * WIDTH
    for levels, drop_nan, columns in history:
        cols = {name: np.array(values) for name, values in columns.items()}
        sharpened = sharpen(np, np.array(levels, dtype=np.int8), policy, cols)
        reported, streak_column = sustain(np, sharpened, streak_column, need)
        for i in range(WIDTH):
            snapshot = {
                name: values[i] for name, values in columns.items()
                if not (drop_nan[i] and math.isnan(values[i]))
            }
            expected = spelled_out(levels[i], streaks[i], need, policy,
                                   snapshot)
            level = sharpen(scalar, levels[i], policy, snapshot)
            state, streaks[i] = sustain(scalar, level, streaks[i], need)
            assert (level, state, streaks[i]) == expected
            assert (sharpened[i], reported[i]) == (level, state)
        assert streak_column.tolist() == streaks


def test_sharpen_and_sustain_keep_each_width_arithmetic():
    """Columns stay int8 columns; one host stays plain Python ints."""
    policy = MigrationPolicy(
        name="p", triggers=(MetricPredicate("loadavg1", ">", 2.0),),
        source_guards=(MetricPredicate("comm_mbs", "<=", 5.0),),
    )
    cols = {"loadavg1": np.array([3.0, 3.0, 0.0]),
            "comm_mbs": np.array([1.0, 9.0, 1.0])}
    column = sharpen(np, np.zeros(3, dtype=np.int8), policy, cols)
    assert column.dtype == np.int8
    assert column.tolist() == [OVERLOADED, BUSY, FREE]
    reported, streak = sustain(np, column, np.zeros(3, dtype=np.int64), 2)
    assert reported.dtype == np.int8 and streak.dtype == np.int64
    assert reported.tolist() == [BUSY, BUSY, FREE]
    level = sharpen(scalar, FREE, policy, {"loadavg1": 3.0, "comm_mbs": 1.0})
    assert level == OVERLOADED and type(level) is int
    state, count = sustain(scalar, level, 1, 2)
    assert (state, count) == (OVERLOADED, 2) and type(count) is int
