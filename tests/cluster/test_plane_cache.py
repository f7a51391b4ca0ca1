"""The host plane's derived-column cache against the uncached plane.

A tick and a sensor snapshot read the analytic rows, their duty
families, hogs and utilisation from a cache keyed by
``HostPlane.version``.  Here both planes run the same ticks with the
five mutators — ``add_analytic_rows``, ``attach``,
``set_monitor_duty``, ``inject_hogs``, ``clear_hogs`` — between them,
and after every tick the run queue, the three load averages and the
sensor columns must be ``==`` to ``ReferencePlane``'s, which re-gathers
everything every time.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.plane import SAMPLE_INTERVAL, HostPlane
from repro.sim import Environment

from .reference import ReferencePlane

_load = st.floats(min_value=0.0, max_value=0.95)
_period = st.sampled_from([0.7, 2.0, 2.5, 5.0, 10.0])
_phase = st.floats(min_value=0.0, max_value=10.0)

_ops = st.lists(st.one_of(
    st.just(("tick",)),
    st.tuples(st.just("add"), st.lists(st.tuples(_load, _period, _phase),
                                       min_size=1, max_size=4)),
    # Attach a host: a new backed row, or (index) an analytic row's.
    st.tuples(st.just("attach"), st.one_of(st.none(), st.integers(0, 99)),
              st.floats(min_value=0.0, max_value=4.0)),
    st.tuples(st.just("duty"), st.integers(0, 2**16),
              st.floats(min_value=0.001, max_value=0.5), _period, _phase),
    st.tuples(st.just("inject"), st.integers(0, 99), st.integers(1, 3)),
    st.tuples(st.just("clear"), st.integers(0, 99)),
), max_size=16)


def _host(name, run_queue):
    return SimpleNamespace(name=name, cpu=SimpleNamespace(
        run_queue=run_queue))


def _apply(plane, op, analytic):
    """Run one mutator on ``plane``; ``analytic`` is the analytic row
    names, in row order."""
    kind = op[0]
    if kind == "add":
        names = [f"an{len(analytic) + i}" for i in range(len(op[1]))]
        loads, periods, phases = zip(*op[1])
        plane.add_analytic_rows(names, mean_load=list(loads),
                                period=list(periods), phase=list(phases))
        return names
    if kind == "attach":
        _, index, run_queue = op
        name = (f"b{plane.arrays.n}" if index is None or not analytic
                else analytic[index % len(analytic)])
        plane.attach(_host(name, run_queue))
    elif kind == "duty":
        _, mask, busy, period, phase = op
        rows = plane.analytic_rows()
        rows = rows[[(mask >> (i % 16)) & 1 == 1 for i in range(rows.size)]]
        plane.set_monitor_duty(rows, busy=busy, period=period,
                               phases=phase + 0.1 * np.arange(rows.size))
    elif kind in ("inject", "clear") and analytic:
        name = analytic[op[1] % len(analytic)]
        if kind == "inject":
            plane.inject_hogs(name, op[2])
        else:
            plane.clear_hogs(name)
    return []


def _assert_same(plane, reference):
    for name in ("runq", "load1", "load5", "load15"):
        assert (plane.arrays.col(name).tolist()
                == reference.arrays.col(name).tolist()), name
    rows = reference.analytic_rows()
    assert plane.analytic_rows().tolist() == rows.tolist()
    cols = plane.analytic_sensor_columns(rows)
    expected = reference.analytic_sensor_columns(rows)
    assert list(cols) == list(expected)
    for name, col in expected.items():
        assert cols[name].tolist() == col.tolist(), name


def _apply_both(planes, op, analytic):
    added = [_apply(plane, op, analytic) for plane in planes]
    assert added[0] == added[1]
    return added[0]


def _every_mutator_after_a_tick():
    return [("tick",), ("add", [(0.3, 2.0, 0.5)]), ("tick",),
            ("inject", 0, 2), ("tick",), ("duty", 3, 0.2, 5.0, 1.0),
            ("tick",), ("clear", 0), ("tick",), ("attach", 1, 2.0),
            ("tick",), ("attach", None, 1.5), ("tick",),
            ("add", [(0.5, 0.7, 0.0), (0.1, 10.0, 3.0)]), ("tick",)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_load, _period, _phase), max_size=5), _ops)
@example([(0.2, 2.0, 0.0), (0.4, 2.5, 1.3)], _every_mutator_after_a_tick())
def test_a_cached_tick_equals_the_uncached_tick(initial, ops):
    planes = []
    for cls in (HostPlane, ReferencePlane):
        plane = cls(Environment())
        plane.attach(_host("ws0", 1.0))
        planes.append(plane)
    analytic = []
    if initial:
        analytic += _apply_both(planes, ("add", initial), analytic)
    for plane in planes:
        plane.env.run(until=2.5)  # ticks fall at 5, 10, ... in between
    for op in ops:
        if op[0] == "tick":
            for plane in planes:
                plane.env.run(until=plane.env.now + SAMPLE_INTERVAL)
            _assert_same(*planes)
        else:
            analytic += _apply_both(planes, op, analytic)
    assert planes[0].ticks == planes[1].ticks


def test_what_a_caller_is_handed_cannot_corrupt_the_cache():
    """``analytic_rows()`` is the cache's own array, read-only; a
    snapshot's columns are copies."""
    plane = HostPlane(Environment())
    plane.add_analytic_rows(["an0", "an1"], mean_load=0.25)
    rows = plane.analytic_rows()
    with pytest.raises(ValueError, match="read-only"):
        rows[0] = 1
    cols = plane.analytic_sensor_columns(rows)
    cols["cpu_util"][:] = 7.0
    cols["loadavg1"][:] = 7.0
    again = plane.analytic_sensor_columns(rows)
    assert again["cpu_util"].tolist() == [0.25, 0.25]
    assert again["loadavg1"].tolist() == [0.0, 0.0]
    assert plane.analytic_rows() is rows


def test_every_mutator_bumps_the_version():
    plane = HostPlane(Environment())
    seen = [plane.version]

    def bumped():
        seen.append(plane.version)
        return seen[-1] > seen[-2]

    plane.add_analytic_rows(["an0", "an1"], mean_load=0.25)
    assert bumped()
    plane.set_monitor_duty(plane.analytic_rows(), busy=0.1, period=5.0,
                           phases=np.zeros(2))
    assert bumped()
    plane.inject_hogs("an0", 1)
    assert bumped()
    plane.clear_hogs("an0")
    assert bumped()
    plane.attach(_host("ws0", 0.0))         # a new row
    assert bumped()
    plane.attach(_host("an1", 0.0))         # an analytic row's host
    assert bumped()
    plane.env.run(until=12.0)               # ticks change no version
    plane.analytic_sensor_columns(plane.analytic_rows())
    assert not bumped()
