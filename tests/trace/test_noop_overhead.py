"""The no-op guarantee: tracing disabled must cost (almost) nothing.

docs/tracing.md promises that with no tracer installed the
instrumented hot paths pay one global read plus one attribute test per
potential record.  These tests pin the observable halves of that
contract: the default tracer records nothing, and the guarded
emission pattern stays within a loose per-call time bound even on a
busy CI machine.
"""

import time

from repro.analysis import run_table1
from repro.trace import NullTracer, get_tracer


def test_default_tracer_is_disabled_null():
    tracer = get_tracer()
    assert isinstance(tracer, NullTracer)
    assert tracer.enabled is False


def test_untraced_experiment_leaves_no_records():
    before = len(get_tracer().records)
    run_table1()  # full instrumented pipeline, no tracer installed
    assert len(get_tracer().records) == before == 0


def test_guarded_emission_is_cheap():
    n = 50_000
    start = time.perf_counter()
    for _ in range(n):
        tracer = get_tracer()
        if tracer.enabled:  # pragma: no cover - disabled in this test
            tracer.event("x", t=0.0, host="ws1", value=1)
    elapsed = time.perf_counter() - start
    # Loose bound: < 20 µs per guarded site (~0.1 µs typical); only a
    # pathological regression (e.g. building attrs before the guard)
    # would trip it.
    assert elapsed / n < 20e-6


def test_null_tracer_begin_allocates_nothing_new():
    null = get_tracer()
    assert null.begin("a", t=0.0) is null.begin("b", t=1.0)
