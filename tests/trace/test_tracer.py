"""The tracer core: records, spans, clocks and the ambient slot."""

import pytest

from repro.trace import (
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use,
)
from repro.trace.tracer import NULL_SPAN, TraceRecord


# ------------------------------------------------------ instant events
def test_event_records_name_time_host_attrs():
    tracer = Tracer()
    rec = tracer.event("monitor.sample", t=12.5, host="ws1", cycle=3)
    assert rec is tracer.records[0]
    assert (rec.name, rec.t, rec.host) == ("monitor.sample", 12.5, "ws1")
    assert rec.attrs == {"cycle": 3}
    assert not rec.is_span


def test_event_without_time_uses_last_stamped_time():
    tracer = Tracer()
    tracer.event("a", t=40.0)
    rec = tracer.event("b")  # no t: inherit the last explicit stamp
    assert rec.t == 40.0


def test_event_with_clock_bound():
    tracer = Tracer()
    tracer.bind_clock(lambda: 99.0)
    assert tracer.event("a").t == 99.0
    assert tracer.now() == 99.0


# -------------------------------------------------------------- spans
def test_begin_end_span():
    tracer = Tracer()
    span = tracer.begin("hpcm.spawn", t=10.0, host="ws2", app="psearch")
    assert tracer.records == []  # not recorded until closed
    rec = span.end(t=10.3, warm=True)
    assert rec.is_span
    assert rec.t == 10.0
    assert rec.dur == pytest.approx(0.3)
    assert rec.t + rec.dur == pytest.approx(10.3)
    assert rec.attrs == {"app": "psearch", "warm": True}
    assert tracer.records == [rec]


def test_span_end_is_idempotent():
    tracer = Tracer()
    span = tracer.begin("x", t=0.0)
    span.end(t=1.0)
    assert span.end(t=5.0) is None
    (rec,) = tracer.records
    assert rec.dur == 1.0


def test_span_duration_clamped_non_negative():
    tracer = Tracer()
    rec = tracer.begin("x", t=5.0).end(t=3.0)
    assert rec.dur == 0.0


def test_span_without_times_stamps_the_clock():
    times = iter([100.0, 107.5])
    tracer = Tracer(clock=lambda: next(times))
    tracer.begin("monitor.sample", host="ws1").end()
    (rec,) = tracer.records
    assert (rec.t, rec.dur) == (100.0, 7.5)


def test_by_name_names_len_clear():
    tracer = Tracer()
    tracer.event("a", t=0.0)
    tracer.event("b", t=1.0)
    tracer.event("a", t=2.0)
    assert [r.name for r in tracer.records] == ["a", "b", "a"]
    assert [r.t for r in tracer.by_name("a")] == [0.0, 2.0]


# --------------------------------------------------------- NullTracer
def test_null_tracer_records_nothing():
    null = NullTracer()
    assert null.enabled is False
    assert null.event("a", t=0.0) is None
    assert null.begin("b", t=0.0) is NULL_SPAN
    NULL_SPAN.end(t=1.0, extra=True)  # harmless
    assert null.records == []


def test_ambient_tracer_defaults_to_disabled():
    tracer = get_tracer()
    assert isinstance(tracer, NullTracer)
    assert tracer.enabled is False


def test_use_installs_and_restores():
    before = get_tracer()
    mine = Tracer()
    with use(mine) as active:
        assert active is mine
        assert get_tracer() is mine
    assert get_tracer() is before


def test_use_restores_on_exception():
    before = get_tracer()
    with pytest.raises(RuntimeError):
        with use(Tracer()):
            raise RuntimeError
    assert get_tracer() is before


def test_set_tracer_none_reinstalls_null():
    set_tracer(Tracer())
    try:
        assert get_tracer().enabled
    finally:
        restored = set_tracer(None)
    assert isinstance(restored, NullTracer)
    assert get_tracer() is restored


def test_trace_record_defaults():
    rec = TraceRecord(name="n", t=1.0)
    assert rec.dur is None and rec.host is None and rec.attrs == {}
