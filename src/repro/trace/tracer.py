"""Structured tracing: typed span/event records with a no-op mode.

The paper's §5 results all hinge on *when* things happen — detection
latency (the 72 s warm-up), decision time (~2 ms), spawn (~0.3 s),
poll-point (~1.4 s), resume (<1 s), total migration (~7.5 s).  This
module records the full event flow — monitor sample → rule firing →
registry decision → commander signal → HPCM poll-point transfer — as
typed records that one trace file can reconstruct into Figure-style
timelines (malleability frameworks such as the DMR API lean on the
same per-phase instrumentation to attribute reconfiguration cost).

Two record shapes share one type: an *instant event* (``dur is None``)
and a *span* (``dur`` holds the phase length).  Producers emit
``tracer.event(name, t=..., **attrs)`` or ``handle =
tracer.begin(...)`` … ``handle.end(t=...)``; a time left out is taken
from the tracer's clock.

The ambient tracer (see :mod:`repro.trace`) defaults to a
:class:`NullTracer` whose ``enabled`` flag is ``False``; every
instrumentation site guards attribute construction behind that flag,
so tracing disabled costs one global read and one attribute test per
potential record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class TraceRecord:
    """One trace entry: an instant event, or a completed span.

    ``t`` is the event time (span start for spans) in the producer's
    clock domain — simulated seconds for the simulation, wall seconds
    for live mode.  ``attrs`` carries the event's stable attributes
    (see :mod:`repro.trace.events` for the catalogue).
    """

    name: str
    t: float
    dur: Optional[float] = None
    host: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.dur is not None


class SpanHandle:
    """An open span; close it with :meth:`end`."""

    __slots__ = ("_tracer", "name", "t0", "host", "attrs", "closed")

    def __init__(self, tracer: "Tracer", name: str, t0: float,
                 host: Optional[str], attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.t0 = t0
        self.host = host
        self.attrs = attrs
        self.closed = False

    def end(self, t: Optional[float] = None,
            **attrs: Any) -> Optional[TraceRecord]:
        """Close the span at ``t`` (default: the tracer's clock).

        Extra ``attrs`` are folded into the record (outcomes live
        here: the state a sample classified to, a migration's
        success).  Idempotent: a second ``end`` is ignored.
        """
        if self.closed:
            return None
        self.closed = True
        t1 = self._tracer._stamp(t)
        if attrs:
            self.attrs.update(attrs)
        rec = TraceRecord(
            name=self.name, t=self.t0, dur=max(0.0, t1 - self.t0),
            host=self.host, attrs=self.attrs,
        )
        self._tracer.records.append(rec)
        return rec


class _NullSpan:
    """The span handle a :class:`NullTracer` hands out."""

    __slots__ = ()
    closed = True

    def end(self, t: Optional[float] = None, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`TraceRecord` objects in memory.

    ``clock`` is an optional zero-argument callable giving the current
    time; the :class:`~repro.core.rescheduler.Rescheduler` binds it to
    its simulation clock on deployment.  Producers that know the time
    pass ``t=`` explicitly; clock-less emission falls back to the last
    explicitly stamped time, so env-free layers (the rule evaluator)
    inherit the timestamp of the enclosing monitor cycle.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.records: List[TraceRecord] = []
        self.clock = clock
        self._last_t = 0.0

    # -- time -----------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    def now(self) -> float:
        if self.clock is not None:
            return float(self.clock())
        return self._last_t

    def _stamp(self, t: Optional[float]) -> float:
        if t is None:
            return self.now()
        t = float(t)
        self._last_t = t
        return t

    # -- producing ------------------------------------------------------
    def event(self, name: str, t: Optional[float] = None,
              host: Optional[str] = None, **attrs: Any) -> TraceRecord:
        """Record an instant event."""
        rec = TraceRecord(name=name, t=self._stamp(t), host=host,
                          attrs=attrs)
        self.records.append(rec)
        return rec

    def begin(self, name: str, t: Optional[float] = None,
              host: Optional[str] = None, **attrs: Any) -> SpanHandle:
        """Open a span; the record is appended when it ends."""
        return SpanHandle(self, name, self._stamp(t), host, attrs)

    # -- consuming ------------------------------------------------------

    def by_name(self, name: str) -> List[TraceRecord]:
        return [r for r in self.records if r.name == name]


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing.

    Instrumentation sites check ``tracer.enabled`` before building
    attribute dicts, so the common path through an untraced simulation
    costs a global read plus one attribute test.
    """

    enabled = False

    def event(self, name: str, t: Optional[float] = None,
              host: Optional[str] = None, **attrs: Any) -> None:
        return None

    def begin(self, name: str, t: Optional[float] = None,
              host: Optional[str] = None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN
