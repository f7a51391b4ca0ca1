"""Structured tracing of the migration lifecycle (docs/tracing.md).

One trace answers the question the paper's §5.2 answers with Figure 7:
*when did each phase of an autonomic migration happen, and what did it
cost?*  The instrumented layers — monitor sampling, rule firing,
registry decisions, commander signals, HPCM poll-point transfers —
emit records through a process-wide *ambient tracer*:

>>> from repro import trace
>>> tracer = trace.Tracer()
>>> with trace.use(tracer):
...     pass  # deploy a Rescheduler, run the simulation
>>> tracer.names()
set()

The ambient tracer defaults to a disabled :class:`NullTracer`; see
:mod:`repro.trace.tracer` for the overhead contract and
:mod:`repro.trace.exporters` for the JSONL and Chrome/Perfetto output
formats.  ``repro run <experiment> --trace out.jsonl`` drives the whole
pipeline from the command line and prints the per-phase breakdown.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from . import events
from .events import EVENTS, EventSpec
from .exporters import (
    export_chrome,
    export_jsonl,
    load_jsonl,
    to_chrome,
    to_jsonl_lines,
)
from .kernel import attach_kernel, detach_kernel
from .tracer import NullTracer, SpanHandle, TraceRecord, Tracer

#: The permanent disabled tracer the ambient slot falls back to.
_NULL = NullTracer()

_current: Tracer = _NULL


def get_tracer() -> Tracer:
    """The ambient tracer (a disabled :class:`NullTracer` by default)."""
    return _current


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the ambient tracer (``None`` → disabled)."""
    global _current
    _current = tracer if tracer is not None else _NULL
    return _current


@contextmanager
def use(tracer: Tracer) -> Iterator[Tracer]:
    """Ambient-tracer scope: install on entry, restore on exit."""
    previous = _current
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


__all__ = [
    "EVENTS",
    "EventSpec",
    "NullTracer",
    "SpanHandle",
    "TraceRecord",
    "Tracer",
    "attach_kernel",
    "detach_kernel",
    "events",
    "export_chrome",
    "export_jsonl",
    "get_tracer",
    "load_jsonl",
    "set_tracer",
    "to_chrome",
    "to_jsonl_lines",
    "use",
]
