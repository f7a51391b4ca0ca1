"""The reconfiguration ladder: one executor for migrate, expand, shrink.

A reconfiguration is an ordered table of named *rungs*
(:data:`repro.hpcm.runtime.MIGRATION`, :data:`repro.hpcm.world.RESHAPE`).
:func:`climb` drives an :class:`Attempt` up its table and alone stamps
the record, writes the trace spans, turns a rung's exception into the
record's ``failure``, undoes the completed rungs and writes the one
terminal state.  It is a plain generator the carrying process drives
with ``yield from``: no process and no kernel event of its own.

The contract: an attempt that fails never fails its rank and never
raises out of ``env.run`` — the process (or every parked rank) keeps
running where it was, and no partial results are lost.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Sequence

from ..trace import get_tracer
from .errors import HpcmError, RepartitionError


class Refusal(HpcmError):
    """A rung declined; the message is the whole failure reason."""


class Rung(NamedTuple):
    """One row of a rung table.  The callables take the attempt's owner
    (the runtime or the world), then the attempt."""

    name: str
    #: A generator or a plain function; ``None`` for a rung waited out
    #: by callbacks (the poll-point barrier) and reported with `leave`.
    run: Optional[Callable] = None
    #: Record field set to ``env.now`` when the rung ends, either way.
    stamp: str = ""
    #: The rung's trace span as ``(event, host, attrs)``, asked when it
    #: closes so it sees what the rung produced.
    span: Optional[Callable] = None
    #: The span stays open until the attempt ends.
    held: bool = False
    #: Run, in reverse order, if a later rung fails.
    undo: Optional[Callable] = None
    #: Name of the process that climbs on from here while the caller of
    #: :func:`climb` goes back to its own work.
    background: str = ""


class Attempt:
    """One open reconfiguration: the order, its record, and what the
    rungs hand one another (set as plain attributes)."""

    def __init__(self, owner: Any, order: Any, rec: Any, log: list,
                 span: Callable, release: Optional[Callable] = None):
        self.owner, self.env = owner, owner.env
        self.order, self.rec = order, rec
        self.log = log          # where the terminal record is appended
        self.span = span        # the whole attempt's span, as a rung's
        self.release = release  # called last: a world wakes its ranks
        self.held: list = []    # (rung, opened at), in opening order
        self.undos: list = []


def climb(att: Attempt, rungs: Sequence[Rung]):
    """Drive ``att`` up ``rungs``; ends in exactly one terminal record,
    unless a ``background`` rung hands the rest to its process."""
    for i, rung in enumerate(rungs):
        if rung.background and i:
            att.env.process(climb(att, rungs[i:]), name=rung.background)
            return
        opened = att.env.now
        if rung.held:
            att.held.append((rung, opened))
        exc = None
        try:
            step = rung.run(att.owner, att)
            if step is not None:
                yield from step
        except Exception as error:
            exc = error
        if not leave(att, rung, exc, opened):
            return
    _settle(att, "")


def leave(att: Attempt, rung: Rung, exc: Optional[Exception] = None,
          opened: Optional[float] = None) -> bool:
    """The attempt leaves ``rung``, completed or — ``exc`` given —
    failed; returns whether the climb goes on."""
    now = att.env.now
    if rung.stamp:
        setattr(att.rec, rung.stamp, now)
    if rung.span is not None and not rung.held:
        _write(rung.span, att, opened, now)
    if exc is None:
        att.rec.steps[rung.name] = now
        if rung.undo is not None:
            att.undos.append(rung.undo)
        return True
    if isinstance(exc, Refusal):
        _settle(att, str(exc))
    else:
        verb = "refused" if isinstance(exc, RepartitionError) else "failed"
        _settle(att, f"{rung.name} {verb}: {exc}")
    return False


def _write(span: Callable, att: Attempt, opened: float, now: float,
           **outcome: Any) -> None:
    """Emit the span ``span`` describes, if tracing is on."""
    tracer = get_tracer()
    described = span(att.owner, att) if tracer.enabled else None
    if described is not None:
        event, host, attrs = described
        tracer.begin(event, t=opened, host=host, **attrs).end(
            t=now, **outcome)


def _settle(att: Attempt, failure: str) -> None:
    """Write the terminal state — the one place that does."""
    rec, now = att.rec, att.env.now
    if failure:
        while att.undos:
            att.undos.pop()(att.owner, att)
    rec.failure = failure
    rec.succeeded = not failure
    rec.completed_at = now
    for rung, opened in att.held:
        _write(rung.span, att, opened, now)
    _write(att.span, att, rec.ordered_at, now,
           succeeded=rec.succeeded, failure=failure)
    att.log.append(rec)
    if att.release is not None:
        att.release(att.owner, att)
