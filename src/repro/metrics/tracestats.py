"""Per-phase cost breakdowns computed from trace spans.

The paper's §5.2 attributes migration cost phase by phase — decision
(~2 ms), initialization/spawn (~0.3 s), reaching the poll-point
(~1.4 s), resume (<1 s), total (~7.5 s).  This module derives the same
breakdown from a structured trace (:mod:`repro.trace`) instead of from
:class:`~repro.hpcm.record.MigrationRecord` bookkeeping, and renders
it through the existing report path (:func:`~repro.metrics.report
.format_table`) — so ``repro run fig7 --trace PATH`` prints a
Figure-7-style phase table straight out of the trace.

Records are duck-typed (``name`` / ``t`` / ``dur`` / ``host`` /
``attrs``): both live :class:`~repro.trace.TraceRecord` lists and
traces re-loaded from JSONL work.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .report import format_table


def span_durations(records: Iterable) -> Dict[str, List[float]]:
    """Span name → list of durations (seconds), in trace order."""
    out: Dict[str, List[float]] = {}
    for rec in records:
        if rec.dur is not None:
            out.setdefault(rec.name, []).append(rec.dur)
    return out


def phase_breakdown(records: Iterable) -> List[Tuple[str, int, float, float]]:
    """Aggregate rows ``(span name, count, total s, mean s)``."""
    rows = []
    for name, durs in sorted(span_durations(records).items()):
        total = sum(durs)
        rows.append((name, len(durs), total, total / len(durs)))
    return rows


def format_phase_table(records: Iterable,
                       title: str = "per-phase span durations") -> str:
    """The aggregate breakdown as a plain-text table."""
    rows = [
        (name, count, round(total, 4), round(mean, 4))
        for name, count, total, mean in phase_breakdown(records)
    ]
    if not rows:
        return "(no spans in trace)"
    return format_table(["span", "count", "total s", "mean s"], rows,
                        title=title)
