"""The diagnostic framework behind ``repro lint``.

Every finding is a :class:`~repro.findings.Diagnostic` (defined beside
the loaders that make most of them) with a **stable code** —
``Rxxx`` for rule-graph checks, ``Pxxx`` for policy checks, ``Sxxx``
for application-schema checks, ``Lxxx`` for the lint driver itself —
a severity, a message and an optional file/line/object location.

Reporters render a diagnostic list as human-readable text (gcc style,
``file:line: severity CODE: message``) or as schema-stable JSON for CI
consumption; :func:`exit_code` maps findings onto the CI contract
(0 = clean, 1 = errors found; the CLI reserves 2 for usage errors).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence

from ..findings import Diagnostic, Severity  # beside the loaders

#: Version of the JSON report layout; bump on incompatible change.
JSON_REPORT_VERSION = 1


def sort_diagnostics(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: by file, then line, then code."""
    return sorted(
        diags,
        key=lambda d: (d.file or "", d.line or 0, d.code, d.message),
    )


def summarize(diags: Sequence[Diagnostic]) -> dict:
    return {
        "errors": sum(1 for d in diags if d.severity is Severity.ERROR),
        "warnings": sum(1 for d in diags if d.severity is Severity.WARNING),
        "infos": sum(1 for d in diags if d.severity is Severity.INFO),
    }


def render_text(diags: Sequence[Diagnostic]) -> str:
    """The human reporter: one line per finding plus a summary line."""
    diags = sort_diagnostics(diags)
    lines = [d.render() for d in diags]
    counts = summarize(diags)
    lines.append(
        f"{counts['errors']} error(s), {counts['warnings']} warning(s), "
        f"{counts['infos']} info(s)"
    )
    return "\n".join(lines)


def render_json(diags: Sequence[Diagnostic]) -> str:
    """The CI reporter: versioned, schema-stable JSON document."""
    diags = sort_diagnostics(diags)
    return json.dumps(
        {
            "version": JSON_REPORT_VERSION,
            "summary": summarize(diags),
            "diagnostics": [d.as_dict() for d in diags],
        },
        indent=2,
        sort_keys=False,
    )


def exit_code(diags: Sequence[Diagnostic], strict: bool = False) -> int:
    """0 when clean, 1 when errors (with ``strict``, warnings too)."""
    worst = Severity.WARNING.rank if strict else Severity.ERROR.rank
    if any(d.severity.rank >= worst for d in diags):
        return 1
    return 0
