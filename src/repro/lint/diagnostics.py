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
from typing import Iterable, List, Optional, Sequence

from ..findings import Diagnostic, Severity  # beside the loaders

#: Version of the JSON report layout; bump on incompatible change.
JSON_REPORT_VERSION = 1


def sort_diagnostics(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: by file, then line, then code."""
    return sorted(
        diags,
        key=lambda d: (d.file or "", d.line or 0, d.code, d.message),
    )


def filter_codes(
    diags: Iterable[Diagnostic],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Keep findings whose code matches a ``select`` prefix (all, when
    ``select`` is empty) and matches no ``ignore`` prefix.  Prefixes
    compare case-insensitively: ``D3`` covers D301–D306."""
    select = tuple(s.upper() for s in select or ())
    ignore = tuple(s.upper() for s in ignore or ())

    def keep(diag: Diagnostic) -> bool:
        code = diag.code.upper()
        if select and not any(code.startswith(s) for s in select):
            return False
        return not any(code.startswith(s) for s in ignore)

    return [d for d in diags if keep(d)]


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


#: SARIF severity levels by diagnostic severity (SARIF 2.1.0 §3.27.10).
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def render_sarif(diags: Sequence[Diagnostic]) -> str:
    """The code-scanning reporter: a SARIF 2.1.0 document GitHub (and
    any SARIF viewer) can ingest.  One run, one rule per *registered*
    code (description, default level and catalogue link from
    :mod:`.catalog`, findings or not), one result per finding."""
    from .catalog import (
        KNOWN_CODES,
        default_severity,
        help_uri,
        short_description,
    )

    diags = sort_diagnostics(diags)
    rules = []
    for code in sorted(KNOWN_CODES | {d.code for d in diags}):
        if code in KNOWN_CODES:
            level = _SARIF_LEVELS[Severity(default_severity(code))]
            rules.append({
                "id": code,
                "shortDescription": {"text": short_description(code)},
                "helpUri": help_uri(code),
                "defaultConfiguration": {"level": level},
            })
        else:
            # Unregistered code in the findings (a pass emitting a code
            # missing from the catalog): still a valid rule entry.
            level = _SARIF_LEVELS[max(
                (d.severity for d in diags if d.code == code),
                key=lambda s: s.rank,
            )]
            rules.append({
                "id": code,
                "defaultConfiguration": {"level": level},
            })
    results = []
    for d in diags:
        result = {
            "ruleId": d.code,
            "level": _SARIF_LEVELS[d.severity],
            "message": {"text": d.message},
        }
        if d.file:
            region = {"startLine": d.line} if d.line else {}
            location = {
                "physicalLocation": {
                    "artifactLocation": {"uri": d.file.replace("\\", "/")},
                },
            }
            if region:
                location["physicalLocation"]["region"] = region
            result["locations"] = [location]
        results.append(result)
    return json.dumps(
        {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [{
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    },
                },
                "results": results,
            }],
        },
        indent=2,
    )


def exit_code(diags: Sequence[Diagnostic], strict: bool = False) -> int:
    """0 when clean, 1 when errors (with ``strict``, warnings too)."""
    worst = Severity.WARNING.rank if strict else Severity.ERROR.rank
    if any(d.severity.rank >= worst for d in diags):
        return 1
    return 0
